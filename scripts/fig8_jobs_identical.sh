#!/bin/sh
# Run the 13 Fig. 8 queries (Tpch.Queries.all), rewritten and original,
# over a store with `conquer query --jobs 1` and `--jobs 2`, and fail
# unless each mode's printed answers are byte-identical.  The store must
# be large enough for the partitioned Filter and Project (about 2 x 512
# rows into an operator at jobs 2), e.g. `conquer generate DIR --sf 0.2`.
# Joins stream in both modes; the original queries read their join
# results through Project and Sort rather than Aggregate.
#
# usage: scripts/fig8_jobs_identical.sh CONQUER_EXE STORE_DIR OUT_DIR
set -eu

cli=$1
store=$2
out=$3

# --jobs is clamped to the host's domain count, so on one core both
# runs would be serial and the comparison would prove nothing
cores=$(nproc)
if [ "$cores" -lt 2 ]; then
  echo "fig8_jobs_identical: needs at least 2 cores, this host has $cores" >&2
  exit 1
fi
mkdir -p "$out"

# one query per line, from lib/tpch/queries.ml's `sql` fields (OCaml
# backslash-newline continuations joined, `q3_body ^ "..."` expanded)
python3 - "$(dirname "$0")/../lib/tpch/queries.ml" > "$out/queries.sql" <<'EOF'
import re, sys
src = open(sys.argv[1]).read()
lit = r'"((?:[^"\\]|\\.|\\\n)*)"'
def text(s):
    return re.sub(r"\\\n\s*", "", s).replace('\\"', '"')
bodies = {m.group(1): text(m.group(2))
          for m in re.finditer(r"let (\w+) =\s*" + lit, src, re.S)}
found = {}
for m in re.finditer(r"let (q\d+) =\s*\{(.*?)\}", src, re.S):
    b = m.group(2)
    s = re.search(r"sql =\s*" + lit, b, re.S)
    if s:
        found[m.group(1)] = text(s.group(1))
        continue
    s = re.search(r"sql = (\w+) \^ " + lit, b, re.S)
    found[m.group(1)] = bodies[s.group(1)] + text(s.group(2))
names = re.search(r"let all = \[(.*?)\]", src, re.S).group(1).replace(" ", "").split(";")
for n in names:
    print(found[n])
EOF

n=$(wc -l < "$out/queries.sql")
[ "$n" -eq 13 ] || { echo "expected 13 Fig. 8 queries, found $n"; exit 1; }

for mode in rewritten original; do
  for jobs in 1 2; do
    : > "$out/$mode.jobs$jobs.txt"
    while IFS= read -r sql; do
      "$cli" query --mode "$mode" --jobs "$jobs" -d "$store" --max-rows 1000000 \
        "$sql" >> "$out/$mode.jobs$jobs.txt"
    done < "$out/queries.sql"
  done
done

status=0
for mode in rewritten original; do
  grep '^([0-9]* rows)$' "$out/$mode.jobs1.txt"
  if cmp -s "$out/$mode.jobs1.txt" "$out/$mode.jobs2.txt"; then
    echo "13 $mode Fig. 8 answers byte-identical at jobs 1 and 2"
  else
    diff "$out/$mode.jobs1.txt" "$out/$mode.jobs2.txt" | head -20
    status=1
  fi
done
exit $status
