#!/bin/sh
# Pin the Fig. 8 answers: run the 13 Fig. 8 queries (Tpch.Queries.all),
# rewritten and original, with `conquer query` over a store, write one
# MD5 digest of each printed answer to OUT_DIR/fig8_digests.txt, and
# fail unless that file equals EXPECTED.  A change that moves an answer
# must regenerate EXPECTED and say why.
#
# EXPECTED (scripts/fig8_digests.txt) holds the digests over the store
# `conquer generate DIR --sf 0.2` writes (its default seed, 42).  To
# regenerate it, pass --update: the digests are then written to
# EXPECTED instead of compared.
#
# usage: scripts/fig8_digests.sh CONQUER_EXE STORE_DIR OUT_DIR [--update]
set -eu

cli=$1
store=$2
out=$3
update=${4:-}
expected="$(dirname "$0")/fig8_digests.txt"
mkdir -p "$out"

# one query per line, from lib/tpch/queries.ml's `sql` fields (OCaml
# backslash-newline continuations joined, `q3_body ^ "..."` expanded),
# each prefixed with its query number
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
    print(n + " " + found[n])
EOF

n=$(wc -l < "$out/queries.sql")
[ "$n" -eq 13 ] || { echo "expected 13 Fig. 8 queries, found $n"; exit 1; }

: > "$out/fig8_digests.txt"
for mode in rewritten original; do
  while read -r name sql; do
    "$cli" query --mode "$mode" -d "$store" --max-rows 1000000 "$sql" > "$out/answer.txt"
    rows=$(grep '^([0-9]* rows)$' "$out/answer.txt" || echo "(no row count)")
    digest=$(md5sum < "$out/answer.txt" | cut -d' ' -f1)
    echo "$name $mode $digest $rows" >> "$out/fig8_digests.txt"
  done < "$out/queries.sql"
done
rm -f "$out/answer.txt"

if [ "$update" = "--update" ]; then
  cp "$out/fig8_digests.txt" "$expected"
  echo "wrote $expected"
elif diff "$expected" "$out/fig8_digests.txt"; then
  echo "26 Fig. 8 answers match $expected"
else
  echo "Fig. 8 answers differ from $expected (above: < expected, > this build)"
  exit 1
fi
