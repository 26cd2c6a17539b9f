.PHONY: all build test check bench examples quickbench fuzz clean

# the CI fuzz configuration: 500 differential cases, fixed seed,
# counterexamples (if any) saved under fuzz-out/
FUZZ_SEED ?= 0
FUZZ_CASES ?= 500

all: build

build:
	dune build @all

test:
	dune runtest

# everything CI runs: full build, test suite, and the examples
check:
	dune build @all
	dune runtest
	$(MAKE) examples

# the paper-reproduction harness: every table/figure/ablation; the
# timed benchmark is perfbench (perfbench/README.md)
bench:
	dune exec bench/main.exe

# CI-sized smoke run of the paper-reproduction reports
quickbench:
	dune exec bench/main.exe -- --quick

fuzz:
	dune exec bin/conquer_cli.exe -- fuzz \
	  --seed $(FUZZ_SEED) --cases $(FUZZ_CASES) --out fuzz-out
	dune exec bin/conquer_cli.exe -- fuzz --replay test/corpus

examples:
	dune exec examples/quickstart.exe
	dune exec examples/crm.exe
	dune exec examples/citations.exe
	dune exec examples/tpch_demo.exe
	dune exec examples/dedup.exe
	dune exec examples/aggregates.exe

clean:
	dune clean
