#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig8-queries --seed 1 --seconds 15 --trace 0

Builds bin/conquer_cli.exe and perfbench/main.exe with dune (build
output goes to stderr), then replaces itself with main.exe so that
signals reach the process that owns the daemon and the temp dirs.
See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
CLI = os.path.join("_build", "default", "bin", "conquer_cli.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/conquer_cli.exe", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    os.execv(MAIN, [MAIN, "--conquer", CLI] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
