#!/usr/bin/env python3
"""Build the dfsm benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test BENCHMARK.json

Run from the root of a checkout.  The benchmark is built with dune in
the release profile into .bench_build (dune's shared cache off, so
nothing is written outside the checkout); its scratch files go under
.bench_work.  Every argument is passed on to perfbench/bench.ml, which
prints the result as the last line of standard output.  Build output
goes to standard error; a failed build exits 1 without a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 1
    build = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
