#!/usr/bin/env python3
"""Build the SNF benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload acs-point --seed 1 --seconds 10 --trace 0

The build goes to dune's _build directory inside the repository; build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's own (0 ok,
1 wrong answers or failed ops, 2 bad usage), or the build's on a failed
build. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/snfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "snfbench.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project at %s; the benchmark builds the repository "
              "from source and needs its full tree" % ROOT, file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ROOT, TARGET],
                           cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    # Replace this process with the benchmark, so a signal sent to run.py
    # reaches the benchmark and nothing outlives it.
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
