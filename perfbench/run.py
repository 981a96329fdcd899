#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to standard error. The run's own
output, ending in one JSON line, goes to standard output. The exit code is
the build's when the build fails, else the run's.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    binary = os.path.join(target, "release", "perfbench")
    sys.exit(subprocess.run([binary] + sys.argv[1:], env=env).returncode)


if __name__ == "__main__":
    main()
