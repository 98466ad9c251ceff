#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one measurement.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is the Rust package in perfbench/harness; it builds against the
repository's crates by path, into $CARGO_TARGET_DIR (default .bench_build).
Build output goes to standard error; the harness's last line of standard
output is the JSON result. Exits non-zero without a result if the build or
the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", MANIFEST,
    ]
    try:
        subprocess.run(build, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        # The harness holds no lock or file the parent needs; run() waits
        # for it to exit (or kills it at the timeout) before returning.
        done = subprocess.run([binary, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
