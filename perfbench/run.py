#!/usr/bin/env python3
"""Builds the benchmark and the server from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_wal|query_cold|read_mix \
        --seed N --seconds S --trace 0|1

Build output goes to $CARGO_TARGET_DIR (default: .bench_build in the
repository root). The last line of standard output is the result JSON.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--served", os.path.join(release, "fairsw-served")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
