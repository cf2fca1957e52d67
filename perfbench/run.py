#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload astar-exact --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

The binary's report goes to stdout; its last line is the JSON result. The
daemon's per-request access log goes to stderr, which is dropped unless
the run fails (then its tail is shown).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    binary = os.path.join(target, "release", "ghd-perfbench")
    # relative, so the daemon's unix socket path stays short
    work = os.path.relpath(os.path.join(target, "perfbench-work"))
    run = subprocess.run(
        [binary, "--work", work] + sys.argv[1:],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        tail = run.stderr.splitlines()[-40:]
        sys.stderr.write("\n".join(tail) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
