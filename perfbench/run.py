#!/usr/bin/env python3
"""Builds the market benchmark from source and runs one workload.

    python3 perfbench/run.py --workload imagenet_hits --seed 1 --seconds 25 --trace 0

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
builds against the workspace crates by path; its build output goes to
$CARGO_TARGET_DIR (default perfbench/target), and the binary runs from
the repository root. Every argument is handed to the benchmark binary;
--seconds defaults to run_seconds of BENCHMARK.json. Its last line of
standard output is the JSON result. Store scratch space and span files
stay under perfbench/ (tmp/ and out/).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.abspath(os.path.join(target, "release", "dragoon-perfbench"))
    args = sys.argv[1:]
    if "--seconds" not in args:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args += ["--seconds", str(json.load(f)["run_seconds"])]
    # The binary keeps its stores in perfbench/tmp and its span files in
    # perfbench/out, relative to the repository root.
    return subprocess.run([exe, *args], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
