#!/usr/bin/env python3
"""Builds and runs the simulator benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. `--trace 0` measures the end-to-end
metrics; `--trace 1` measures the per-layer metrics in two processes (the
traced pass on the plain build, the allocation pass on a build with
counting on) and merges them. The last line of standard output is one JSON
object: correct, attempted, failed, metrics. Any failure to build or run
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 800
# Host time allowed for all measuring passes of one run, after the build.
RUN_TIMEOUT_S = 170


def build(target_dir, profile, features):
    cmd = ["cargo", "build", "--offline", "--quiet", "--profile", profile,
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")] + features
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    # Build output goes to stderr so the last stdout line stays the result.
    subprocess.run(cmd, env=env, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return target_dir / profile / "perfbench"


def run_pass(binary, args, extra, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    # On timeout, subprocess.run kills the pass and waits for it to end.
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=max(deadline - time.monotonic(), 1)).stdout
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    root = Path.cwd()
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build")
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    try:
        # Both builds, whatever the pass: the first run in a checkout then
        # pays for both, and later runs find them up to date.
        plain = build(target_dir, "release", [])
        counting = build(target_dir, "count", ["--features", "count"])
        deadline = time.monotonic() + RUN_TIMEOUT_S
        if args.trace == 0:
            result = run_pass(plain, args, ["--pass", "e2e"], deadline)
        else:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            result = run_pass(plain, args, ["--pass", "layers", "--spans", str(spans)], deadline)
            alloc = run_pass(counting, args, ["--pass", "alloc"], deadline)
            result = {
                "correct": result["correct"] and alloc["correct"],
                "attempted": result["attempted"] + alloc["attempted"],
                "failed": result["failed"] + alloc["failed"],
                "metrics": {**result["metrics"], **alloc["metrics"]},
            }
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError, IndexError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
