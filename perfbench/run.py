#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <serve-warm|batch-cold|stream-churn>
        --seed <n> --seconds <s> --trace <0|1>
        [--serve-rate <releases/s>] [--stream-rate <releases/s>]

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout. The last line of stdout is the run's JSON result; build output
goes to stderr. Exits non-zero, printing no result, when the build fails
or the run overruns its time limit, and with the binary's own code when a
correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

RUN_LIMIT_S = 170  # the whole command, build excluded, stays under 180 s


def build(root: Path) -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-warm", "batch-cold", "stream-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--serve-rate", type=float, default=200.0)
    parser.add_argument("--stream-rate", type=float, default=60.0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--serve-rate", str(args.serve_rate),
               "--stream-rate", str(args.stream_rate)]
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode not in (0, 1) or not lines:
        print(f"perfbench: run failed with code {run.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(f"run_wall_s {time.monotonic() - start:.3f}")
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
