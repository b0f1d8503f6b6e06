#!/usr/bin/env python3
"""Builds bench_coradd from the source checkout and runs one workload.

    python3 bench/coradd/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ at the root of the checkout. The benchmark
runs with CORADD_THREADS=4 and without CORADD_TRACE (the program's own
tracer stays off). With --trace 1 its spans are written to
.bench_build/trace-<workload>-<seed>.json. The last line of standard output
is one JSON object: correct, attempted, failed, and the end-to-end metrics
named in BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
Build output and the benchmark's own messages go to standard error.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_coradd"


def run_timeout(seconds):
    """How long the benchmark may take: --seconds of serving, plus set-up,
    two design passes and the warm-up, which take the same whatever
    --seconds is."""
    return 3 * seconds + 60


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(ROOT / "bench" / "coradd"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("configuring the build failed")
    command = ["cmake", "--build", str(BUILD), "-j", "4"]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
        fail("building bench_coradd failed")


def main():
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # build or benchmark it is waiting for before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env.pop("CORADD_TRACE", None)
    env["CORADD_THREADS"] = "4"
    env["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    build(env)

    command = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}"]
    if args.trace:
        command.append(f"--trace={BUILD / f'trace-{args.workload}-{args.seed}.json'}")
    timeout = run_timeout(args.seconds)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"bench_coradd did not finish within {timeout:g} s", 3)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"bench_coradd printed no result (exit code {done.returncode})", 3)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"bench_coradd's last line is not JSON: {lines[-1]!r}", 3)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} is missing, non-finite or not in {m['unit']}: {got}", 3)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
