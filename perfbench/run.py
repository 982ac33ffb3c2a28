#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload warm_hot|azure_mix|sim_fleet \\
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the optimus
libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when unset; later
runs only check that the build is current.

The workload then runs as SHARDS processes in turn, each for an equal part of
the window, with its own set-up and a seed salted by its shard number. Every
metric is the median of the shards' values, or, for a timing measured over
windows (open-loop latency and SLO attainment, closed-loop throughput, the
simulator's passes), the quantile each shard states (its best decile) of all
the shards' windows: a run that lands on a slow stretch of a shared machine,
or on an unlucky process layout, moves one shard or some windows, not the
result. The shards' reports are passed through; the last line is the merged
JSON result.
Any shard that fails a check fails the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHARDS = 4
# A shard measures seconds / SHARDS; its set-up (references, model builds,
# deploys, warm-up) and its checks get this much on top.
SHARD_SETUP_ALLOWANCE_S = 30


def quantile(values, q):
    """Linearly interpolated quantile, as perfbench's own Quantile()."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] * (1 - (position - below)) + ordered[above] * (position - below)


def cpu_times():
    """The host's aggregate CPU jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of the VM's CPU time the hypervisor withheld (steal) in between.

    Steal slows every thread of a shard at once; the runs that read slow on a
    shared host are the ones with steal, so each shard prints it."""
    if before is None or after is None or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["warm_hot", "azure_mix", "sim_fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    results = []
    ok = True
    timeout = args.seconds / SHARDS + SHARD_SETUP_ALLOWANCE_S
    for shard in range(SHARDS):
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / SHARDS), "--trace", str(args.trace),
                   "--shard", str(shard)]
        before = cpu_times()
        try:
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: shard {shard} exceeded {timeout:g}s", file=sys.stderr)
            return 1
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        steal = steal_share(before, cpu_times())
        if steal is not None:
            print(f"shard {shard}: host CPU steal {steal:.2%} of the VM's CPU time")
        try:
            results.append(json.loads(lines[-1]))
        except ValueError:
            print(f"perfbench: shard {shard} printed no result", file=sys.stderr)
            return 1
        ok = ok and child.returncode == 0 and results[-1]["correct"]

    metrics = {}
    windows = results[0].get("windows", {})
    for name, metric in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        metrics[name] = {"value": quantile(values, 0.5), "unit": metric["unit"]}
    for name, window in windows.items():
        pooled = [v for result in results for v in result["windows"][name]["values"]]
        metrics[name]["value"] = quantile(pooled, window["q"])
    print(json.dumps({
        "correct": ok,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
