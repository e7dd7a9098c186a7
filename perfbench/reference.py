"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py [--seeds 1,2,...] [--workload NAME]

For each workload it runs the benchmark command once per seed untraced and
once traced, and prints a machine fingerprint, the median and the quartile
spread (distance between the first and third quartile as a share of the
median) of every end-to-end metric, also of the times as measured before
the speed correction, and the tracing overhead: the traced round's time in
singcat over the untraced median ``wall_s`` as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"{model}, {os.cpu_count()} cores, Python "
            f"{platform.python_version()}, {platform.system()} "
            f"{platform.release()}")


def bench(workload, seed, seconds, traced):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(traced))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def measured(log):
    """The figures before the speed correction, from a run's log."""
    line = [ln for ln in log.splitlines()
            if ln.startswith("measured, before the speed correction: ")][-1]
    return json.loads(line.split(": ", 1)[1])


def row(workload, name, vals, failed):
    median = statistics.median(vals)
    spread = "n/a"
    if len(vals) >= 2:
        q = statistics.quantiles(vals, n=4)
        spread = f"{(q[2] - q[0]) / median:.3f}"
    print(f"| {workload} | {name} | {median:.4g} | {spread} | "
          f"{', '.join(sorted(failed))} |", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"machine: {fingerprint()}")
    print("| workload | metric | median | quartile spread | ops failed |")
    print("| --- | --- | --- | --- | --- |")
    for workload in [args.workload] if args.workload else WORKLOADS:
        values, raw, failed = {}, {}, set()
        for seed in seeds:
            result, log = bench(workload, seed, seconds, traced=False)
            failed.add(f"{result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in measured(log).items():
                raw.setdefault(name, []).append(value)
        for name, vals in values.items():
            row(workload, name, vals, failed)
        for name, vals in raw.items():
            row(workload, f"{name} as measured", vals, failed)
        _result, log = bench(workload, seeds[0], seconds, traced=True)
        traced = float(re.search(r"span round: ([0-9.]+) s", log).group(1))
        overhead = traced / statistics.median(raw["wall_s"]) - 1
        print(f"| {workload} | tracing overhead | {overhead:+.1%} | "
              f"span round {traced:.2f} s | |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
