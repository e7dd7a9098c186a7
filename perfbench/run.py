"""The singcat benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <node-tower|cone-homalg|toric-sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; nothing needs building beyond the
bytecode, which the run compiles first, off the clock, under
``.bench_build/pycache``.  Each round of a workload runs in its own fresh
interpreter (perfbench/worker.py), one after another, so every round starts
with cold caches, as ``singcat reproduce`` does.  With ``--trace 0`` the run
alternates a few set-up-only interpreters with whole rounds, at least one
and more while the next would end within ``--seconds``, and prints the
end-to-end metrics, corrected to a reference machine speed (speed.py).  With ``--trace 1`` it runs one round under the
span tracer and one under the call counter, and prints the per-layer
metrics.  The last line of standard output is the result object; progress
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("node-tower", "cone-homalg", "toric-sweep")
SETUP_PROBES = 4  # set-up-only interpreters before each round and at the end
ROUND_TIMEOUT_S = 170


class RoundError(RuntimeError):
    pass


def child_env():
    """The workers' environment: no SINGCAT_FIELD, no PYTHON* settings of
    the caller, and a fixed hash seed.  (The workers do not run with -I,
    which would ignore PYTHONHASHSEED and give every round another seed.)"""
    env = {k: v for k, v in os.environ.items()
           if k != "SINGCAT_FIELD" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(mode, workload, seed, ops=None, env=None):
    """Start one worker interpreter, wait for it, return its result."""
    spawned = perf_counter()
    argv = [sys.executable, "-s", str(BENCH / "worker.py"), mode, workload,
            str(seed), repr(spawned)] + ([str(ops)] if ops is not None else [])
    proc = subprocess.run(argv, cwd=ROOT, env=env or child_env(),
                          capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{mode} round of {workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def compile_sources():
    """Byte-compile singcat and the benchmark into the workers' cache, so
    that no round pays for compiling."""
    argv = [sys.executable, "-I", "-X",
            f"pycache_prefix={ROOT / '.bench_build' / 'pycache'}",
            "-m", "compileall", "-q", str(ROOT / "src" / "singcat"),
            str(BENCH)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundError(f"compiling the sources failed:\n{proc.stdout}"
                         f"{proc.stderr[-2000:]}")


def measure_rounds(workload, seed, seconds):
    """Whole rounds, at least one and more while the next would still end
    within `seconds`, with SETUP_PROBES set-up-only interpreters
    before each round and after the last, so that the set-up samples are
    spread over the whole run."""
    def probe():
        return [run_round("setup", workload, seed)
                for _ in range(SETUP_PROBES)]

    setups, rounds = [], []
    start = perf_counter()
    while True:
        setups += probe()
        t0 = perf_counter()
        rounds.append(run_round("measure", workload, seed))
        took = perf_counter() - t0
        log(f"{workload}: round {len(rounds)} took {took:.2f} s, "
            f"{sum(rounds[-1]['op_raw']):.3f} s in singcat, "
            f"{sum(rounds[-1]['op_times']):.3f} s at the reference speed")
        if perf_counter() - start + took > seconds:
            break
    setups += probe()
    return setups, rounds


def summarize(setups, rounds):
    """End-to-end metrics of a run.  The times are the workers' times at
    the reference machine speed (speed.py).  Every round repeats the same
    deterministic work, so each operation's time is its mean over the
    rounds.  wall_s is the mean round, the sum of these means; op_p50_s is
    their median over operations; setup_s is the median over the set-up-only
    interpreters and the rounds.  The same figures before the speed
    correction go to standard error."""
    setups = setups + rounds
    attempted = sum(len(r["op_times"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    for r in rounds:
        for f in r["failures"]:
            log(f"FAILED {f}")
    mean_op = [statistics.fmean(ts)
               for ts in zip(*(r["op_times"] for r in rounds))]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": (sum(mean_op), "s"),
        "op_p50_s": (statistics.median(mean_op), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    raw_op = [statistics.fmean(ts)
              for ts in zip(*(r["op_raw"] for r in rounds))]
    log("measured, before the speed correction: " + json.dumps({
        "setup_s": statistics.median(r["setup_raw_s"] for r in setups),
        "wall_s": sum(raw_op), "op_p50_s": statistics.median(raw_op)}))
    # every round computes the same exact answers
    correct = len({r["digest"] for r in rounds}) == 1
    return correct, attempted, failed, metrics


def trace(workload, seed):
    spans = run_round("spans", workload, seed)
    counts = run_round("counts", workload, seed)
    log(f"{workload}: span round: {sum(spans['op_times']):.3f} s in singcat, "
        f"{spans['spans']} spans in {spans['span_file']}; count round: "
        f"{sum(counts['op_times']):.3f} s")
    for f in spans["failures"] + counts["failures"]:
        log(f"FAILED {f}")
    layers = dict(spans["layers"], **counts["layers"])
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in sorted(layers.items())}
    # both passes must compute the same exact answers
    correct = spans["digest"] == counts["digest"]
    failed = {f["op"] for f in spans["failures"] + counts["failures"]}
    return correct, len(spans["op_times"]), len(failed), metrics


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "singcat" / "__init__.py").is_file():
        log(f"no singcat sources under {ROOT / 'src'}; run from a checkout")
        return 2
    try:
        compile_sources()
        if args.trace:
            correct, attempted, failed, metrics = trace(args.workload,
                                                        args.seed)
        else:
            correct, attempted, failed, metrics = summarize(
                *measure_rounds(args.workload, args.seed, args.seconds))
    except (RoundError, subprocess.TimeoutExpired) as exc:
        log(str(exc))
        return 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
