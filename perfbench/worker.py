"""One fresh interpreter running one workload round; started by run.py.

    python3 -s perfbench/worker.py <mode> <workload> <seed> <spawned at> [ops]

Modes: ``setup`` only imports ``singcat`` and builds the inputs; ``measure``
also runs every operation untraced; ``spans`` runs them under the span
tracer; ``counts`` runs them under the call counter.  ``spawned at`` is the
parent's ``time.perf_counter()`` just before it started this process (the
same system-wide monotonic clock), so set-up time includes interpreter
start.  ``ops`` keeps only the first that many operations.  The last line
of standard output is one JSON object with the round's results.

In ``setup`` and ``measure`` modes the times are corrected to the reference
machine speed (see speed.py); the measured times are reported next to them
as ``setup_raw_s`` and ``op_raw``.
"""

import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def main(argv):
    mode, workload, seed, spawned = argv[0], argv[1], int(argv[2]), float(argv[3])
    limit = int(argv[4]) if len(argv) > 4 else None
    sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    tracer = counter = None
    if mode == "spans":
        from tracer import SpanTracer
        tracer = SpanTracer()
        tracer.install_import_spans()
    elif mode == "counts":
        from tracer import CallCounter
        counter = CallCounter()

    def setup():
        import singcat  # noqa: F401  (the whole package, as users load it)
        if tracer:
            tracer.install()
        if counter:
            counter.install()
        import workloads
        return workloads.build(workload, seed)

    ops = tracer.root("setup", setup) if tracer else setup()
    setup_s = perf_counter() - spawned
    if limit is not None:
        ops = ops[:limit]
    out = {"setup_s": setup_s}
    probe = None
    if mode in ("setup", "measure"):
        from speed import SETUP_BURST, SpeedProbe
        probe = SpeedProbe()
        for _ in range(SETUP_BURST):
            probe.probe()
        out.update(setup_s=setup_s * probe.factor(), setup_raw_s=setup_s)
    if mode != "setup":
        out.update(run_ops(ops, tracer, probe))
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "spans":
        out["layers"] = tracer.metrics()
        trace_dir = ROOT / ".bench_build" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{workload}-seed{seed}.jsonl"
        tracer.write(path)
        out["spans"] = len(tracer.spans)
        out["span_file"] = str(path.relative_to(ROOT))
    elif mode == "counts":
        out["layers"] = counter.metrics()
    print(json.dumps(out))


def run_ops(ops, tracer, probe):
    """Time each operation's calls into singcat; check its outputs after
    the clock stops.  With a speed probe, each time is also corrected to
    the reference speed by the probes taken during and around it."""
    times, failures, digest = [], [], hashlib.sha256()
    spans = []
    if probe:
        probe.start()
    for label, call, check in ops:
        spent = probe.spent if probe else 0.0
        t0 = perf_counter()
        try:
            result = tracer.root(label, call) if tracer else call()
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        spans.append((t0, t1))
        times.append(t1 - t0 - ((probe.spent - spent) if probe else 0.0))
        if error:
            failures.append({"op": label, "error": error})
            continue
        try:
            problems = check(result)
        except Exception:
            problems = [f"the check raised: {traceback.format_exc(limit=3)}"]
        if problems:
            failures.append({"op": label, "problems": problems})
        else:
            digest.update(f"{label}={result!r}\n".encode())
    out = {"op_times": times, "failures": failures,
           "digest": digest.hexdigest()}
    if probe:
        probe.stop()
        out["op_raw"] = times
        out["op_times"] = [t * probe.factor(t0, t1)
                           for t, (t0, t1) in zip(times, spans)]
        out["probes"] = len(probe.durations)
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
