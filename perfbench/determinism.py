"""Check that the per-layer counts are exact: two short traced passes of each
workload, under different hash seeds, must give identical counts.

    python3 perfbench/determinism.py [--workload NAME]

A short pass keeps the first few operations of a workload (see SHORT).
Exits 0 when every count agrees, 1 otherwise; the times (``*.self_s``) are
not compared.
"""

from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, child_env, run_round

# operations kept per short pass: two tower levels, the section 4 claims,
# the four quick projective-cone claims
SHORT = {"node-tower": 2, "cone-homalg": 6, "toric-sweep": 4}


def counts(workload, hash_seed):
    env = dict(child_env(), PYTHONHASHSEED=str(hash_seed))
    out = {}
    for mode in ("spans", "counts"):
        result = run_round(mode, workload, 1, ops=SHORT[workload], env=env)
        if result["failures"]:
            raise SystemExit(f"{workload}: failed operations "
                             f"{result['failures']}")
        out.update((k, v) for k, v in result["layers"].items()
                   if not k.endswith("_s"))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args(argv)
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        first, second = counts(workload, 0), counts(workload, 1)
        differ = {k: (first[k], second[k]) for k in first
                  if first[k] != second[k]}
        ok = ok and not differ
        print(f"{workload}: {len(first)} counts, "
              + (f"DIFFER {differ}" if differ else "identical"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
