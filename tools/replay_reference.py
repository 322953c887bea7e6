#!/usr/bin/env python3
"""Replay every call stored in perfbench/reference.json and report how far
this checkout's outputs sit from it.

    python3 tools/replay_reference.py [--workload NAME ...]

BLAS is pinned to one thread before numpy is imported, as in a benchmark
run.  Each workload (default: all) runs its warm-up and every stored
seed-0 call through `bench.run_call`.  Per workload the script prints how
many values lie above `bench.REL_TOL` relative, how many output units fail
`bench.matches`, and the worst relative deviation with its call and key.
It exits 1 if any unit fails `bench.matches`, the check every benchmark
run makes, so the tolerance is applied by the benchmark's own code.  The
benchmark's files are imported, never written.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from run import import_bench, pin_blas_threads  # noqa: E402


def deviation(a, b) -> float:
    """Relative deviation |a - b| / max(|a|, |b|), for the report only: 0
    when equal, inf for unequal strings or non-finite values."""
    if a == b:
        return 0.0
    if isinstance(a, str) or isinstance(b, str) \
            or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(bench, label: str, units: list, ref_units: list):
    """(units failing `bench.matches`, values `bench._close` rejects,
    [(deviation, where)] per value) of one call against its reference."""
    if len(units) != len(ref_units):
        return 1, 1, [(math.inf, f"{label}: {len(units)} units, "
                                 f"reference {len(ref_units)}")]
    failed = above = 0
    devs = []
    for i, (unit, ref) in enumerate(zip(units, ref_units)):
        failed += not bench.matches(unit, ref)
        name = ref.get("row", f"trial {i}")
        for key in unit.keys() | ref.keys():
            where = f"{label} {name} {key}"
            if key not in unit or key not in ref:
                above += 1
                devs.append((math.inf, where + " (key missing)"))
            else:
                above += not bench._close(unit[key], ref[key])
                devs.append((deviation(unit[key], ref[key]), where))
    return failed, above, devs


def replay(bench, ctx, name: str, reference: dict) -> int:
    """Print one workload's line; return its count of units failing the
    benchmark's reference check."""
    wl = bench.WORKLOADS[name]
    t0 = time.perf_counter()
    results = [compare(bench, "warm-up", bench.warm_up(ctx, wl),
                       reference["warmup"])]
    with bench.TrialRecorder(wl.trial_fn) as rec:
        for k, ref_units in enumerate(reference["calls"]):
            units = bench.run_call(ctx, wl, wl.kwargs,
                                   bench.master_seed(bench.DEFAULT_SEED, k),
                                   rec)
            results.append(compare(bench, f"call {k}", units, ref_units))
    failed = sum(r[0] for r in results)
    above = sum(r[1] for r in results)
    devs = [d for r in results for d in r[2]]
    worst, where = max(devs, key=lambda d: d[0])
    print(f"{name:>7}: {len(reference['calls'])} calls + warm-up, "
          f"{len(devs)} values, {above} above {bench.REL_TOL:g}, "
          f"{failed} units failing, worst {worst:.3g}"
          + (f" at {where}" if worst > 0 else "")
          + f"  ({time.perf_counter() - t0:.0f} s)", flush=True)
    return failed


def main(argv=None) -> int:
    pin_blas_threads()
    bench = import_bench()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=list(bench.WORKLOADS),
                    help="replay only this workload (repeatable)")
    args = ap.parse_args(argv)
    reference = bench.load_reference()
    ctx = bench.make_context()
    failed = sum(replay(bench, ctx, name, reference[name])
                 for name in args.workload or bench.WORKLOADS)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
