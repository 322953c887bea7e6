#!/usr/bin/env python3
"""Benchmark of the jcs-music Monte Carlo trial pipeline, one workload per
process.

    python3 perfbench/run.py --workload sense --seed 3 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
runs the same calls untraced for half of --seconds, then traced for the
other half, and reports the per-layer metrics.  The last line of standard
output is the result; the line before it is a report with the checks,
the environment and (traced) the full per-function table.  BLAS is pinned
to one thread before numpy is imported.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREADS = "1"
SETUP_SAMPLES = 5


def pin_blas_threads() -> None:
    # On two cores, default OpenBLAS threading doubles CPU time for about
    # 15% more throughput and hides the program's own parallelism in
    # harness.cpu_per_wall (see README.md).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_bench():
    """Import the benchmark (and so numpy and jcs_music) from this checkout."""
    if not (SRC / "jcs_music" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no jcs_music package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    import jcs_music
    if not Path(jcs_music.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: jcs_music imported from "
                         f"{jcs_music.__file__}, not from {SRC}")
    return bench


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import, bind and warm-up, print it, exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    pin_blas_threads()
    bench = import_bench()
    if args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]
    ctx = bench.make_context()
    warm = bench.warm_up(ctx, wl)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = bench.load_reference()
    tally = bench.CheckTally()
    tally.check(warm, reference[wl.name]["warmup"])
    report = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}

    if args.trace:
        untraced = bench.run_pass(ctx, wl, args.seed, args.seconds / 2)
        tracer = bench.tracing.Tracer()
        traced = bench.run_pass(ctx, wl, args.seed, args.seconds / 2, tracer)
        for res in (untraced, traced):
            bench.check_pass(tally, wl, args.seed, res, reference)
        bench.check_traced(tally, untraced, traced)
        values = bench.layer_metrics(tracer, untraced, traced)
        metrics = {name: _metric(v, bench.LAYER_UNITS[name])
                   for name, v in values.items()}
        report.update(
            trials={"untraced": untraced.trials, "traced": traced.trials},
            missing=bench.missing_layers(),
            unobserved=sorted(tracer.unobserved),
            layers=bench.tracing.layer_table(tracer.spans))
    else:
        res = bench.run_pass(ctx, wl, args.seed, args.seconds)
        rss = bench.peak_rss_mb()
        bench.check_pass(tally, wl, args.seed, res, reference)
        setups = [setup_s] + bench.setup_samples(wl.name, SETUP_SAMPLES - 1)
        trial_ms = [1e3 * s for s in res.trial_s]
        metrics = {
            "trials_per_s": _metric(res.trials_per_s, "1/s"),
            "trial_ms_p50": _metric(bench.percentile(trial_ms, 50), "ms"),
            "trial_ms_p90": _metric(bench.percentile(trial_ms, 90), "ms"),
            "peak_rss_mb": _metric(rss, "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
        report.update(trials=res.trials, trial_samples=len(trial_ms),
                      setup_samples_s=setups)

    report.update(checks={**vars(tally),
                          "fail_rate": tally.failed / tally.attempted},
                  env=bench.environment())
    for name, m in metrics.items():
        print(f"{wl.name:>7} {name:<42} {m['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{wl.name:>7} {'fail_rate':<42} "
          f"{report['checks']['fail_rate']:>14.6g} ratio", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
