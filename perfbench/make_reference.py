#!/usr/bin/env python3
"""Write reference.json: the default-seed outputs of every workload.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted; every benchmark run
compares against this file at REL_TOL relative.  It stores, per workload,
the warm-up call and the first REFERENCE_CALLS measured calls of a run
with the default seed.
"""

import json
import sys

from run import import_bench, pin_blas_threads

# about 1.5 times the calls a 30-second run makes on a 2-core x86 box
REFERENCE_CALLS = {"sense": 150, "link": 45, "theory": 4}


def main() -> int:
    pin_blas_threads()
    bench = import_bench()
    ctx = bench.make_context()
    out = {"meta": {"seed": bench.DEFAULT_SEED,
                    "seed_stride": bench.SEED_STRIDE,
                    "env": bench.environment()}}
    for name, wl in bench.WORKLOADS.items():
        calls = []
        with bench.TrialRecorder(wl.trial_fn) as rec:
            for k in range(REFERENCE_CALLS[name]):
                calls.append(bench.run_call(
                    ctx, wl, wl.kwargs, bench.master_seed(bench.DEFAULT_SEED, k),
                    rec))
        out[name] = {"warmup": bench.warm_up(ctx, wl), "calls": calls}
        print(f"{name}: {len(calls)} calls", file=sys.stderr)
    bench.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
