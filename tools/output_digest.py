#!/usr/bin/env python3
"""Print two SHA-256 digests of the full-precision outputs of every sweep.

    python3 tools/output_digest.py [--seeds 0 5]

A change meant to leave the outputs byte-identical must print the same
two digests as its parent on the same machine (run the script in a
checkout of each).  Per master seed (default: 0), and per speed of light
(the exact value, then the config's `{"legacy_c": true}`), it runs
`run_sweep_mse` in both beam modes, `run_sweep_ber`, `validate_theory`
(n_draws=200) and `crb_table`, each on 2 points x 3 trials, then
`spectrum_snapshot`.

- The rows digest hashes each table's rows as (sinr, metric, series,
  value.hex(), ci.hex()), then the bytes of every `spectrum_snapshot`
  array and the hex of its scalars.
- The estimates digest hashes what the harness's calls return, in call
  order: every `music_aoa`, `music_range` and `music_doppler` estimate
  (value, objective, iterations, converged) with the source count, and
  every `sensing_trial` and `ber_trial` dict in float hex.  A move of one
  estimate shows here even where the aggregated rows round it away.  The
  harness makes all of these calls on its calling thread, so their order
  is fixed.

BLAS is pinned to one thread before numpy is imported, and `jcs_music` is
imported from this checkout's `src/`.  The digests depend on the machine's
BLAS and CPU, so compare digests made on one machine only.
"""

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from jcs_music import bind, harness, load_config  # noqa: E402

SENSE_GRID = [0.0, 10.0]
LINK_GRID = [10.0, 20.0]
TRIALS = 3
# (label, config overrides) of each speed of light the digests cover
CONSTANTS = (("exact-c", {}), ("legacy-c", {"legacy_c": True}))


def tables(ctx, seed: int):
    """(name, ResultTable) of every sweep at one master seed."""
    yield "mse-estimated", harness.run_sweep_mse(ctx, SENSE_GRID, TRIALS, seed)
    yield "mse-true", harness.run_sweep_mse(ctx, SENSE_GRID, TRIALS, seed,
                                            use_true_beam=True)
    yield "ber", harness.run_sweep_ber(ctx, LINK_GRID, TRIALS, seed)
    yield "theory", harness.validate_theory(ctx, SENSE_GRID, TRIALS, seed,
                                            n_draws=200)
    yield "crb", harness.crb_table(ctx, SENSE_GRID, seed)


def _hex(x) -> str:
    """Full-precision text of a number or of each number in an array."""
    return " ".join(float(v).hex() for v in np.ravel(x))


def _estimates(out) -> str:
    estimates, decomposition = out
    return repr(([(_hex(e.value), _hex(e.objective), e.iterations,
                   e.converged) for e in estimates],
                 decomposition.source_count))


def _trial(result: dict, prefix: str = "") -> str:
    return " ".join(_trial(v, f"{prefix}{k}.") if isinstance(v, dict)
                    else f"{prefix}{k}={_hex(v)}" for k, v in result.items())


def record_estimates(digest) -> None:
    """Rebind the harness's estimators and trial estimates so that each
    call also hashes its name and what it returns into `digest`."""
    def recording(name, encode):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            digest.update(f"{name} {encode(out)}\n".encode())
            return out
        setattr(harness, name, wrapper)

    for name in ("music_aoa", "music_range", "music_doppler"):
        recording(name, _estimates)
    for name in ("sensing_trial", "ber_trial"):
        recording(name, _trial)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0],
                    help="master seeds to hash (default: 0)")
    args = ap.parse_args()
    t0 = time.perf_counter()
    contexts = [(label, bind(load_config(overrides=overrides)))
                for label, overrides in CONSTANTS]
    digest, estimates = hashlib.sha256(), hashlib.sha256()
    record_estimates(estimates)
    for seed in args.seeds:
        for label, ctx in contexts:
            for name, table in tables(ctx, seed):
                digest.update(f"{name} {label} {seed}\n".encode())
                for r in table.rows:
                    digest.update(repr((r.sinr_db, r.metric, r.series,
                                        float(r.value).hex(),
                                        float(r.ci).hex())).encode())
            digest.update(f"spectrum {label} {seed}\n".encode())
            snap = harness.spectrum_snapshot(ctx, master_seed=seed)
            for key in sorted(snap):
                val = snap[key]
                digest.update(key.encode())
                digest.update(val.tobytes() if isinstance(val, np.ndarray)
                              else float(val).hex().encode())
    seeds = " ".join(map(str, args.seeds))
    print(f"{digest.hexdigest()}  rows, seeds {seeds}")
    print(f"{estimates.hexdigest()}  estimates, seeds {seeds}, "
          f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
