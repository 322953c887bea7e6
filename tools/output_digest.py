#!/usr/bin/env python3
"""Print two SHA-256 digests of the full-precision outputs of every sweep.

    python3 tools/output_digest.py [--seeds 0 5] [--dump FILE | --against FILE]

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

A change meant to move outputs by rounding only is compared record by
record.  `--dump FILE`, in the parent's checkout, writes the records the
estimates digest hashes as JSON, each with the call's name and the sweep
it ran in, at full precision.  `--against FILE`, in the change's, prints
per estimator and trial function the worst relative value and objective
move with where it is, the counts of changed iteration, converged and
source-count fields, and the first record that differs at all.  It
exits 1 on a count or length mismatch: another number of records,
estimates or values, or another source count.

BLAS is pinned to one thread before numpy is imported, and `jcs_music` is
imported from this checkout's `src/`.  The digests depend on the machine's
BLAS and CPU, so compare digests made on one machine only.
"""

import argparse
import hashlib
import json
import math
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


# (name, call) of every sweep, each run per master seed and speed of light
TABLES = (
    ("mse-estimated", lambda ctx, seed: harness.run_sweep_mse(
        ctx, SENSE_GRID, TRIALS, seed)),
    ("mse-true", lambda ctx, seed: harness.run_sweep_mse(
        ctx, SENSE_GRID, TRIALS, seed, use_true_beam=True)),
    ("ber", lambda ctx, seed: harness.run_sweep_ber(
        ctx, LINK_GRID, TRIALS, seed)),
    ("theory", lambda ctx, seed: harness.validate_theory(
        ctx, SENSE_GRID, TRIALS, seed, n_draws=200)),
    ("crb", lambda ctx, seed: harness.crb_table(ctx, SENSE_GRID, seed)),
)
ESTIMATORS = ("music_aoa", "music_range", "music_doppler")
TRIALS_FNS = ("sensing_trial", "ber_trial")


def _hex(x) -> str:
    """Full-precision text of a number or of each number in an array."""
    return " ".join(float(v).hex() for v in np.ravel(x))


def _floats(x) -> list:
    return [float(v) for v in np.ravel(x)]


def _estimates(out) -> dict:
    estimates, decomposition = out
    return {"estimates": [{"value": _floats(e.value),
                           "objective": float(e.objective),
                           "iterations": e.iterations,
                           "converged": e.converged} for e in estimates],
            "source_count": decomposition.source_count}


def _trial(result: dict, prefix: str = "") -> dict:
    """The trial dict flattened to {dotted key: floats}, in its order."""
    flat = {}
    for k, v in result.items():
        if isinstance(v, dict):
            flat.update(_trial(v, f"{prefix}{k}."))
        else:
            flat[f"{prefix}{k}"] = _floats(v)
    return flat


def _text(record: dict) -> str:
    """What the estimates digest hashes of one record."""
    if "estimates" in record:
        return repr(([(_hex(e["value"]), _hex(e["objective"]),
                       e["iterations"], e["converged"])
                      for e in record["estimates"]], record["source_count"]))
    return " ".join(f"{k}={_hex(v)}" for k, v in record["trial"].items())


class Recorder:
    """Rebinds the harness's estimators and trial estimates so that each
    call also hashes its name and what it returns into `digest` and keeps
    the record, tagged with the sweep it ran in (`where`)."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.records: list[dict] = []
        self.where = ""
        for name in ESTIMATORS:
            self._wrap(name, _estimates)
        for name in TRIALS_FNS:
            self._wrap(name, lambda out: {"trial": _trial(out)})

    def _wrap(self, name, record):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            rec = {"call": name, "where": self.where, **record(out)}
            self.digest.update(f"{name} {_text(rec)}\n".encode())
            self.records.append(rec)
            return out
        setattr(harness, name, wrapper)


def deviation(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 when equal (NaN equals NaN), inf for
    unequal non-finite values."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _row() -> dict:
    return {"records": 0, "items": 0, "value": (0.0, ""),
            "objective": (0.0, ""), "iterations": 0, "converged": 0,
            "source_count": 0}


def _worst(row: dict, field: str, olds, news, where: str) -> None:
    """Keep in row[field] the largest deviation of news from olds."""
    for a, b in zip(olds, news):
        dev = deviation(a, b)
        if dev > row[field][0]:
            row[field] = (dev, where)


def compare(old: list, new: list) -> int:
    """Print the moves of `new` against `old`, record by record, and the
    first record that differs; return 1 on a count or length mismatch."""
    rows, mismatches, first = {}, [], None
    if len(old) != len(new):
        mismatches.append(f"{len(new)} records, {len(old)} in the dump")
    for i, (o, n) in enumerate(zip(old, new)):
        where = f"record {i}: {n['call']} in {n['where']}"
        if first is None and o != n:
            first = where
        if (o["call"], o["where"]) != (n["call"], n["where"]):
            mismatches.append(f"{where}, the dump has {o['call']} in "
                              f"{o['where']}")
            break
        row = rows.setdefault(n["call"], _row())
        row["records"] += 1
        if "trial" in n:
            if {k: len(v) for k, v in o["trial"].items()} != \
                    {k: len(v) for k, v in n["trial"].items()}:
                mismatches.append(f"{where}: trial keys or lengths differ")
                continue
            for k, v in n["trial"].items():
                row["items"] += len(v)
                _worst(row, "value", o["trial"][k], v, f"{where}, {k}")
            continue
        if o["source_count"] != n["source_count"]:
            row["source_count"] += 1
            mismatches.append(f"{where}: source count {n['source_count']}, "
                              f"{o['source_count']} in the dump")
        if len(o["estimates"]) != len(n["estimates"]):
            mismatches.append(f"{where}: {len(n['estimates'])} estimates, "
                              f"{len(o['estimates'])} in the dump")
            continue
        for j, (eo, en) in enumerate(zip(o["estimates"], n["estimates"])):
            at = f"{where}, estimate {j}"
            if len(eo["value"]) != len(en["value"]):
                mismatches.append(f"{at}: value lengths differ")
                continue
            row["items"] += 1
            _worst(row, "value", eo["value"], en["value"], at)
            _worst(row, "objective", [eo["objective"]], [en["objective"]], at)
            row["iterations"] += eo["iterations"] != en["iterations"]
            row["converged"] += eo["converged"] != en["converged"]
    print(f"{'call':<14} {'records':>7} {'items':>6} {'worst rel value':>15} "
          f"{'worst rel objective':>19} {'iterations':>10} {'converged':>9} "
          f"{'source counts':>13}")
    for name, row in rows.items():
        print(f"{name:<14} {row['records']:>7} {row['items']:>6} "
              f"{row['value'][0]:>15.3g} {row['objective'][0]:>19.3g} "
              f"{row['iterations']:>10} {row['converged']:>9} "
              f"{row['source_count']:>13}")
    for name, row in rows.items():
        for field in ("value", "objective"):
            dev, at = row[field]
            if dev > 0:
                print(f"worst {field} move of {name}: {dev:.3g} at {at}")
    print(f"first difference: {first}" if first else
          "no record differs from the dump")
    for m in mismatches:
        print(f"mismatch: {m}")
    return 1 if mismatches else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0],
                    help="master seeds to hash (default: 0)")
    ap.add_argument("--dump", metavar="FILE",
                    help="write the records the estimates digest hashes, "
                         "at full precision, to FILE (JSON)")
    ap.add_argument("--against", metavar="FILE",
                    help="compare the records with those --dump wrote to "
                         "FILE; exit 1 on a count or length mismatch")
    args = ap.parse_args()
    t0 = time.perf_counter()
    contexts = [(label, bind(load_config(overrides=overrides)))
                for label, overrides in CONSTANTS]
    digest, recorder = hashlib.sha256(), Recorder()
    for seed in args.seeds:
        for label, ctx in contexts:
            for name, sweep in TABLES:
                recorder.where = f"{name} {label} seed {seed}"
                table = sweep(ctx, seed)
                digest.update(f"{name} {label} {seed}\n".encode())
                for r in table.rows:
                    digest.update(repr((r.sinr_db, r.metric, r.series,
                                        float(r.value).hex(),
                                        float(r.ci).hex())).encode())
            recorder.where = f"spectrum {label} seed {seed}"
            digest.update(f"spectrum {label} {seed}\n".encode())
            snap = harness.spectrum_snapshot(ctx, master_seed=seed)
            for key in sorted(snap):
                val = snap[key]
                digest.update(key.encode())
                digest.update(val.tobytes() if isinstance(val, np.ndarray)
                              else float(val).hex().encode())
    seeds = " ".join(map(str, args.seeds))
    print(f"{digest.hexdigest()}  rows, seeds {seeds}")
    print(f"{recorder.digest.hexdigest()}  estimates, seeds {seeds}, "
          f"{time.perf_counter() - t0:.1f} s")
    if args.dump:
        Path(args.dump).write_text(json.dumps(recorder.records))
    if args.against:
        return compare(json.loads(Path(args.against).read_text()),
                       recorder.records)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
