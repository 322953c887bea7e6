"""Command line front end: configured sweeps, snapshots, and bound tables
emitted as CSV plus a companion plot script."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import harness, qam
from .channel import db_to_power
from .config import ConfigError, bind, load_config


def _int_at_least(low: int):
    """argparse type: a decimal integer >= low."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _finite_float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return val


def _finite_db(text: str) -> float:
    """argparse type: a dB value whose power 10^(x/10) is a finite float."""
    val = _finite_float(text)
    if not math.isfinite(db_to_power(val)):
        raise argparse.ArgumentTypeError(
            f"expected a dB value with a finite linear power, got {text!r}")
    return val


def _add_common(p: argparse.ArgumentParser, sinr_type=float,
                sinr_help="SINR grid in dB (overrides the config grid)"
                ) -> None:
    p.add_argument("--config", help="JSON config file overlaying the defaults")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="master seed")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--legacy-c", action="store_true",
                   help="use c = 3e8 m/s instead of the exact value")
    p.add_argument("--sinr", type=sinr_type, nargs="+", help=sinr_help)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jcs-music",
        description="Simulation harness for subspace-based OFDM sensing "
                    "with an on-grid FFT baseline and CSI enhancement.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-mse", help="AoA/range/velocity/location MSE "
                                         "sweep over sensing SINR")
    _add_common(p)
    p.add_argument("--true-beam", action="store_true",
                   help="beamform at the true AoA instead of the estimate")

    p = sub.add_parser("sweep-ber", help="BER sweep over link SINR for the "
                                         "four CSI cases")
    # a C-SINR grid, which no config key holds: checked here, not as a key
    _add_common(p, sinr_type=_finite_db,
                sinr_help="C-SINR grid in dB (default 10 to 30 in 5 dB steps)")
    p.add_argument("--mue-x", type=_finite_float, default=75.0,
                   help="pinned user x coordinate of the link sweep "
                        "(scenario.mue_x sets the sensing sweeps only)")
    p.add_argument("--qam-order", type=int, default=64, choices=qam.ORDERS,
                   help="QAM order of the link sweep (waveform.qam_order "
                        "sets the sensing sweeps only)")

    p = sub.add_parser("spectrum", help="single-shot range/velocity spectra "
                                        "with PSLR")
    _add_common(p, sinr_help="S-SINR in dB, one value (default -20)")
    p.add_argument("--pad", type=_int_at_least(1), default=8,
                   help="FFT zero-pad factor")
    p.add_argument("--scatterers", type=int, default=None,
                   help="override the configured scatterer count")

    p = sub.add_parser("crb", help="closed-form bound table over SINR")
    _add_common(p)

    p = sub.add_parser("validate-theory", help="simulated MSEs next to "
                                               "perturbation predictions")
    _add_common(p)
    p.add_argument("--draws", type=_int_at_least(1), default=1000,
                   help="noise draws for the analytic prediction")

    p = sub.add_parser("resolution", help="print baseline range/velocity "
                                          "bin widths")
    p.add_argument("--config", help="JSON config file overlaying the defaults")
    p.add_argument("--legacy-c", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "spectrum" and len(args.sinr or ()) > 1:
        print("error: --sinr: spectrum takes one value", file=sys.stderr)
        return 2
    # config flags are checked as the config keys they stand for
    sweep, scenario = {}, {}
    if getattr(args, "trials", None) is not None:
        sweep["trials"] = args.trials
    if getattr(args, "sinr", None) is not None and \
            args.command != "sweep-ber":
        sweep["sinr_grid_db"] = args.sinr
    if getattr(args, "scatterers", None) is not None:
        scenario["n_scatterers"] = args.scatterers
    overrides = {"sweep": sweep, "scenario": scenario}
    if args.legacy_c:
        overrides["legacy_c"] = True
    try:
        ctx = bind(load_config(args.config, overrides=overrides))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "resolution":
            dr, dv = harness.resolution_constants(ctx)
            print(json.dumps({"range_bin_m": dr, "velocity_bin": dv}))
            return 0

        if args.command == "sweep-mse":
            table = harness.run_sweep_mse(ctx, master_seed=args.seed,
                                          use_true_beam=args.true_beam)
        elif args.command == "sweep-ber":
            table = harness.run_sweep_ber(ctx, csinr_grid=args.sinr,
                                          master_seed=args.seed,
                                          mue_x=args.mue_x,
                                          qam_order=args.qam_order)
        elif args.command == "crb":
            table = harness.crb_table(ctx, master_seed=args.seed)
        elif args.command == "validate-theory":
            table = harness.validate_theory(ctx, master_seed=args.seed,
                                            n_draws=args.draws)
        elif args.command == "spectrum":
            sinr = args.sinr[0] if args.sinr else -20.0
            snap = harness.spectrum_snapshot(ctx, sinr_db=sinr,
                                             master_seed=args.seed,
                                             pad=args.pad)
            rows = [harness.ResultRow(sinr, "pslr", k.replace("_pslr_db", ""),
                                      snap[k], 0.0, 1, args.seed)
                    for k in ("music_range_pslr_db", "music_velocity_pslr_db",
                              "fft_range_pslr_db", "fft_velocity_pslr_db")]
            table = harness.ResultTable(rows)
            out = harness.emit_results(table, args.out, name="pslr")
            npz = f"{args.out}/spectra.npz"
            np.savez(npz, **{k: v for k, v in snap.items()
                             if isinstance(v, np.ndarray)})
            print("\n".join(str(p) for p in out + [npz]))
            return 0
        else:  # pragma: no cover
            raise AssertionError(args.command)
        paths = harness.emit_results(table, args.out)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 1
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(str(p) for p in paths))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
