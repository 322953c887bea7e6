"""Workloads, output checks and metrics of the jcs-music trial benchmark.

Importing this module imports numpy, so a caller that pins the BLAS
thread count (run.py, make_reference.py) does so before the import.

Each workload drives one harness entry point at the shipped numerology
(array, waveform, scene) in calls of 2 to 120 trials.  Call k of a run with
seed s uses the harness master seed s * SEED_STRIDE + k, so a seed fixes
every input of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jcs_music import bind, harness, load_config

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
DEFAULT_SEED = 0
SEED_STRIDE = 1_000_000
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                 # harness function one call runs
    kwargs: dict               # its arguments besides ctx and master_seed
    trials_per_call: int
    units_per_call: int        # checked outputs per call
    trial_fn: str | None = None   # harness per-trial function, if any


WORKLOADS = {
    # estimated beam: the only workload through music_aoa; a fresh scene
    # every trial, so no work is shared between trials
    "sense": Workload(
        "sense", "run_sweep_mse",
        {"sinr_grid": [0.0, 10.0], "trials": 1, "use_true_beam": False},
        trials_per_call=2, units_per_call=2, trial_fn="sensing_trial"),
    # link side: synthesize_comm, Kalman enhancement and QAM demodulation;
    # bypasses music_aoa, music_doppler and theory
    "link": Workload(
        "link", "run_sweep_ber",
        {"csinr_grid": [10.0, 15.0, 20.0, 25.0, 30.0], "trials": 1,
         "mue_x": 75.0, "qam_order": 64},
        trials_per_call=5, units_per_call=5, trial_fn="ber_trial"),
    # one fixed scene and the true beam for all trials of a call, plus
    # perturbation_report per SINR point: the most work shared per call.
    # The shipped 200 trials per point would make one call about 90 s;
    # 40 trials per point keep a call near 18 s and the per-point work
    # near 8% of it (about 1.5% at 200 trials).
    "theory": Workload(
        "theory", "validate_theory",
        {"sinr_grid": [0.0, 5.0, 10.0], "trials": 40, "n_draws": 2000},
        trials_per_call=120, units_per_call=18),
}


def master_seed(seed: int, k: int) -> int:
    return seed * SEED_STRIDE + k


def make_context():
    return bind(load_config())


# ---------------------------------------------------------------- outputs

def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for key, val in d.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, name + "."))
        else:
            out[name] = float(val)
    return out


def _row_unit(row) -> dict:
    return {"row": f"{row.sinr_db!r} {row.metric} {row.series}",
            "value": float(row.value), "ci": float(row.ci),
            "trials": int(row.trials)}


class TrialRecorder:
    """Rebinds the harness's per-trial function to time every call and
    keep what it returns."""

    def __init__(self, fn_name: str | None):
        self.fn_name = fn_name
        self.times: list[float] = []
        self.outputs: list[dict] = []
        self._orig = None

    def __enter__(self):
        if self.fn_name is None:
            return self
        orig = self._orig = getattr(harness, self.fn_name)
        times, outputs, clock = self.times, self.outputs, time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            out = orig(*args, **kwargs)
            times.append(clock() - t0)
            outputs.append(out)
            return out

        setattr(harness, self.fn_name, timed)
        return self

    def __exit__(self, *exc):
        if self._orig is not None:
            setattr(harness, self.fn_name, self._orig)

    def clear(self):
        self.times.clear()
        self.outputs.clear()


def run_call(ctx, wl: Workload, kwargs: dict, seed: int,
             rec: TrialRecorder) -> list[dict]:
    """One harness call; its checked outputs as flat dicts (one per trial,
    or one per result row when the entry point has no per-trial call)."""
    rec.clear()
    table = getattr(harness, wl.entry)(ctx, master_seed=seed, **kwargs)
    if wl.trial_fn is not None:
        return [_flatten(o) for o in rec.outputs]
    return [_row_unit(r) for r in table.rows]


def warm_up(ctx, wl: Workload) -> list[dict]:
    """The call every run starts with, on the default seed: the workload's
    call with one trial per point, so it covers every SINR point and is
    compared to the reference on any seed.  It also fills the package's
    lazy caches and initialises BLAS.  For `sense` and `link` it is the
    workload's first call."""
    with TrialRecorder(wl.trial_fn) as rec:
        return run_call(ctx, wl, {**wl.kwargs, "trials": 1},
                        master_seed(DEFAULT_SEED, 0), rec)


# ----------------------------------------------------------------- checks

def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if a == b:
        return True
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= REL_TOL * max(abs(a), abs(b)))


def matches(unit: dict, ref: dict) -> bool:
    return unit.keys() == ref.keys() and all(
        _close(unit[k], ref[k]) for k in unit)


def valid(unit: dict) -> bool:
    """Invariants that hold on any seed: every output number is finite and
    non-negative (squared errors, BERs, CIs, bounds); BERs are at most 1."""
    for key, val in unit.items():
        if isinstance(val, str):
            continue
        if not (math.isfinite(val) and val >= 0.0):
            return False
        if key.startswith("case_") and val > 1.0:
            return False
    return True


@dataclass
class CheckTally:
    attempted: int = 0
    failed: int = 0
    by_reference: int = 0
    by_invariants: int = 0
    traced_mismatch: int = 0

    def check(self, units, ref_units=None, expected: int = 0) -> None:
        """Tally `units` (None: the call raised, `expected` units lost)."""
        if units is None:
            self.attempted += expected
            self.failed += expected
            return
        if ref_units is not None and len(ref_units) != len(units):
            self.attempted += max(len(units), len(ref_units))
            self.failed += max(len(units), len(ref_units))
            return
        for i, unit in enumerate(units):
            ok = valid(unit)
            if ref_units is not None:
                ok = ok and matches(unit, ref_units[i])
                self.by_reference += 1
            else:
                self.by_invariants += 1
            self.attempted += 1
            self.failed += not ok


# ------------------------------------------------------------------- runs

@dataclass
class PassResult:
    outputs: dict = field(default_factory=dict)   # call index -> units
    trial_s: list = field(default_factory=list)   # per-trial wall seconds
    trials: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.wall_s if self.wall_s else 0.0


def run_pass(ctx, wl: Workload, seed: int, seconds: float,
             tracer: tracing.Tracer | None = None) -> PassResult:
    """Calls k = 0, 1, ... until `seconds` of wall time have passed."""
    res = PassResult()
    with tracer or contextlib.nullcontext(), \
            TrialRecorder(wl.trial_fn) as rec:
        cpu0, t_start = time.process_time(), time.perf_counter()
        k = 0
        while time.perf_counter() - t_start < seconds:
            t0 = time.perf_counter()
            try:
                units = run_call(ctx, wl, wl.kwargs, master_seed(seed, k), rec)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                units = None
            dt = time.perf_counter() - t0
            res.outputs[k] = units
            if units is not None:
                res.trials += wl.trials_per_call
                res.trial_s.extend(rec.times if wl.trial_fn else
                                   [dt / wl.trials_per_call])
            k += 1
        res.wall_s = time.perf_counter() - t_start
        res.cpu_s = time.process_time() - cpu0
    return res


def check_pass(tally: CheckTally, wl: Workload, seed: int, res: PassResult,
               reference: dict) -> None:
    calls = reference[wl.name]["calls"] if seed == DEFAULT_SEED else []
    for k, units in res.outputs.items():
        tally.check(units, calls[k] if k < len(calls) else None,
                    wl.units_per_call)


def check_traced(tally: CheckTally, untraced: PassResult,
                 traced: PassResult) -> None:
    """Traced outputs must equal the untraced ones bit for bit."""
    for k, units in traced.outputs.items():
        if k in untraced.outputs and units is not None \
                and units != untraced.outputs[k]:
            tally.traced_mismatch += 1
            tally.failed += 1
            tally.attempted += 1


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100); 0 with no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(workload: str, n: int) -> list[float]:
    """Set-up seconds of `n` fresh processes (import, bind, warm-up)."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        out.append(float(json.loads(proc.stdout.strip().splitlines()[-1])
                         ["setup_s"]))
    return out


# ------------------------------------------------------------ per-layer

# (metric, unit, better): the per-layer metrics the traced run reports
LAYER_METRICS = [
    ("channel.synthesize_echo.self_ms", "ms/trial", "lower"),
    ("channel.synthesize_echo.calls", "calls/trial", "lower"),
    ("channel.synthesize_echo.bytes_out", "MB/call", "lower"),
    ("channel.synthesize_comm.self_ms", "ms/trial", "lower"),
    ("subspace.covariance.self_ms", "ms/trial", "lower"),
    ("subspace.decompose.self_ms", "ms/trial", "lower"),
    ("subspace.decompose.calls", "calls/trial", "lower"),
    ("subspace.source_count", "sources/call", "lower"),
    ("subspace.fallback_ratio", "ratio", "lower"),
    ("steering.range_steering_grid.self_ms", "ms/trial", "lower"),
    ("steering.doppler_steering_grid.self_ms", "ms/trial", "lower"),
    ("music.music_aoa.self_ms", "ms/trial", "lower"),
    ("music.music_range.self_ms", "ms/trial", "lower"),
    ("music.music_doppler.self_ms", "ms/trial", "lower"),
    ("music.beamform_and_erase.self_ms", "ms/trial", "lower"),
    ("music.newton_refine_1d.self_ms", "ms/trial", "lower"),
    ("music.newton_refine_1d.calls", "calls/trial", "lower"),
    ("music.newton_iterations", "iter/call", "lower"),
    ("music.newton_converged_ratio", "ratio", "higher"),
    ("music.estimates_per_call", "est/call", "lower"),
    ("fft_baseline.fft_range_doppler.self_ms", "ms/trial", "lower"),
    ("csi.kalman_enhance.self_ms", "ms/trial", "lower"),
    ("csi.estimate_sigma_p.self_ms", "ms/trial", "lower"),
    ("csi.equalize_and_demodulate.self_ms", "ms/trial", "lower"),
    ("qam.demodulate.self_ms", "ms/trial", "lower"),
    ("qam.demodulate.calls", "calls/trial", "lower"),
    ("theory.self_ms", "ms/trial", "lower"),
    ("scenario.generate_scenario.self_ms", "ms/trial", "lower"),
    ("harness.self_ms", "ms/trial", "lower"),
    ("harness.self_share", "ratio", "lower"),
    ("harness.cpu_per_wall", "ratio", "higher"),
    ("trace_overhead", "ratio", "higher"),
]
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rows(table: dict, fn: str) -> list[dict]:
    """Table rows of one function ("music.music_range"), or of every
    function of one module ("theory")."""
    if "." in fn:
        return [table[fn]] if fn in table else []
    return [row for f, row in table.items() if f.startswith(fn + ".")]


def layer_metrics(tracer: tracing.Tracer, untraced: PassResult,
                  traced: PassResult) -> dict[str, float]:
    """Per-layer values from the traced pass; functions that never ran
    (or no longer exist) read 0."""
    table = tracing.layer_table(tracer.spans)
    counts = tracer.counts
    n = traced.trials
    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        fn, _, kind = name.rpartition(".")
        if kind == "self_ms":
            values[name] = _ratio(
                1e3 * sum(r["self_s"] for r in _rows(table, fn)), n)
        elif kind == "calls":
            values[name] = _ratio(sum(r["calls"] for r in _rows(table, fn)), n)

    def calls(fn):
        return table.get(fn, {}).get("calls", 0)

    echo = "channel.synthesize_echo"
    values[f"{echo}.bytes_out"] = _ratio(counts[echo]["bytes_out"] / 1e6,
                                         calls(echo))
    dec = "subspace.decompose"
    values["subspace.source_count"] = _ratio(counts[dec]["source_count"],
                                             calls(dec))
    values["subspace.fallback_ratio"] = _ratio(counts[dec]["fallback"],
                                               calls(dec))
    newton = "music.newton_refine_1d"
    values["music.newton_iterations"] = _ratio(counts[newton]["iterations"],
                                               calls(newton))
    values["music.newton_converged_ratio"] = _ratio(
        counts[newton]["converged"], calls(newton))
    estimators = ("music.music_aoa", "music.music_range", "music.music_doppler")
    values["music.estimates_per_call"] = _ratio(
        sum(counts[e]["estimates"] for e in estimators),
        sum(calls(e) for e in estimators))
    values["harness.self_share"] = _ratio(
        sum(r["self_s"] for r in _rows(table, "harness")), traced.wall_s)
    values["harness.cpu_per_wall"] = untraced.cpu_s / untraced.wall_s
    values["trace_overhead"] = _ratio(traced.trials_per_s,
                                      untraced.trials_per_s)
    return {name: values.get(name, 0.0) for name, _, _ in LAYER_METRICS}


def missing_layers() -> list[str]:
    """Functions named by a per-layer metric that the package no longer
    has; their metrics read 0."""
    missing = []
    for fn in sorted({name.rpartition(".")[0] for name, _, _ in LAYER_METRICS
                      if name.count(".") == 2}):
        module, _, attr = fn.partition(".")
        try:
            mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        except ModuleNotFoundError:
            mod = None
        if not callable(getattr(mod, attr, None)):
            missing.append(fn)
    return missing


# ------------------------------------------------------------ environment

def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
    }
