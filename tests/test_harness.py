"""Sweep harness, result tables, config plumbing, and the CLI."""

import copy
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcs_music
from jcs_music import channel, cli, harness
from jcs_music.config import ConfigError, DEFAULTS, bind, load_config
from jcs_music.harness import (ResultRow, ResultTable, resolution_constants,
                               trial_rng)
from jcs_music.music import music_range
from jcs_music.scenario import MAX_SCATTERERS, generate_scenario
from jcs_music.steering import Angle2D, ArrayConfig
from jcs_music.subspace import covariance


def _table():
    return ResultTable([
        ResultRow(0.0, "range_mse", "music", 1.5e-3, 1e-4, 10, 7),
        ResultRow(0.0, "range_mse", "fft", 0.4, 0.01, 10, 7),
        ResultRow(10.0, "range_mse", "music", 2.5e-4, 1e-5, 10, 7),
    ])


# -- result tables -------------------------------------------------------

def test_csv_roundtrip():
    t = _table()
    back = ResultTable.from_csv(t.to_csv())
    assert back.rows == t.rows


def test_csv_header_validated():
    bad = "a,b,c\n1,2,3\n"
    with pytest.raises(ValueError):
        ResultTable.from_csv(bad)


def test_filter_and_value():
    t = _table()
    assert len(t.filter(series="music").rows) == 2
    assert len(t.filter(metric="range_mse", series="fft").rows) == 1
    assert t.value(10.0, "range_mse", "music") == pytest.approx(2.5e-4)
    with pytest.raises(KeyError):
        t.value(5.0, "range_mse", "music")


def test_emit_results_writes_files(tmp_path):
    paths = harness.emit_results(_table(), tmp_path)
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "plot_results.py").exists()
    assert len(paths) == 2
    back = ResultTable.from_csv((tmp_path / "table.csv").read_text())
    assert len(back.rows) == 3


def test_emit_results_empty_table_lists_metrics(tmp_path):
    with pytest.raises(ValueError) as exc:
        harness.emit_results(ResultTable([]), tmp_path)
    msg = str(exc.value)
    for metric in ("range_mse", "velocity_mse", "ber", "pslr", "doppler_mse",
                   "csi_mse"):
        assert metric in msg


# -- seeding -------------------------------------------------------------

def test_trial_rng_independent_and_deterministic():
    s1, r1 = trial_rng(5, 0, 0)
    s2, r2 = trial_rng(5, 0, 0)
    assert s1 == s2
    assert r1.integers(0, 1 << 30) == r2.integers(0, 1 << 30)
    s3, _ = trial_rng(5, 0, 1)
    s4, _ = trial_rng(5, 1, 0)
    assert len({s1, s3, s4}) == 3


def test_resolution_constants_legacy(ctx):
    legacy = bind(load_config(overrides={"legacy_c": True}))
    dr, dv = resolution_constants(legacy)
    assert dr == pytest.approx(1.220703125, abs=1e-12)
    assert dv == pytest.approx(17.857142857142858, abs=1e-9)
    dr_exact, _ = resolution_constants(ctx)
    assert dr_exact == pytest.approx(299792458.0 / (2 * 256 * 480e3),
                                     rel=1e-12)


def test_resolution_constants_with_a_guard_interval():
    """The velocity bin is half a wavelength per Doppler bin of the FFT
    baseline, whose symbols last 1/df plus the guard interval."""
    gctx = bind(load_config(
        overrides={"waveform": {"guard_interval": 0.5e-6}}))
    dr, dv = resolution_constants(gctx)
    t_sym = 1.0 / 480e3 + 0.5e-6
    lam = 299792458.0 / 63e9
    assert dv == pytest.approx(lam / (2 * 64 * t_sym), rel=1e-12)
    assert dv == pytest.approx(14.39, abs=0.01)
    assert dr == pytest.approx(299792458.0 / (2 * 256 * 480e3), rel=1e-12)


# -- helpers -------------------------------------------------------------

def test_principal_doppler_wrap():
    t = 1.0 / 480e3
    span = 480e3
    assert harness._principal_doppler(0.1 * span, t) == pytest.approx(
        0.1 * span)
    assert harness._principal_doppler(0.9 * span, t) == pytest.approx(
        -0.1 * span)


def test_nearest_estimate_circular():
    class E:
        def __init__(self, v, s=1.0):
            self.value = v
            self.spectrum = s

    ests = [E(0.05), E(0.6), E(0.99)]
    got = harness._nearest_estimate(ests, anchor=0.0, period=1.0)
    assert got.value == 0.99  # wraps to distance 0.01
    got = harness._nearest_estimate(ests, anchor=0.0)
    assert got.value == 0.05  # linear distance


def test_nearest_estimate_prefers_deepest_null_within_tol():
    class E:
        def __init__(self, v, s):
            self.value = v
            self.spectrum = s

    # spurious low peak marginally nearer the quantized anchor than the
    # strong true peak; within tolerance the strong one must win
    ests = [E(0.9, s=0.3), E(1.3, s=300.0)]
    got = harness._nearest_estimate(ests, anchor=1.0, tol=0.5)
    assert got.value == 1.3
    # with nothing inside tol, fall back to plain nearest
    got = harness._nearest_estimate(ests, anchor=5.0, tol=0.5)
    assert got.value == 1.3


# -- sweeps --------------------------------------------------------------

def test_sweep_mse_deterministic_and_structured(ctx):
    t1 = harness.run_sweep_mse(ctx, sinr_grid=[10.0], trials=3,
                               master_seed=99)
    t2 = harness.run_sweep_mse(ctx, sinr_grid=[10.0], trials=3,
                               master_seed=99)
    assert t1.rows == t2.rows
    metrics = {r.metric for r in t1.rows}
    assert metrics == {"azimuth_mse", "elevation_mse", "range_mse",
                       "velocity_mse", "doppler_mse", "location_mse"}
    assert {r.series for r in t1.filter(metric="range_mse").rows} \
        == {"music", "fft"}
    for r in t1.rows:
        assert r.value >= 0.0 and r.trials == 3 and r.seed == 99


def test_sweep_ber_has_four_cases(ctx):
    t = harness.run_sweep_ber(ctx, csinr_grid=[25.0], trials=3,
                              master_seed=5)
    cases = {r.series for r in t.filter(metric="ber").rows}
    assert cases == {"case_a", "case_b", "case_c", "case_d"}
    assert {r.series for r in t.filter(metric="csi_mse").rows} \
        == {"ls", "enhanced"}
    for r in t.filter(metric="ber").rows:
        assert 0.0 <= r.value <= 1.0


def test_ci_shrinks_like_root_trials(ctx):
    """Quadrupling the trials roughly halves the confidence halfwidth."""
    t1 = harness.run_sweep_mse(ctx, sinr_grid=[10.0], trials=25,
                               master_seed=3, use_true_beam=True)
    t2 = harness.run_sweep_mse(ctx, sinr_grid=[10.0], trials=100,
                               master_seed=3, use_true_beam=True)
    r1 = next(r for r in t1.rows
              if r.metric == "range_mse" and r.series == "music")
    r2 = next(r for r in t2.rows
              if r.metric == "range_mse" and r.series == "music")
    ratio = r1.ci / r2.ci
    assert 2.0 * 0.8 < ratio < 2.0 * 1.25


def test_spectrum_snapshot_fields(ctx):
    snap = harness.spectrum_snapshot(ctx, sinr_db=-10.0, master_seed=0)
    for k in ("music_range_spectrum", "music_velocity_spectrum",
              "fft_range_spectrum", "fft_velocity_spectrum"):
        assert np.max(snap[k]) == pytest.approx(1.0)
    for k in ("music_range_pslr_db", "music_velocity_pslr_db",
              "fft_range_pslr_db", "fft_velocity_pslr_db"):
        assert np.isfinite(snap[k])
    assert snap["truth_distance_m"] > 0


def test_crb_table_structure(ctx):
    t = harness.crb_table(ctx, sinr_grid=[0.0, 10.0])
    assert len(t.rows) == 8
    assert t.value(10.0, "range_mse", "crb") \
        == pytest.approx(t.value(0.0, "range_mse", "crb") / 10.0, rel=1e-9)


# -- estimator domains ---------------------------------------------------

def _small_ctx(**sections):
    """Context of the reduced numerology, overlaid with `sections`."""
    cfg = {"array": {"rows": 4, "cols": 4},
           "waveform": {"n_subcarriers": 64, "n_symbols": 32}}
    for name, values in sections.items():
        cfg[name] = {**cfg.get(name, {}), **values}
    return bind(load_config(overrides=cfg))


def _beam_chain_outputs(fn, *args, **kwargs):
    """Call fn, recording the round-trip range of every per-beam range
    step and the Doppler of every Doppler step it runs."""
    ranges, dopplers = [], []
    beam_range, beam_doppler = harness._beam_range, harness._beam_doppler

    def rec_range(*a, **k):
        out = beam_range(*a, **k)
        ranges.append(out[1])
        return out

    def rec_doppler(*a, **k):
        out = beam_doppler(*a, **k)
        dopplers.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_beam_range", rec_range)
        mp.setattr(harness, "_beam_doppler", rec_doppler)
        result = fn(*args, **kwargs)
    return result, ranges, dopplers


def _assert_in_domains(ctx, ranges, dopplers):
    span = 1.0 / ctx.wave.symbol_duration
    r_max = ctx.wave.c / ctx.wave.subcarrier_spacing
    assert ranges and all(0.0 <= r < r_max for r in ranges), (ranges, r_max)
    assert all(-span / 2 < f <= span / 2 for f in dopplers), (dopplers, span)


def _assert_trial_in_domains(ctx, sinr, scen_seed, noise_seed, true_beam):
    draw = harness.draw_sensing_trial(ctx, sinr, scen_seed,
                                      np.random.default_rng(noise_seed),
                                      use_true_beam=true_beam)
    res, ranges, dopplers = _beam_chain_outputs(harness.sensing_trial, ctx,
                                                draw)
    assert all(np.isfinite(v) for smap in res.values() for v in smap.values())
    assert len(dopplers) == 1
    _assert_in_domains(ctx, ranges, dopplers)


@settings(max_examples=6, deadline=None)
@given(st.floats(49.95, 50.05), st.floats(-10.0, 20.0),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_zero_doppler_user_stays_in_domain(mue_x, sinr, seed, true_beam):
    """At mue_x = 50 the user's closing speed is 0: the Doppler sits on
    the wrap of [0, 1/T)."""
    ctx = _small_ctx(scenario={"mue_x": mue_x})
    assert abs(harness._scene(ctx, seed).mue_path.v1) < 0.1
    _assert_trial_in_domains(ctx, sinr, seed, seed + 1, true_beam)


@settings(max_examples=6, deadline=None)
@given(st.floats(50.0, 155.0), st.floats(-0.03, 0.03), st.floats(0.0, 20.0),
       st.integers(0, 2 ** 32 - 1))
def test_target_near_range_wrap_stays_in_domain(mue_x, offset, sinr, seed):
    """The subcarrier spacing puts the unambiguous round trip c / df
    within 3% (about two range bins) of the user's round trip, on either
    side."""
    d1 = generate_scenario(0, n_scatterers=0, mue_x=mue_x).mue_path.d1
    c = _small_ctx().wave.c
    ctx = _small_ctx(scenario={"mue_x": mue_x},
                     waveform={"subcarrier_spacing":
                               c / (2.0 * d1 * (1.0 + offset))})
    _assert_trial_in_domains(ctx, sinr, seed, seed + 1, True)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_noise_only_beam_falls_back_and_stays_in_domain(seed):
    """A per-beam matrix of noise alone whose two strongest singular
    values are equal: the first eigenvalue gap is zero, so the source
    count falls back to 1."""
    ctx = _small_ctx()
    wave = ctx.wave
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, wave.n_subcarriers, wave.n_symbols))
    u, s, vh = np.linalg.svd(g[0] + 1j * g[1], full_matrices=False)
    s[1] = s[0]
    h = (u * s) @ vh
    _, dec = music_range(h, wave)
    assert dec.fallback and dec.source_count == 1

    # an echo whose one path is that matrix, seen through its own beam
    angle = Angle2D(0.3, 0.7)
    w = channel.sense_rx_beamformer(ctx.array, angle)
    echo = channel.EchoRealization(
        steering=w[:, None] / np.vdot(w, w), factors=h[None],
        symbols=np.ones(h.shape, dtype=complex))
    h_bar = echo.beamform(w) / echo.symbols
    per, r_rt, n_src = harness._beam_range(h_bar, wave)
    assert n_src == 1
    f = harness._beam_doppler(h_bar, wave, per, n_src)
    _assert_in_domains(ctx, [r_rt], [f])


def test_validate_theory_runs_the_trial_chain():
    """The simulated rows of validate_theory are sensing_trial's true-beam
    range and velocity errors: the scene of trial (seed, 0, 0), the noise
    of trial (seed, point + 1, t)."""
    ctx = _small_ctx()
    seed, grid, trials = 4, (0.0, 10.0), 3
    table = harness.validate_theory(ctx, sinr_grid=grid, trials=trials,
                                    master_seed=seed, n_draws=20)
    scen_seed, _ = harness.trial_rng(seed, 0, 0)
    expect = []
    for pi, sinr in enumerate(grid):
        acc = {"range_mse": {"music": []}, "velocity_mse": {"music": []}}
        for t in range(trials):
            _, rng = harness.trial_rng(seed, pi + 1, t)
            res = harness.sensing_trial(ctx, harness.draw_sensing_trial(
                ctx, sinr, scen_seed, rng, use_true_beam=True))
            for metric, series in acc.items():
                series["music"].append(res[metric]["music"])
        expect.extend(harness._aggregate(acc, sinr, trials, seed))
    assert table.filter(series="music").rows == expect


# -- trial pipeline ------------------------------------------------------

@pytest.mark.parametrize("numerology", ["default", "small"])
def test_estimated_beam_draw_carries_the_echo_covariance(numerology, ctx,
                                                         noisy_snapshots):
    """An estimated-beam draw holds, bit for bit, the noisy echo drawn on
    a copy of the trial's generator and the `covariance` of its
    (PQ, N_c*M_s) matrix; both generators end in the same state."""
    c = ctx if numerology == "default" else _small_ctx()
    scen_seed, rng = trial_rng(7, 0, 0)
    ref_rng = copy.deepcopy(rng)
    draw = harness.draw_sensing_trial(c, 10.0, scen_seed, rng)

    scenario = harness._scene(c, scen_seed)
    beams = channel.build_beamformers(scenario, c.array)
    echo = channel.synthesize_echo(scenario, draw.wave, c.array, beams,
                                   ref_rng,
                                   fading=c.config["scenario"]["fading"])
    y = noisy_snapshots(echo, ref_rng, c.noise)
    assert draw.h_bar is None
    assert np.array_equal(draw.symbols, echo.symbols)
    assert np.array_equal(draw.snapshots, y)
    assert draw.covariance.shape == (c.array.size,) * 2
    assert np.array_equal(draw.covariance,
                          covariance(y.reshape(c.array.size, -1)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


LAYER_MODULES = ("harness", "scenario", "channel", "qam", "subspace",
                 "steering", "music", "fft_baseline", "csi", "theory")


def _all_sweeps(ctx, seed=3):
    """Every sweep that runs trials, at 2 points x 2 trials."""
    return [harness.run_sweep_mse(ctx, [0.0, 10.0], 2, seed),
            harness.run_sweep_mse(ctx, [0.0, 10.0], 2, seed,
                                  use_true_beam=True),
            harness.run_sweep_ber(ctx, [10.0, 30.0], 2, seed),
            harness.validate_theory(ctx, (0.0, 10.0), 2, seed, n_draws=20)]


def _record_trials(mp) -> list:
    """Rebind the per-trial estimates to append (name, result) per call."""
    calls = []
    for name in ("sensing_trial", "ber_trial"):
        def recorded(ctx, draw, _fn=getattr(harness, name), _name=name):
            out = _fn(ctx, draw)
            calls.append((_name, out))
            return out
        mp.setattr(harness, name, recorded)
    return calls


def _on_a_thread(fn, timeout: float):
    """fn() on a daemon thread that must finish within `timeout` s."""
    box = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as exc:   # re-raised on the test's thread
            box["exc"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    assert not th.is_alive(), f"no result within {timeout} s"
    if "exc" in box:
        raise box["exc"]
    return box["out"]


def test_sweeps_equal_inline_trials_under_a_hostile_scheduler():
    """The noise worker changes no value: with the interpreter switching
    threads every microsecond, every sweep's rows and per-trial results
    equal those of drawing and estimating each trial inline."""
    ctx = _small_ctx()

    def inline(ctx, draws, estimate):
        return [estimate(ctx, harness._draw_here(ctx, d)) for d in draws]

    with pytest.MonkeyPatch.context() as mp:
        expect_calls = _record_trials(mp)
        mp.setattr(harness, "_estimate_each", inline)
        expect = [t.rows for t in _all_sweeps(ctx)]

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_trials(mp)
        sys.setswitchinterval(1e-6)
        try:
            got = _on_a_thread(lambda: [t.rows for t in _all_sweeps(ctx)],
                               timeout=300.0)
        finally:
            sys.setswitchinterval(interval)
    assert got == expect
    assert len(calls) == 2 * 4 + 2 * 4 and calls == expect_calls


def _wrap_layers(mp, on_call) -> None:
    """Rebind every public function of the layer modules, at every name
    in the package that refers to it, to call on_call(name) first."""
    wrappers = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"jcs_music.{short}")
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                def wrapped(*args, _fn=fn, _name=f"{short}.{attr}", **kw):
                    on_call(_name)
                    return _fn(*args, **kw)
                wrappers[fn] = wrapped
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "jcs_music":
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    mp.setattr(mod, attr, wrappers[obj])


def test_layer_functions_run_on_the_calling_thread_only(monkeypatch):
    """The worker runs numpy only: during every sweep each public function
    of the ten layer modules is called on the main thread, and the echo
    noise is filled on another."""
    called, off_main, fills = set(), [], []

    def on_call(name):
        called.add(name)
        if threading.current_thread() is not threading.main_thread():
            off_main.append(name)

    _wrap_layers(monkeypatch, on_call)
    fill = channel._fill_echo_noise
    monkeypatch.setattr(
        channel, "_fill_echo_noise",
        lambda *args: fills.append(threading.current_thread()) or fill(*args))
    _all_sweeps(_small_ctx())
    assert off_main == []
    assert {"channel.synthesize_echo", "music.music_aoa", "csi.kalman_enhance",
            "harness.sensing_trial", "harness.ber_trial",
            "theory.perturbation_report"} <= called
    # one fill per plane for the 12 fixed-beam trials, per block of
    # NOISE_BLOCK_ROWS = 8 rows for the 4 estimated-beam trials (2 * 2
    # blocks of the 16 rows of the 4 x 4 array)
    assert len(fills) == 12 * 2 + 4 * 2 * 2
    assert all(t is not threading.main_thread() for t in fills)


def test_noise_fills_run_two_ahead_and_one_beside_an_estimate(monkeypatch):
    """Every sweep keeps at most two noise fills in flight, runs at most
    one fill while a trial is estimated, and runs every fill off the
    calling thread.  Each fill first sleeps, so fills overlap the
    estimates and each other."""
    lock = threading.Lock()
    state = {"fills": 0, "estimating": False}
    in_flight, beside, threads = [], [], []

    def fill_entry(fn):
        def fill(*args):
            with lock:
                state["fills"] += 1
                in_flight.append(state["fills"])
                if state["estimating"]:
                    beside.append(state["fills"])
                threads.append(threading.current_thread())
            try:
                time.sleep(0.05)
                return fn(*args)
            finally:
                with lock:
                    state["fills"] -= 1
        return fill

    def timed_estimate(fn):
        def estimate(ctx, draw):
            with lock:
                state["estimating"] = True
                beside.append(state["fills"])
            try:
                return fn(ctx, draw)
            finally:
                with lock:
                    beside.append(state["fills"])
                    state["estimating"] = False
        return estimate

    for name in ("_noisy_beam", "_noisy_snapshots"):
        monkeypatch.setattr(channel, name, fill_entry(getattr(channel, name)))
    for name in ("sensing_trial", "ber_trial"):
        monkeypatch.setattr(harness, name,
                            timed_estimate(getattr(harness, name)))
    _all_sweeps(_small_ctx())
    assert harness.NOISE_WORKERS == 2 == max(in_flight)
    assert len(beside) >= 2 * 16 and max(beside) <= 1
    assert len(threads) == 16
    assert threading.main_thread() not in threads


@pytest.mark.parametrize("failing", ["_fill_echo_noise", "estimate"])
@pytest.mark.parametrize("sweep", ["run_sweep_mse", "run_sweep_ber",
                                   "validate_theory"])
def test_a_failure_is_raised_and_the_worker_joined(monkeypatch, sweep,
                                                   failing):
    def fail(*args, **kwargs):
        raise FloatingPointError("trial failed")

    if failing == "estimate":
        for name in ("sensing_trial", "ber_trial"):
            monkeypatch.setattr(harness, name, fail)
    else:
        monkeypatch.setattr(channel, failing, fail)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="trial failed"):
        getattr(harness, sweep)(_small_ctx(), [0.0, 10.0], 2)
    assert threading.active_count() == before


# -- config --------------------------------------------------------------

def test_config_unknown_key_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"waveform": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="waveform.bogus"):
        load_config(p)


def test_config_invalid_value(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"waveform": {"qam_order": 8}}))
    with pytest.raises(ConfigError, match="qam_order"):
        load_config(p)


@pytest.mark.parametrize("override, path", [
    ({"sweep": {"trials": True}}, "sweep.trials"),
    ({"waveform": {"carrier_freq": float("inf")}}, "waveform.carrier_freq"),
    ({"scenario": {"mue_x": "abc"}}, "scenario.mue_x"),
    ({"sweep": {"sinr_grid_db": ["x"]}}, "sweep.sinr_grid_db"),
    ({"array": {"rows": 2.7}}, "array.rows"),
])
def test_config_rejects_mistyped_value(override, path):
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        load_config(overrides=override)


@pytest.mark.parametrize("section, cls, field, value, rule", [
    ("waveform", channel.WaveformConfig, "n_subcarriers", 1, ">= 2"),
    ("waveform", channel.WaveformConfig, "n_symbols", 1, ">= 2"),
    ("waveform", channel.WaveformConfig, "subcarrier_spacing", 0.0, "> 0"),
    ("waveform", channel.WaveformConfig, "guard_interval", -1e-9, ">= 0"),
    ("waveform", channel.WaveformConfig, "carrier_freq", 0.0, "> 0"),
    ("waveform", channel.WaveformConfig, "qam_order", 8, "one of 4, 16, 64"),
    ("noise", channel.NoiseConfig, "noise_var", 0.0, "> 0"),
    ("noise", channel.NoiseConfig, "inr_sense_db", 4000.0,
     "a dB value with a finite linear power"),
    ("noise", channel.NoiseConfig, "inr_comm_db", 3083.0,
     "a dB value with a finite linear power"),
])
def test_objects_check_their_fields_and_config_names_the_key(
        tmp_path, capsys, section, cls, field, value, rule):
    """The library rejects a bad field itself; the config and the CLI
    report that check under the field's key path."""
    with pytest.raises(ValueError, match=f"^{field}: must be {rule}$"):
        cls(**{field: value})
    path = f"{section}.{field}: must be {rule}"
    with pytest.raises(ConfigError, match="^" + path.replace(".", r"\.")):
        load_config(overrides={section: {field: value}})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({section: {field: value}}))
    assert cli.main(["resolution", "--config", str(p)]) == 2
    assert path in capsys.readouterr().err


def test_config_rejects_array_without_elements():
    with pytest.raises(ConfigError, match=r"^array\.rows/cols: must be >= 1$"):
        load_config(overrides={"array": {"cols": 0}})


def test_config_rejects_a_one_element_array(tmp_path, capsys):
    """MUSIC splits at least two eigenvalues: a 1 x 1 array is rejected
    under its key path before any sweep runs or writes."""
    rule = "rows/cols: must give at least two elements"
    with pytest.raises(ValueError, match=f"^{rule}$"):
        ArrayConfig(rows=1, cols=1, spacing=0.5, wavelength=1.0)
    override = {"array": {"rows": 1, "cols": 1}}
    with pytest.raises(ConfigError, match=rf"^array\.{rule}$"):
        load_config(overrides=override)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(override))
    out = tmp_path / "res"
    assert cli.main(["sweep-mse", "--config", str(p), "--sinr", "10",
                     "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: array.{rule}\n"
    assert not out.exists()


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (3, 1)])
@pytest.mark.parametrize("command", ["validate-theory", "sweep-mse"])
def test_config_rejects_a_single_row_or_column(tmp_path, capsys, shape,
                                               command):
    """One row or one column leaves the 2-D AoA ambiguous: the array is
    rejected under its key path, and the command exits 2 before it
    writes, where the theory used to fail on a singular matrix."""
    rule = "array.rows/cols: must be >= 2 each, for a 2-D AoA"
    override = {"array": {"rows": shape[0], "cols": shape[1]}}
    with pytest.raises(ConfigError, match=f"^{re.escape(rule)}$"):
        load_config(overrides=override)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(override))
    out = tmp_path / "res"
    assert cli.main([command, "--config", str(p), "--sinr", "10",
                     "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {rule}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, rule", [
    ("subcarrier_spacing",
     "must give a symbol duration and a bandwidth with finite squares"),
    ("guard_interval", "must give a symbol duration with a finite square")])
def test_waveform_rejects_timing_with_an_overflowing_square(tmp_path, capsys,
                                                            field, rule):
    """The bounds square the symbol duration and the bandwidth: a timing
    field whose square overflows is rejected under its key path, and
    `crb` exits 2 with one error line, not a traceback."""
    with pytest.raises(ValueError, match=f"^{field}: {rule}$"):
        channel.WaveformConfig(**{field: 1e300})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"waveform": {field: 1e300}}))
    out = tmp_path / "res"
    assert cli.main(["crb", "--sinr", "0", "--config", str(p),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: waveform.{field}: {rule}\n"
    assert not out.exists()


@pytest.mark.parametrize("reflect_var", [0.0, -1.0])
def test_config_rejects_nonpositive_reflect_var(tmp_path, capsys, reflect_var):
    """A zero or negative reflection variance leaves no echo to calibrate;
    it is rejected as its config key before any sweep runs."""
    override = {"scenario": {"reflect_var": reflect_var}}
    with pytest.raises(ConfigError,
                       match=r"^scenario\.reflect_var: must be > 0$"):
        load_config(overrides=override)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(override))
    out = tmp_path / "res"
    for command in ("sweep-ber", "sweep-mse", "validate-theory"):
        rc = cli.main([command, "--config", str(p), "--sinr", "10",
                       "--trials", "1", "--out", str(out)])
        assert rc == 2
        assert "scenario.reflect_var: must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_unplaceable_scatterers_name_the_count(tmp_path, capsys):
    with pytest.raises(ValueError, match="n_scatterers=40"):
        generate_scenario(0, n_scatterers=40)
    # negative counts and counts the sampler cannot place reliably are
    # rejected before any draw
    for n in (-1, 6, 9):
        with pytest.raises(ValueError,
                           match=rf"n_scatterers={n}: must be in \[0, 5\]"):
            generate_scenario(0, n_scatterers=n)
    # the CLI flag and a config file are checked as the config key, before
    # anything runs
    configs = []
    for n in (6, 9):
        configs.append(tmp_path / f"cfg{n}.json")
        configs[-1].write_text(json.dumps({"scenario": {"n_scatterers": n}}))
    out = tmp_path / "spec"
    for argv, got in ((["--scatterers", "40"], "got 40"),
                      (["--scatterers", "-3"], "got -3"),
                      (["--config", str(configs[0])], "got 6"),
                      (["--config", str(configs[1])], "got 9")):
        rc = cli.main(["spectrum", *argv, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scenario.n_scatterers" in err and got in err, err
    assert not out.exists()


def test_most_scatterers_place_on_every_seed():
    for seed in range(20):
        scen = generate_scenario(seed, n_scatterers=MAX_SCATTERERS)
        assert scen.n_paths == MAX_SCATTERERS + 1


def test_config_invalid_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_config_overlay_and_bind(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"waveform": {"n_subcarriers": 32},
                             "legacy_c": True}))
    ctx = bind(load_config(p))
    assert ctx.wave.n_subcarriers == 32
    assert ctx.wave.c == 3e8
    assert ctx.array.rows == DEFAULTS["array"]["rows"]
    assert ctx.array.spacing == pytest.approx(ctx.wave.wavelength() / 2)


def test_the_speed_of_light_is_one_waveform_field(tmp_path, capsys,
                                                  monkeypatch):
    """c is a checked WaveformConfig field that only `legacy_c` sets: no
    waveform key, and the config key and the CLI flag bind the same
    context."""
    with pytest.raises(ValueError, match=r"^c: must be > 0$"):
        channel.WaveformConfig(c=0.0)
    with pytest.raises(ConfigError, match=r"^unknown config key: waveform\.c$"):
        load_config(overrides={"waveform": {"c": 3e8}})

    ctx = bind(load_config(overrides={"legacy_c": True}))
    assert ctx.wave.c == 3e8
    assert ctx.array.wavelength == ctx.wave.wavelength()
    assert ctx.wave.with_power(2.0).c == 3e8
    assert dataclasses.replace(ctx.wave, n_symbols=8).c == 3e8

    bound = []

    def spy(c):
        bound.append(c)
        return resolution_constants(c)

    monkeypatch.setattr(harness, "resolution_constants", spy)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"legacy_c": True}))
    outs = []
    for argv in (["resolution", "--legacy-c"],
                 ["resolution", "--config", str(p)]):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(bound) == 2
    for c in bound:
        assert c.wave.c == 3e8
        assert c.array.wavelength == c.wave.wavelength()


# -- CLI -----------------------------------------------------------------

def test_cli_resolution(capsys):
    rc = cli.main(["resolution", "--legacy-c"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["range_bin_m"] == pytest.approx(1.220703125)
    assert out["velocity_bin"] == pytest.approx(17.857142857, abs=1e-6)


def test_cli_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"nope": 1}))
    rc = cli.main(["resolution", "--config", str(p)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_sweep_mse_writes_outputs(tmp_path, capsys):
    rc = cli.main(["sweep-mse", "--sinr", "10", "--trials", "2",
                   "--seed", "1", "--out", str(tmp_path / "res")])
    assert rc == 0
    assert (tmp_path / "res" / "table.csv").exists()
    assert (tmp_path / "res" / "plot_results.py").exists()


def test_cli_spectrum_writes_outputs(tmp_path, capsys):
    rc = cli.main(["spectrum", "--seed", "0", "--out",
                   str(tmp_path / "spec")])
    assert rc == 0
    assert (tmp_path / "spec" / "pslr.csv").exists()
    assert (tmp_path / "spec" / "spectra.npz").exists()
    data = np.load(tmp_path / "spec" / "spectra.npz")
    assert "music_range_spectrum" in data


def test_cli_crb(tmp_path):
    rc = cli.main(["crb", "--sinr", "0", "5", "--out", str(tmp_path / "c")])
    assert rc == 0
    table = ResultTable.from_csv((tmp_path / "c" / "table.csv").read_text())
    assert {r.metric for r in table.rows} >= {"range_mse", "velocity_mse"}


def _cli_exit(argv):
    """Exit code of the CLI, whether main returns it or argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, named", [
    (["sweep-mse", "--trials", "0"], "sweep.trials"),
    (["sweep-ber", "--trials", "-2"], "sweep.trials"),
    (["validate-theory", "--trials", "0"], "sweep.trials"),
    (["crb", "--sinr", "nan"], "sweep.sinr_grid_db"),
    (["sweep-ber", "--sinr", "inf"], "--sinr"),
    (["validate-theory", "--draws", "0"], "--draws"),
    (["spectrum", "--pad", "0"], "--pad"),
    (["sweep-ber", "--mue-x", "nan"], "--mue-x"),
] + [([command, "--seed", "-1"], "--seed")
     for command in ("sweep-mse", "sweep-ber", "spectrum", "crb",
                     "validate-theory")] + [
    (["spectrum", "--sinr", "0", "10"], "--sinr"),
] + [([command, "--sinr", "3100"],
      "--sinr" if command == "sweep-ber" else "sweep.sinr_grid_db")
     for command in ("sweep-mse", "sweep-ber", "crb", "validate-theory",
                     "spectrum")])
def test_cli_rejects_bad_flags(argv, named, tmp_path, capsys):
    out = tmp_path / "res"
    assert _cli_exit(argv + ["--out", str(out)]) == 2
    err = [line for line in capsys.readouterr().err.splitlines()
           if "error:" in line]
    assert len(err) == 1 and named in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command, path", [("sweep-mse", "echo path"),
                                           ("sweep-ber", "LoS")])
def test_cli_reports_an_overflowing_transmit_power_in_one_line(
        tmp_path, capsys, command, path):
    """A noise floor so high that the calibrated transmit power overflows
    a float stops the run with one error line and exit code 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"noise_var": 1e300}}))
    out = tmp_path / "res"
    assert cli.main([command, "--config", str(cfg), "--sinr", "10",
                     "--trials", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert f"{path} transmit power for 10.0 dB is not a finite float" in err[0]
    assert not out.exists()


def test_cli_sweep_ber_sinr_is_the_csinr_grid(tmp_path):
    """sweep-ber's --sinr is its C-SINR grid, not the S-SINR config key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"sinr_grid_db": [-7.0]}}))
    out = tmp_path / "res"
    assert cli.main(["sweep-ber", "--config", str(cfg), "--sinr", "18",
                     "--trials", "1", "--out", str(out)]) == 0
    table = ResultTable.from_csv((out / "table.csv").read_text())
    assert {r.sinr_db for r in table.rows} == {18.0}


def test_cli_validate_theory_reads_the_config_trials(tmp_path):
    """With no --trials, validate-theory runs the config's sweep.trials."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"array": {"rows": 4, "cols": 4},
                               "waveform": {"n_subcarriers": 64,
                                            "n_symbols": 32},
                               "sweep": {"trials": 2}}))
    out = tmp_path / "res"
    assert cli.main(["validate-theory", "--config", str(cfg), "--sinr", "10",
                     "--draws", "20", "--out", str(out)]) == 0
    table = ResultTable.from_csv((out / "table.csv").read_text())
    assert {r.trials for r in table.filter(series="music").rows} == {2}


def test_cli_validate_theory_reads_the_config_grid(tmp_path):
    """With no --sinr, validate-theory runs the config's sweep.sinr_grid_db."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"array": {"rows": 4, "cols": 4},
                               "waveform": {"n_subcarriers": 64,
                                            "n_symbols": 32},
                               "sweep": {"trials": 1,
                                         "sinr_grid_db": [-5.0]}}))
    out = tmp_path / "res"
    assert cli.main(["validate-theory", "--config", str(cfg),
                     "--draws", "20", "--out", str(out)]) == 0
    table = ResultTable.from_csv((out / "table.csv").read_text())
    assert table.rows and {r.sinr_db for r in table.rows} == {-5.0}


def test_cli_out_on_a_file_is_an_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep")
    assert cli.main(["crb", "--sinr", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out:") and "Traceback" not in err
    assert out.read_text() == "keep"


_SWEEPS = """
from jcs_music import bind, harness, load_config
ctx = bind(load_config())
print(harness.run_sweep_mse(ctx, sinr_grid=[0.0, 10.0], trials=2,
                            master_seed=3).to_csv())
print(harness.run_sweep_ber(ctx, csinr_grid=[20.0], trials=2,
                            master_seed=3).to_csv())
"""


def test_sweeps_identical_under_one_and_two_blas_threads():
    """The sweeps' CSV tables, at their 9 significant digits, agree under
    one and two BLAS threads; a per-trial value can differ in its last
    bit.  The BLAS thread count is set in each child's environment only."""
    src = str(Path(jcs_music.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", _SWEEPS], env=env,
                             capture_output=True, text=True, check=True)
        out.append(run.stdout)
    assert "range_mse" in out[0] and "case_c" in out[0]
    assert out[0] == out[1]
