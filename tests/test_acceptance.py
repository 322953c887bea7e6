"""Acceptance gate: end-to-end checks of the shipped defaults.

Each test covers one acceptance criterion and prints a single pass/fail
line.  The heavy sweeps are shared via module-scoped fixtures.
"""

import numpy as np
import pytest

from jcs_music import channel, harness, theory
from jcs_music.config import bind, load_config
from jcs_music.music import beamform_and_erase
from jcs_music.scenario import generate_scenario
from jcs_music.steering import (Angle2D, ArrayConfig, spatial_steering,
                                spatial_steering_derivs)
from jcs_music.subspace import detect_source_count


@pytest.fixture(scope="module")
def actx():
    return bind(load_config())


@pytest.fixture(scope="module")
def mse_sweep(actx):
    return harness.run_sweep_mse(actx, sinr_grid=[0.0, 10.0], trials=200,
                                 master_seed=2024)


@pytest.fixture(scope="module")
def theory_sweep(actx):
    return harness.validate_theory(actx, sinr_grid=(0.0, 5.0, 10.0),
                                   trials=200, master_seed=7, n_draws=2000)


@pytest.fixture(scope="module")
def ber_sweep(actx):
    return harness.run_sweep_ber(actx, csinr_grid=[10.0, 15.0, 20.0,
                                                   25.0, 30.0],
                                 trials=200, master_seed=11)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_resolution_constants():
    ctx = bind(load_config(overrides={"legacy_c": True}))
    dr, dv = harness.resolution_constants(ctx)
    ok = round(dr, 4) == 1.2207 and round(dv, 4) == 17.8571
    _report("criterion 1", ok,
            f"range bin {dr:.6f} m, velocity bin {dv:.6f} m/s")


def test_criterion_2_mse_sweep(mse_sweep):
    t = mse_sweep
    checks = []
    for sinr in (0.0, 10.0):
        checks.append(t.value(sinr, "range_mse", "music") < 1e-2)
        checks.append(t.value(sinr, "velocity_mse", "music") < 1e-2)
        checks.append(0.1 <= t.value(sinr, "range_mse", "fft") <= 3.0)
        checks.append(30.0 <= t.value(sinr, "velocity_mse", "fft") <= 320.0)
    detail = ", ".join(
        f"{s:g}dB music r={t.value(s, 'range_mse', 'music'):.2e} "
        f"v={t.value(s, 'velocity_mse', 'music'):.2e} "
        f"fft r={t.value(s, 'range_mse', 'fft'):.2f} "
        f"v={t.value(s, 'velocity_mse', 'fft'):.1f}"
        for s in (0.0, 10.0))
    _report("criterion 2", all(checks), detail)


def test_criterion_3_spectrum_pslr(actx):
    snap = harness.spectrum_snapshot(actx, sinr_db=-20.0, master_seed=0)
    mr = snap["music_range_pslr_db"]
    mv = snap["music_velocity_pslr_db"]
    fr = snap["fft_range_pslr_db"]
    fv = snap["fft_velocity_pslr_db"]
    ok = (mr >= 20.0 and mv >= 25.0
          and 6.0 <= fr <= 14.0 and 6.0 <= fv <= 14.0)
    _report("criterion 3",
            ok, f"music range {mr:.1f} dB, music velocity {mv:.1f} dB, "
                f"fft range {fr:.1f} dB, fft velocity {fv:.1f} dB")


def test_criterion_4_theory_within_3db(theory_sweep):
    t = theory_sweep
    worst = 0.0
    for sinr in (0.0, 5.0, 10.0):
        for metric in ("range_mse", "velocity_mse"):
            sim = t.value(sinr, metric, "music")
            pred = t.value(sinr, metric, "theory")
            worst = max(worst, abs(10.0 * np.log10(pred / sim)))
    _report("criterion 4", worst <= 3.0,
            f"worst theory/simulation gap {worst:.2f} dB (limit 3 dB)")


def test_criterion_5_crb_below_mse_and_validated(theory_sweep):
    t = theory_sweep
    violations = 0
    for sinr in (0.0, 5.0, 10.0):
        for metric in ("range_mse", "velocity_mse"):
            if t.value(sinr, metric, "crb") > t.value(sinr, metric, "music"):
                violations += 1

    # closed-form bound against a numerical Fisher-information oracle
    nc, ms, pq, df = 256, 64, 64, 480e3
    wave = channel.WaveformConfig(n_subcarriers=nc, n_symbols=ms,
                                  subcarrier_spacing=df)
    c_light = 299792458.0
    lam = wave.wavelength()
    arr = ArrayConfig(rows=8, cols=8, spacing=lam / 2, wavelength=lam)
    n = np.arange(nc)

    def mean_range(d):
        return np.exp(-2j * np.pi * n * df * (2.0 * d / c_light))

    h = 1e-4
    dmu = (mean_range(80.0 + h) - mean_range(80.0 - h)) / (2 * h)
    fisher = 2.0 * ms * pq * np.sum(np.abs(dmu) ** 2)    # gamma = sigma2 = 1
    bound = theory.crb(wave, arr, 0.0, 0.0, 1.0)
    oracle_ok = abs(bound.distance * fisher - 1.0) < 0.01
    ok = violations <= 1 and oracle_ok
    _report("criterion 5", ok,
            f"{violations} CRB>MSE violations of 6 points (limit 1), "
            f"Fisher oracle ratio {bound.distance * fisher:.4f}")


def test_criterion_6_ber_enhancement(ber_sweep):
    t = ber_sweep
    checks = []
    details = []
    for sinr in (25.0, 30.0):
        a = t.value(sinr, "ber", "case_a")
        b = t.value(sinr, "ber", "case_b")
        c = t.value(sinr, "ber", "case_c")
        d = t.value(sinr, "ber", "case_d")
        checks.append(c < b)
        checks.append(d > b)
        details.append(f"{sinr:g}dB A={a:.1e} B={b:.1e} C={c:.1e} D={d:.1e}")
    _report("criterion 6", all(checks), "; ".join(details))


def test_criterion_7_property_essentials(actx):
    ok = True
    notes = []

    # hand-traced source counting
    sc = detect_source_count(np.array([10.0, 9.0] + [0.1] * 6))
    ok &= sc.count == 2 and not sc.fallback
    sc = detect_source_count(np.full(8, 3.0))
    ok &= sc.count == 1 and sc.fallback
    sc = detect_source_count(np.array([100.0] + [1.0] * 7))
    ok &= sc.count == 1
    notes.append("source-count traces")

    # steering derivatives vs finite differences, 100 draws
    wave = channel.WaveformConfig(n_subcarriers=16, n_symbols=8)
    lam = wave.wavelength()
    arr = ArrayConfig(rows=4, cols=4, spacing=lam / 2, wavelength=lam)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        az = rng.uniform(-np.pi, np.pi)
        el = rng.uniform(0.05, np.pi / 2 - 0.05)
        first, _ = spatial_steering_derivs(arr, Angle2D(az, el))
        h = 1e-6
        fd = (spatial_steering(arr, Angle2D(az + h, el))
              - spatial_steering(arr, Angle2D(az - h, el))) / (2 * h)
        worst = max(worst, np.linalg.norm(first[:, 0] - fd)
                    / np.linalg.norm(fd))
    ok &= worst < 1e-5
    notes.append(f"deriv fd worst {worst:.1e}")

    # noiseless orthogonality across 50 scenes (reduced numerology)
    noise = channel.NoiseConfig()
    worst_orth = 0.0
    for seed in range(50):
        scen = generate_scenario(seed)
        beams = channel.build_beamformers(scen, arr)
        rngs = np.random.default_rng(seed)
        echo = channel.synthesize_echo(scen, wave, arr, beams, rngs)
        y = echo.snapshots.reshape(arr.size, -1)
        u = np.linalg.svd(y, full_matrices=True)[0]
        un = u[:, scen.n_paths:]
        a = spatial_steering(arr, scen.mue_path.aoa)
        worst_orth = max(worst_orth,
                         np.linalg.norm(un.conj().T @ (a / np.linalg.norm(a))))
    ok &= worst_orth < 1e-8
    notes.append(f"orthogonality worst {worst_orth:.1e}")

    # zero-observation-noise Kalman identity
    from jcs_music import csi
    h0 = (np.random.default_rng(1).normal(size=(16, 4))
          + 1j * np.random.default_rng(2).normal(size=(16, 4)))
    ok &= np.array_equal(
        csi.kalman_enhance(h0, 1e-7, 480e3, sigma_p2=0.0, p_w0=1.0), h0)
    notes.append("kalman identity")

    # scheduling-invariant determinism of a small sweep
    t1 = harness.run_sweep_mse(actx, sinr_grid=[10.0], trials=2,
                               master_seed=17)
    t2 = harness.run_sweep_mse(actx, sinr_grid=[10.0], trials=2,
                               master_seed=17)
    ok &= t1.rows == t2.rows
    notes.append("sweep determinism")

    _report("criterion 7", bool(ok), ", ".join(notes))
