"""Analytic MSE predictions and closed-form bounds against numerical
oracles."""

import numpy as np
import pytest

from jcs_music import channel, theory
from jcs_music.channel import NoiseConfig, WaveformConfig
from jcs_music.scenario import generate_scenario
from jcs_music.steering import (ArrayConfig, doppler_steering_derivs,
                                range_steering_derivs, spatial_steering,
                                spatial_steering_derivs)

C = 299792458.0


@pytest.fixture(scope="module")
def wave():
    return WaveformConfig(n_subcarriers=64, n_symbols=32)


@pytest.fixture(scope="module")
def array(wave):
    lam = wave.wavelength()
    return ArrayConfig(rows=4, cols=4, spacing=lam / 2, wavelength=lam)


@pytest.fixture(scope="module")
def noise():
    return NoiseConfig()


def test_inverse_symbol_power_closed_forms():
    # 4-QAM points all have |d|^2 = 1
    assert theory.inverse_symbol_power(4) == pytest.approx(1.0, abs=1e-12)
    # 16-QAM: levels {1,3}/sqrt(10); E[1/|d|^2] = 17/9
    assert theory.inverse_symbol_power(16) == pytest.approx(17.0 / 9.0,
                                                            rel=1e-12)


# -- CRB ----------------------------------------------------------------

def test_crb_halves_when_sinr_doubles(wave, array):
    b0 = theory.crb(wave, array, 0.0, 0.3, 0.9)
    b3 = theory.crb(wave, array, 10.0 * np.log10(2.0), 0.3, 0.9)
    assert b3.distance == pytest.approx(b0.distance / 2.0, rel=1e-12)
    assert b3.velocity == pytest.approx(b0.velocity / 2.0, rel=1e-12)
    assert b3.azimuth == pytest.approx(b0.azimuth / 2.0, rel=1e-12)
    assert b3.elevation == pytest.approx(b0.elevation / 2.0, rel=1e-12)


def test_crb_rejects_degenerate_sinr(wave, array):
    for sinr_db in (float("-inf"), 3100.0, float("nan")):
        with pytest.raises(ValueError):
            theory.crb(wave, array, sinr_db, 0.0, 1.0)


def test_crb_axis_swap_symmetry():
    """At azimuth pi/4 the two array axes contribute symmetrically, so
    swapping rows and cols leaves the angle bounds unchanged."""
    wave = WaveformConfig(n_subcarriers=64, n_symbols=32)
    lam = wave.wavelength()
    a_tall = ArrayConfig(rows=8, cols=4, spacing=lam / 2, wavelength=lam)
    a_wide = ArrayConfig(rows=4, cols=8, spacing=lam / 2, wavelength=lam)
    bt = theory.crb(wave, a_tall, 5.0, np.pi / 4, 0.8)
    bw = theory.crb(wave, a_wide, 5.0, np.pi / 4, 0.8)
    assert bt.azimuth == pytest.approx(bw.azimuth, rel=1e-12)
    assert bt.elevation == pytest.approx(bw.elevation, rel=1e-12)


def test_crb_against_numerical_fisher_oracle():
    """Distance and velocity bounds match a finite-difference Fisher
    information computed from the raw signal model within 1%.

    Model: per (n, m, p) entry, mean sqrt(gamma * sigma^2) times the
    delay/Doppler phase ramp, complex noise variance sigma^2; the bound
    is the inverse Fisher information of the scalar parameter.
    """
    nc, ms, pq = 256, 64, 64
    df = 480e3
    wave = WaveformConfig(n_subcarriers=nc, n_symbols=ms,
                          subcarrier_spacing=df)
    lam = wave.wavelength()
    side = int(np.sqrt(pq))
    array = ArrayConfig(rows=side, cols=side, spacing=lam / 2,
                        wavelength=lam)
    gamma = 1.0           # 0 dB
    sigma2 = 1.0
    t_sym = wave.symbol_duration
    n = np.arange(nc)
    m = np.arange(ms)

    def mean_vec(d, v):
        ph_r = np.exp(-2j * np.pi * n * df * (2.0 * d / C))
        ph_d = np.exp(2j * np.pi * m * t_sym * (2.0 * v / lam))
        grid = np.outer(ph_r, ph_d)
        return np.sqrt(gamma * sigma2) * np.repeat(grid[None, :, :], pq,
                                                   axis=0)

    d0, v0 = 80.0, 12.0
    hd = 1e-4
    dmu_dd = (mean_vec(d0 + hd, v0) - mean_vec(d0 - hd, v0)) / (2 * hd)
    fisher_d = (2.0 / sigma2) * np.sum(np.abs(dmu_dd) ** 2)
    hv = 1e-3
    dmu_dv = (mean_vec(d0, v0 + hv) - mean_vec(d0, v0 - hv)) / (2 * hv)
    fisher_v = (2.0 / sigma2) * np.sum(np.abs(dmu_dv) ** 2)

    bound = theory.crb(wave, array, 0.0, 0.0, 1.0)
    assert bound.distance == pytest.approx(1.0 / fisher_d, rel=0.01)
    assert bound.velocity == pytest.approx(1.0 / fisher_v, rel=0.01)


# -- location error propagation -----------------------------------------

def test_location_radial_only_error():
    dd = np.array([0.3, -0.2])
    zero = np.zeros(2)
    se = theory.location_error_samples(dd, zero, zero, 50.0, 0.7, 1.1)
    np.testing.assert_allclose(se, dd ** 2, atol=1e-12)


def test_location_boresight_elevation_zero():
    """At zero elevation the radial error is purely vertical: dz = dd."""
    dd = np.array([0.5])
    zero = np.zeros(1)
    se = theory.location_error_samples(dd, zero, zero, 40.0, 1.2, 0.0)
    assert se[0] == pytest.approx(0.25, abs=1e-12)


def test_location_angle_terms_scale_with_distance_squared():
    daz = np.array([1e-3])
    de = np.array([-2e-3])
    zero = np.zeros(1)
    s1 = theory.location_error_samples(zero, daz, de, 30.0, 0.4, 0.9)
    s2 = theory.location_error_samples(zero, daz, de, 60.0, 0.4, 0.9)
    assert s2[0] / s1[0] == pytest.approx(4.0, rel=1e-12)


def test_location_first_order_matches_spherical_oracle():
    """Small-perturbation squared error matches exact spherical coordinate
    displacement within 1%."""
    d, az, el = 70.0, 0.5, 1.0
    dd, daz, de = 2e-3, 1.5e-3, -1e-3

    def point(r, a, e):
        return r * np.array([np.sin(e) * np.cos(a),
                             np.sin(e) * np.sin(a),
                             np.cos(e)])

    exact = np.sum((point(d + dd, az + daz, el + de) - point(d, az, el)) ** 2)
    got = theory.location_error_samples(np.array([dd]), np.array([daz]),
                                        np.array([de]), d, az, el)[0]
    assert got == pytest.approx(exact, rel=0.01)


# -- perturbation predictions -------------------------------------------

def _setup(seed, wave, array, noise, sinr_db, n_scatterers=2):
    scen = generate_scenario(seed, n_scatterers=n_scatterers)
    beams = channel.build_beamformers(scen, array)
    p = channel.calibrate_power_sense(scen, wave, beams, noise, sinr_db)
    return scen, beams, wave.with_power(p)


def test_perturbation_report_reproducible(wave, array, noise):
    scen, beams, w = _setup(4, wave, array, noise, 5.0)
    r1 = theory.perturbation_report(scen, w, array, beams, noise, seed=3,
                                    n_draws=200)
    r2 = theory.perturbation_report(scen, w, array, beams, noise, seed=3,
                                    n_draws=200)
    assert r1 == r2


def test_mse_vanishes_with_noise(wave, array, noise):
    """Raising power 60 dB shrinks every predicted MSE by ~1e6.

    Single-path scene: with scatterers the resolvable-component count
    changes across such a large power swing and breaks pure scaling.
    """
    scen, beams, w = _setup(4, wave, array, noise, 0.0, n_scatterers=0)
    lo = theory.perturbation_report(scen, w, array, beams, noise, seed=0,
                                    n_draws=300)
    hi = theory.perturbation_report(scen, w.with_power(w.tx_power * 1e6),
                                    array, beams, noise, seed=0,
                                    n_draws=300)
    for name in ("mse_azimuth", "mse_elevation", "mse_distance",
                 "mse_doppler", "mse_velocity", "mse_location"):
        assert getattr(hi, name) == pytest.approx(
            getattr(lo, name) / 1e6, rel=0.05)


def test_mse_linear_in_noise_variance(wave, array, noise):
    """Quadrupling the noise variance quadruples the predicted MSEs."""
    scen, beams, w = _setup(6, wave, array, noise, 5.0)
    n4 = NoiseConfig(noise_var=4.0 * noise.noise_var,
                     inr_sense_db=noise.inr_sense_db)
    r1 = theory.perturbation_report(scen, w, array, beams, noise, seed=0,
                                    n_draws=400)
    r4 = theory.perturbation_report(scen, w, array, beams, n4, seed=0,
                                    n_draws=400)
    assert r4.mse_distance / r1.mse_distance == pytest.approx(4.0, rel=0.05)
    assert r4.mse_velocity / r1.mse_velocity == pytest.approx(4.0, rel=0.05)
    assert r4.mse_azimuth / r1.mse_azimuth == pytest.approx(4.0, rel=0.05)


def test_velocity_doppler_consistency(wave, array, noise):
    scen, beams, w = _setup(4, wave, array, noise, 5.0)
    rep = theory.perturbation_report(scen, w, array, beams, noise, seed=1,
                                     n_draws=300)
    lam = w.wavelength()
    assert rep.mse_velocity == pytest.approx(
        (lam / 2.0) ** 2 * rep.mse_doppler, rel=1e-9)
    assert rep.mse_distance > 0 and rep.mse_location > 0


def test_prediction_tracks_simulation(wave, array, noise, noisy_snapshots):
    """Predicted range MSE sits within 3 dB of a small Monte Carlo run of
    the actual estimator at 10 dB S-SINR (single-path scene)."""
    from jcs_music.music import beamform_and_erase, music_range

    scen = generate_scenario(4, n_scatterers=0)
    beams = channel.build_beamformers(scen, array)
    p = channel.calibrate_power_sense(scen, wave, beams, noise, 10.0)
    w = wave.with_power(p)
    rng = np.random.default_rng(2)
    errs = []
    for _ in range(60):
        echo = channel.synthesize_echo(scen, w, array, beams, rng)
        w0 = channel.sense_rx_beamformer(array, scen.mue_path.aoa)
        h_bar = beamform_and_erase(noisy_snapshots(echo, rng, noise), w0,
                                   echo.symbols)
        ests, _ = music_range(h_bar, w, n_sources=1)
        d_hat = float(ests[0].value) / 2.0
        errs.append((d_hat - scen.mue_path.d1) ** 2)
    sim = np.mean(errs)
    rep = theory.perturbation_report(scen, w, array, beams, noise, seed=0,
                                     n_draws=2000)
    ratio_db = abs(10 * np.log10(rep.mse_distance / sim))
    assert ratio_db < 3.0


# -- one first-order stage ------------------------------------------------
# The per-parameter bodies the shared stage replaced, kept as references.

def _ramp_perturbation_draws(h_p, a, a1, sigma_tr2, n_paths, rng, n_draws):
    """Range or Doppler draws, one scalar parameter."""
    u, s, _ = np.linalg.svd(h_p, full_matrices=True)
    rank = theory._effective_rank(s, h_p.shape[0], h_p.shape[1], sigma_tr2,
                                  n_paths)
    u_s, s_s, u_0 = u[:, :rank], s[:rank], u[:, rank:]
    proj1 = u_0 @ (u_0.conj().T @ a1)
    h_0 = float(np.real(np.vdot(a1, proj1)))
    vnorm2 = float(np.sum(np.abs((u_s.conj().T @ a) / s_s) ** 2))
    z = theory._complex_normal(rng, (h_p.shape[0], n_draws),
                               sigma_tr2 * vnorm2)
    return np.real(proj1.conj().T @ z) / h_0


def _aoa_draws(y, a, first, sigma_w2, n_paths, rng, n_draws):
    """Azimuth and elevation draws, two parameters."""
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    rank = theory._effective_rank(s, y.shape[0], y.shape[1], sigma_w2,
                                  n_paths)
    u_s, s_s, u_0 = u[:, :rank], s[:rank], u[:, rank:]
    proj0 = u_0 @ (u_0.conj().T @ first)
    h_p0 = np.real(first.conj().T @ proj0)
    vnorm2 = float(np.sum(np.abs((u_s.conj().T @ a) / s_s) ** 2))
    z = theory._complex_normal(rng, (y.shape[0], n_draws), sigma_w2 * vnorm2)
    return np.linalg.solve(h_p0, np.real(proj0.conj().T @ z))


@pytest.mark.parametrize("stage", ["range", "doppler", "aoa"])
def test_perturbation_stage_matches_per_parameter_bodies(stage, wave, array,
                                                         noise):
    """The shared stage reproduces each replaced body to rounding, d=1
    for range and Doppler, d=2 for AoA, and draws the same stream."""
    scen, beams, w = _setup(4, wave, array, noise, 5.0)
    real = theory._noiseless_echo(scen, w, array, beams,
                                  np.random.default_rng(0))
    p0 = scen.mue_path
    if stage == "aoa":
        y = real.snapshots.reshape(array.size, -1)
        a = spatial_steering(array, p0.aoa)
        a1, _ = spatial_steering_derivs(array, p0.aoa)
        var, ref_fn, new_a1 = noise.total_sense_var, _aoa_draws, a1
    else:
        h_p = real.beamform(channel.sense_rx_beamformer(array, p0.aoa)) \
            / real.symbols
        if stage == "range":
            y = h_p
            a, a1, _ = range_steering_derivs(w.n_subcarriers,
                                             w.subcarrier_spacing,
                                             2.0 * p0.d1, C)
        else:
            y = h_p.T
            a, a1, _ = doppler_steering_derivs(w.n_symbols, w.symbol_duration,
                                               2.0 * p0.v1 / w.wavelength())
        var = noise.total_sense_var * theory.inverse_symbol_power(w.qam_order)
        ref_fn, new_a1 = _ramp_perturbation_draws, a1[:, None]
    rng_ref, rng_new = np.random.default_rng(7), np.random.default_rng(7)
    ref = ref_fn(y, a, a1, var, scen.n_paths, rng_ref, 500)
    got = theory._perturbation_draws(
        *np.linalg.svd(y, full_matrices=False)[:2], y.shape, a, new_a1, var,
        scen.n_paths, rng_new, 500)
    assert got.shape == (new_a1.shape[1], 500)
    got = got if stage == "aoa" else got[0]
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_aoa_stage_matches_whole_tensor_oracle(wave, array, noise):
    """The AoA draws from the per-path factors equal the whole-tensor
    oracle on scenes of 1 to 6 paths, some with buried paths, and leave
    the generator where the oracle leaves it."""
    buried = 0
    for n_scatterers in range(6):
        for sinr_db in (-10.0, 0.0, 10.0):
            scen, beams, w = _setup(n_scatterers + 10, wave, array, noise,
                                    sinr_db, n_scatterers=n_scatterers)
            rng_ref = np.random.default_rng(n_scatterers)
            real = theory._noiseless_echo(scen, w, array, beams, rng_ref)
            y = real.snapshots.reshape(array.size, -1)
            a = spatial_steering(array, scen.mue_path.aoa)
            a1, _ = spatial_steering_derivs(array, scen.mue_path.aoa)
            var = noise.total_sense_var
            ref = _aoa_draws(y, a, a1, var, scen.n_paths, rng_ref, 300)
            rng_new = np.random.default_rng(n_scatterers)
            got = theory.aoa_perturbation_draws(scen, w, array, beams, noise,
                                                rng_new, 300)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
            s = np.linalg.svd(y, compute_uv=False)
            buried += theory._effective_rank(s, *y.shape, var,
                                             scen.n_paths) < scen.n_paths
    assert buried > 0


def test_perturbation_report_never_builds_the_echo_tensor(wave, array, noise,
                                                          monkeypatch):
    def refuse(self):
        raise AssertionError("the echo tensor was built")

    monkeypatch.setattr(channel.EchoRealization, "snapshots",
                        property(refuse))
    scen, beams, w = _setup(4, wave, array, noise, 5.0)
    rep = theory.perturbation_report(scen, w, array, beams, noise, seed=0,
                                     n_draws=100)
    assert rep.mse_azimuth > 0 and rep.mse_distance > 0
