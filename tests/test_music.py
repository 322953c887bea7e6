"""Subspace estimators: noiseless exactness, Newton refinement behavior,
and invariances of the pseudo-spectrum."""

import numpy as np
import pytest

from jcs_music import bind, channel, harness, load_config, music
from jcs_music.channel import NoiseConfig, WaveformConfig
from jcs_music.fft_baseline import pslr_db
from jcs_music.music import (NEWTON_MAX_ITER, NEWTON_TOL, SpectrumEstimate,
                             _newton_step, _peaks_1d, _ramp_grid_spectrum,
                             beamform_and_erase, doppler_spectrum, music_aoa,
                             music_doppler, music_range, newton_refine_1d,
                             range_spectrum)
from jcs_music.scenario import generate_scenario
from jcs_music.steering import (ArrayConfig, doppler_steering,
                                doppler_steering_grid, range_steering,
                                range_steering_grid, spatial_steering)
from jcs_music.subspace import (covariance, decompose, decompose_snapshots,
                                smoothed_covariance)

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


def _noiseless_echo(seed, wave, array, noise, n_scatterers=2):
    scen = generate_scenario(seed, n_scatterers=n_scatterers)
    beams = channel.build_beamformers(scen, array)
    rng = np.random.default_rng(seed + 1000)
    echo = channel.synthesize_echo(scen, wave, array, beams, noise, rng,
                                   noiseless=True, c=C)
    return scen, beams, echo


def test_noiseless_noise_subspace_orthogonality(wave, array, noise):
    """True steering vectors lie in the signal subspace for every stage,
    across 50 random scenes."""
    for seed in range(50):
        scen, _, echo = _noiseless_echo(seed, wave, array, noise)
        rank = scen.n_paths
        y = echo.snapshots.reshape(array.size, -1)
        # SVD of the snapshots spans the same subspace as the covariance
        # eigenvectors without squaring the conditioning
        u = np.linalg.svd(y, full_matrices=False)[0]
        un = u[:, rank:]
        for p in scen.paths:
            a = spatial_steering(array, p.aoa)
            a = a / np.linalg.norm(a)
            assert np.linalg.norm(un.conj().T @ a) < 1e-8, seed

        # beam suppression drops scatterer eigenvalues toward the squared
        # machine floor, so the beamformed stages are checked on the
        # dominant direct path here and on all paths (equal gains) below
        w0 = channel.sense_rx_beamformer(array, scen.mue_path.aoa)
        h_bar = beamform_and_erase(echo.snapshots, w0, echo.symbols)
        un_r = np.linalg.svd(h_bar, full_matrices=True)[0][:, rank:]
        lam = wave.wavelength(C)
        p0 = scen.mue_path
        a = range_steering(wave.n_subcarriers, wave.subcarrier_spacing,
                           2.0 * p0.d1, C)
        a = a / np.linalg.norm(a)
        assert np.linalg.norm(un_r.conj().T @ a) < 1e-8, seed

        un_f = np.linalg.svd(h_bar.T, full_matrices=True)[0][:, rank:]
        m = np.arange(wave.n_symbols)
        fd = 2.0 * p0.v1 / lam
        a = np.exp(2j * np.pi * m * wave.symbol_duration * fd)
        a = a / np.linalg.norm(a)
        assert np.linalg.norm(un_f.conj().T @ a) < 1e-8, seed


def test_noiseless_orthogonality_all_paths_equal_gain(wave, array, noise):
    """With comparable per-path gains every true range and Doppler ramp is
    orthogonal to the noise subspace, across 50 random scenes."""
    nc, ms = wave.n_subcarriers, wave.n_symbols
    lam = wave.wavelength(C)
    n = np.arange(nc)
    m = np.arange(ms)
    for seed in range(50):
        scen = generate_scenario(seed)
        h_bar = np.zeros((nc, ms), dtype=complex)
        ramps = []
        for p in scen.paths:
            ra = np.exp(-2j * np.pi * n * wave.subcarrier_spacing
                        * 2.0 * p.d1 / C)
            da = np.exp(2j * np.pi * m * wave.symbol_duration
                        * 2.0 * p.v1 / lam)
            ramps.append((ra, da))
            h_bar += np.outer(ra, da)
        rank = scen.n_paths
        un_r = decompose(covariance(h_bar), n_sources=rank).noise_basis
        un_f = decompose(covariance(h_bar.T), n_sources=rank).noise_basis
        for ra, da in ramps:
            assert np.linalg.norm(un_r.conj().T @ (ra / np.sqrt(nc))) < 1e-8
            assert np.linalg.norm(un_f.conj().T @ (da / np.sqrt(ms))) < 1e-8


# -- Newton refinement --------------------------------------------------

def test_newton_exact_quadratic_one_step():
    target = 3.7

    def derivs(x):
        return (x - target) ** 2, 2.0 * (x - target), 2.0

    est = newton_refine_1d(0.0, derivs, scale=1.0)
    assert est.converged
    assert est.value == pytest.approx(target, abs=1e-12)
    assert est.iterations <= 2  # one descent step plus the stop check

    # the same routine refines a vector parameter (the AoA pair)
    target2 = np.array([0.4, -1.3])
    hess = np.array([[2.0, 0.5], [0.5, 1.0]])

    def derivs2(p):
        d = p - target2
        return float(d @ hess @ d), 2.0 * hess @ d, 2.0 * hess

    est = newton_refine_1d(np.zeros(2), derivs2, scale=1.0)
    assert est.converged
    np.testing.assert_allclose(est.value, target2, atol=1e-12)
    assert est.iterations <= 2


def test_newton_fixed_point_stays_put():
    def derivs(x):
        return x ** 2 + 1.0, 2.0 * x, 2.0

    est = newton_refine_1d(0.0, derivs, scale=1.0)
    assert est.converged
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_newton_singular_curvature_reverts():
    def derivs(x):
        return float(x), 1.0, 0.0

    est = newton_refine_1d(5.0, derivs, scale=1.0)
    assert not est.converged
    assert est.value == 5.0


def test_newton_objective_increase_reverts():
    # Newton on this concave bump would step away and raise the objective
    def derivs(x):
        return -x ** 2 + 1.0, -2.0 * x, -2.0

    est = newton_refine_1d(0.5, derivs, scale=1.0)
    assert not est.converged
    assert est.value == 0.5


def _newton_oracle(x0, derivs, scale):
    """The Newton loop as it stood before each point was evaluated once:
    it evaluated x0 twice, each accepted point twice and the final point
    once more."""
    x = x0
    f0, _, _ = derivs(x0)
    f_best = f0
    converged = False
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        f, g, h = derivs(x)
        step = _newton_step(g, h)
        if step is None:
            x, f_best = x0, f0
            break
        x_new = x - step
        f_new, _, _ = derivs(x_new)
        if f_new > f_best + 1e-12:
            x, f_best = x0, f0
            break
        x, f_best = x_new, f_new
        if np.max(np.abs(step)) < NEWTON_TOL * scale:
            converged = True
            break
    f_final, _, _ = derivs(x)
    return SpectrumEstimate(value=x, spectrum=1.0 / max(f_final, 1e-300),
                            objective=f_final, iterations=it,
                            converged=converged)


_NEWTON_CASES = {
    # (derivs, x0, converged, points evaluated beyond the iteration
    # count: x0 plus one point per step taken)
    "converged": (lambda x: (np.cosh(x - 1.3), np.sinh(x - 1.3),
                             np.cosh(x - 1.3)), 0.0, True, 1),
    "vector": (lambda p: (float(np.sum(np.cosh(p - [0.4, -1.3]))),
                          np.sinh(p - [0.4, -1.3]),
                          np.diag(np.cosh(p - [0.4, -1.3]))),
               np.zeros(2), True, 1),
    # x^4: each step keeps 2/3 of x, too slow to converge in 20 steps
    "max-iterations": (lambda x: (x ** 4, 4.0 * x ** 3, 12.0 * x ** 2),
                       1.0, False, 1),
    "reverted": (lambda x: (-x ** 2 + 1.0, -2.0 * x, -2.0), 0.5, False, 1),
    # the curvature vanishes at the first accepted point, x = 1: no step
    # is taken from it, so no point beyond it is visited
    "singular-curvature": (lambda x: ((x - 1.0) ** 2, 2.0 * (x - 1.0),
                                      2.0 if x < 1.0 else 0.0),
                           0.0, False, 0),
}


@pytest.mark.parametrize("case", list(_NEWTON_CASES))
def test_newton_evaluates_each_point_once(case):
    fn, x0, converged, extra = _NEWTON_CASES[case]
    calls = []

    def derivs(x):
        calls.append(x)
        return fn(x)

    est = newton_refine_1d(x0, derivs, scale=1.0)
    assert est.converged == converged
    assert len(calls) == est.iterations + extra

    ref = _newton_oracle(x0, fn, scale=1.0)
    np.testing.assert_array_equal(est.value, ref.value)
    assert np.shape(est.value) == np.shape(ref.value)
    assert (est.spectrum, est.objective, est.iterations, est.converged) == \
        (ref.spectrum, ref.objective, ref.iterations, ref.converged)


def test_newton_on_music_objectives_equals_oracle(wave, array, noise, rng,
                                                  monkeypatch):
    """Range, Doppler and AoA refinements of a noisy echo give the same
    estimates, field for field, as the loop that evaluated points twice."""
    scen = generate_scenario(2)
    beams = channel.build_beamformers(scen, array)
    echo = channel.synthesize_echo(scen, wave, array, beams, noise, rng, c=C)
    w0 = channel.sense_rx_beamformer(array, scen.mue_path.aoa)
    h_bar = echo.beamform(w0) / echo.symbols
    y = echo.snapshots.reshape(array.size, -1)

    def estimates():
        return (music_range(h_bar, wave, c=C)[0]
                + music_doppler(h_bar, wave)[0]
                + music_aoa(covariance(y), array)[0])

    new = estimates()
    monkeypatch.setattr(music, "newton_refine_1d", _newton_oracle)
    old = estimates()
    assert len(new) == len(old) > 3
    for e, o in zip(new, old):
        np.testing.assert_array_equal(e.value, o.value)
        assert (e.spectrum, e.objective, e.iterations, e.converged) == \
            (o.spectrum, o.objective, o.iterations, o.converged)


def test_spectrum_reciprocity():
    def derivs(x):
        return (x - 1.0) ** 2 + 0.25, 2.0 * (x - 1.0), 2.0

    est = newton_refine_1d(0.0, derivs, scale=1.0)
    assert est.spectrum * est.objective == pytest.approx(1.0, rel=1e-9)


def test_peaks_wrap_is_one_peak():
    """The range and Doppler grids are periodic: a maximum straddling the
    wrap (indices -1 and 0) is one peak, reported once."""
    spec = np.array([4.0, 2.0, 1.0, 0.5, 1.0, 2.0, 3.9])
    np.testing.assert_array_equal(_peaks_1d(spec, 2), [0])
    np.testing.assert_array_equal(_peaks_1d(spec[::-1], 2), [6])


# -- pseudo-spectra against the steering-matrix oracle -------------------

def _steering_spectrum(snapshots, steering_grid, n_sources=None,
                       window=None):
    """The arbitrary-grid pseudo-spectrum the package computed before its
    spectra moved onto the estimators' DFT grid: MUSIC on the rows of
    `snapshots` at the steering vectors steering_grid(dim) returns, shape
    (dim, n_points).  window selects the forward-backward subaperture-
    smoothed covariance instead of the plain one."""
    if window is None:
        dec = decompose_snapshots(snapshots, n_sources=n_sources)
    else:
        dec = decompose(smoothed_covariance(snapshots, window),
                        n_sources=n_sources)
    dim = dec.signal_basis.shape[0]
    a_grid = steering_grid(dim)
    f = dim - np.sum(np.abs(dec.signal_basis.conj().T @ a_grid) ** 2, axis=0)
    return 1.0 / np.maximum(f, 1e-300)


def _range_oracle(h_bar, wave, grid, c=C, n_sources=None, window=None):
    return _steering_spectrum(
        h_bar, lambda dim: range_steering_grid(dim, wave.subcarrier_spacing,
                                               grid, c),
        n_sources, window)


def _doppler_oracle(h_bar, wave, grid, n_sources=None, window=None):
    return _steering_spectrum(
        h_bar.T, lambda dim: doppler_steering_grid(dim, wave.symbol_duration,
                                                   grid),
        n_sources, window)


@pytest.mark.parametrize("wave", [WaveformConfig(),
                                  WaveformConfig(n_subcarriers=64,
                                                 n_symbols=32)],
                         ids=["default", "small"])
def test_fft_coarse_grid_matches_steering_spectrum(wave, rng):
    """The coarse range and Doppler grids hold one ramp period in exactly
    4*N_c and 2*M_s points, Newton's start points i*step are the grid
    points, and the zero-padded-DFT pseudo-spectrum equals the
    steering-matrix one on them."""
    nc, ms = wave.n_subcarriers, wave.n_symbols
    df, t = wave.subcarrier_spacing, wave.symbol_duration
    h_bar = rng.normal(size=(nc, ms)) + 1j * rng.normal(size=(nc, ms))
    for r, fd in ((37.2, 1.5e3), (120.9, -2.2e4)):
        h_bar += 3.0 * np.outer(range_steering(nc, df, r, C),
                                doppler_steering(ms, t, fd))

    r_step = C / (4.0 * wave.bandwidth)
    r_grid = np.arange(0.0, C / df, r_step)
    f_step = 1.0 / (2.0 * ms * t)
    f_grid = np.arange(0.0, 1.0 / t, f_step)
    assert len(r_grid) == 4 * nc
    assert len(f_grid) == 2 * ms
    np.testing.assert_array_equal(r_grid, np.arange(4 * nc) * r_step)
    np.testing.assert_array_equal(f_grid, np.arange(2 * ms) * f_step)

    us_r = decompose(covariance(h_bar), max_rank=min(h_bar.shape)).signal_basis
    us_f = decompose(covariance(h_bar.T),
                     max_rank=min(h_bar.shape)).signal_basis
    np.testing.assert_allclose(_ramp_grid_spectrum(us_r, 4 * nc, -1),
                               _range_oracle(h_bar, wave, r_grid),
                               rtol=1e-12)
    np.testing.assert_allclose(_ramp_grid_spectrum(us_f, 2 * ms, 1),
                               _doppler_oracle(h_bar, wave, f_grid),
                               rtol=1e-12)

    # the plotted spectra: one source on 16x finer grids of the same
    # period, from the half-aperture smoothed covariance
    r_fine, s_r = range_spectrum(h_bar, wave, c=C)
    f_fine, s_f = doppler_spectrum(h_bar, wave)
    np.testing.assert_array_equal(r_fine, np.arange(16 * nc) * (r_step / 4))
    np.testing.assert_array_equal(f_fine, np.arange(16 * ms) * (f_step / 8))
    np.testing.assert_allclose(
        s_r, _range_oracle(h_bar, wave, r_fine, n_sources=1, window=nc // 2),
        rtol=1e-10)
    np.testing.assert_allclose(
        s_f, _doppler_oracle(h_bar, wave, f_fine, n_sources=1,
                             window=ms // 2),
        rtol=1e-10)


# -- end-to-end noiseless estimates -------------------------------------

def test_noiseless_aoa_recovers_truth(wave, array, noise):
    scen, _, echo = _noiseless_echo(5, wave, array, noise, n_scatterers=1)
    y = echo.snapshots.reshape(array.size, -1)
    ests, dec = music_aoa(covariance(y), array, n_sources=scen.n_paths)
    assert len(ests) == 2
    for p in scen.paths:
        best = min(ests, key=lambda e: abs(float(e.value[0]) - p.aoa.azimuth)
                   + abs(float(e.value[1]) - p.aoa.elevation))
        assert float(best.value[0]) == pytest.approx(p.aoa.azimuth, abs=1e-4)
        assert float(best.value[1]) == pytest.approx(p.aoa.elevation, abs=1e-4)


def test_noiseless_range_matches_dense_grid_oracle(wave, array, noise):
    scen, _, echo = _noiseless_echo(8, wave, array, noise, n_scatterers=0)
    w0 = channel.sense_rx_beamformer(array, scen.mue_path.aoa)
    h_bar = beamform_and_erase(echo.snapshots, w0, echo.symbols)
    ests, _ = music_range(h_bar, wave, c=C)
    r_hat = float(ests[0].value)
    r_true = 2.0 * scen.mue_path.d1

    # independent dense-grid oracle at 1 mm spacing around the truth
    grid = np.arange(r_true - 2.0, r_true + 2.0, 1e-3)
    spec = _range_oracle(h_bar, wave, grid, n_sources=1)
    r_oracle = float(grid[np.argmax(spec)])
    assert abs(r_hat - r_oracle) < 1e-3
    assert abs(r_hat - r_true) < 1e-3
    # the plotted spectrum peaks at the grid point nearest the truth
    r_grid, spec = range_spectrum(h_bar, wave, c=C)
    assert abs(r_grid[np.argmax(spec)] - r_true) <= 0.5 * r_grid[1] + 1e-9


def test_noiseless_doppler_matches_truth(wave, array, noise):
    scen, _, echo = _noiseless_echo(9, wave, array, noise, n_scatterers=0)
    w0 = channel.sense_rx_beamformer(array, scen.mue_path.aoa)
    h_bar = beamform_and_erase(echo.snapshots, w0, echo.symbols)
    ests, _ = music_doppler(h_bar, wave, n_sources=1)
    f_true = 2.0 * scen.mue_path.v1 / wave.wavelength(C)
    f_span = 1.0 / wave.symbol_duration
    assert float(ests[0].value) % f_span == pytest.approx(f_true % f_span,
                                                          abs=1e-2)


def test_scaling_invariance(wave, array, noise, rng):
    scen = generate_scenario(2)
    beams = channel.build_beamformers(scen, array)
    echo = channel.synthesize_echo(scen, wave, array, beams, noise, rng, c=C)
    w0 = channel.sense_rx_beamformer(array, scen.mue_path.aoa)
    h_bar = beamform_and_erase(echo.snapshots, w0, echo.symbols)
    e1, _ = music_range(h_bar, wave, c=C)
    e2, _ = music_range((0.3 - 0.7j) * h_bar, wave, c=C)
    v1 = sorted(float(e.value) for e in e1)
    v2 = sorted(float(e.value) for e in e2)
    np.testing.assert_allclose(v1, v2, rtol=1e-9)


def test_column_permutation_invariance(wave, array, noise, rng):
    scen = generate_scenario(2)
    beams = channel.build_beamformers(scen, array)
    echo = channel.synthesize_echo(scen, wave, array, beams, noise, rng, c=C)
    y = echo.snapshots.reshape(array.size, -1)
    perm = rng.permutation(y.shape[1])
    e1, _ = music_aoa(covariance(y), array)
    e2, _ = music_aoa(covariance(y[:, perm]), array)
    v1 = sorted(tuple(np.round(e.value, 10)) for e in e1)
    v2 = sorted(tuple(np.round(e.value, 10)) for e in e2)
    assert v1 == v2


def test_music_aoa_rejects_what_is_not_the_array_covariance(array):
    """music_aoa takes the PQ x PQ covariance: the echo matrix or tensor
    it took before is refused, as is a covariance of another array."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal((array.size, 3 * array.size)) + 0j
    for bad in (y, y.reshape(array.size, 3, -1), covariance(y[1:])):
        with pytest.raises(ValueError, match="covariance"):
            music_aoa(bad, array)


def test_beamform_rejects_zero_symbols(array):
    snaps = np.ones((array.size, 4, 3), dtype=complex)
    sym = np.ones((4, 3), dtype=complex)
    sym[2, 1] = 0.0
    w = np.ones(array.size, dtype=complex) / np.sqrt(array.size)
    with pytest.raises(ValueError):
        beamform_and_erase(snaps, w, sym)


def test_beamform_erase_scalar_oracle(array, rng):
    """Beamforming then symbol division equals the hand-computed entry."""
    snaps = rng.normal(size=(array.size, 3, 2)) \
        + 1j * rng.normal(size=(array.size, 3, 2))
    sym = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    w = rng.normal(size=array.size) + 1j * rng.normal(size=array.size)
    h = beamform_and_erase(snaps, w, sym)
    expected = np.vdot(w, snaps[:, 1, 0]) / sym[1, 0]
    assert h[1, 0] == pytest.approx(expected, rel=1e-12)


def test_pseudo_spectrum_peaks_at_truth(wave, array, noise):
    scen, _, echo = _noiseless_echo(11, wave, array, noise, n_scatterers=0)
    w0 = channel.sense_rx_beamformer(array, scen.mue_path.aoa)
    h_bar = beamform_and_erase(echo.snapshots, w0, echo.symbols)
    r_true = 2.0 * scen.mue_path.d1
    grid = np.linspace(r_true - 50.0, r_true + 50.0, 2001)
    spec = _range_oracle(h_bar, wave, grid, n_sources=1)
    assert abs(grid[np.argmax(spec)] - r_true) < 0.1
    # smoothed variant peaks at the same place
    spec_s = _range_oracle(h_bar, wave, grid, n_sources=1,
                           window=wave.n_subcarriers // 2)
    assert abs(grid[np.argmax(spec_s)] - r_true) < 0.1
    # and so does the plotted one, to within half its grid step
    r_grid, spec = range_spectrum(h_bar, wave, c=C)
    assert abs(r_grid[np.argmax(spec)] - r_true) <= 0.5 * r_grid[1] + 1e-9


def test_doppler_spectrum_window_variant(wave, array, noise):
    scen, _, echo = _noiseless_echo(12, wave, array, noise, n_scatterers=0)
    w0 = channel.sense_rx_beamformer(array, scen.mue_path.aoa)
    h_bar = beamform_and_erase(echo.snapshots, w0, echo.symbols)
    f_true = 2.0 * scen.mue_path.v1 / wave.wavelength(C)
    f_span = 1.0 / wave.symbol_duration
    grid = np.linspace(0.0, f_span, 4096, endpoint=False)
    spec = _doppler_oracle(h_bar, wave, grid, n_sources=1,
                           window=wave.n_symbols // 2)
    df = abs(grid[np.argmax(spec)] - f_true % f_span)
    assert min(df, f_span - df) < 2.0 * f_span / 4096
    # the plotted spectrum peaks at the grid point nearest the truth
    f_grid, spec = doppler_spectrum(h_bar, wave)
    df = abs(f_grid[np.argmax(spec)] - f_true % f_span)
    assert min(df, f_span - df) <= 0.5 * f_grid[1] + 1e-9


def test_estimate_fields_populated(wave, array, noise):
    scen, _, echo = _noiseless_echo(13, wave, array, noise, n_scatterers=0)
    y = echo.snapshots.reshape(array.size, -1)
    ests, dec = music_aoa(covariance(y), array, n_sources=1)
    assert dec.source_count == 1
    est = ests[0]
    assert isinstance(est, SpectrumEstimate)
    assert est.objective >= 0.0
    assert est.spectrum > 0.0
    assert est.iterations >= 1


@pytest.mark.parametrize("legacy_c", [False, True], ids=["exact_c", "legacy_c"])
def test_spectrum_snapshot_matches_steering_oracle(legacy_c, monkeypatch):
    """The snapshot's MUSIC spectra and PSLRs are the smoothed one-source
    steering-matrix spectra on grids of exactly 16*N_c and 16*M_s points."""
    ctx = bind(load_config(), legacy_c=legacy_c)
    seen = {}

    def spy(name):
        fn = getattr(music, name)

        def wrapped(h_bar, *args, **kwargs):
            seen[name] = (h_bar, fn(h_bar, *args, **kwargs))
            return seen[name][1]
        return wrapped

    for name in ("range_spectrum", "doppler_spectrum"):
        monkeypatch.setattr(music, name, spy(name))
    snap = harness.spectrum_snapshot(ctx, sinr_db=-20.0)

    wave = ctx.wave
    nc, ms = wave.n_subcarriers, wave.n_symbols
    h_bar, (r_grid, _) = seen["range_spectrum"]
    _, (f_grid, _) = seen["doppler_spectrum"]
    assert len(r_grid) == 16 * nc and len(f_grid) == 16 * ms
    np.testing.assert_array_equal(snap["range_grid_m"], r_grid / 2.0)
    want_r = _range_oracle(h_bar, wave, r_grid, c=ctx.c, n_sources=1,
                           window=nc // 2)
    want_f = _doppler_oracle(h_bar, wave, f_grid, n_sources=1,
                             window=ms // 2)
    for key, want in (("range", want_r), ("velocity", want_f)):
        np.testing.assert_allclose(snap[f"music_{key}_spectrum"],
                                   want / want.max(), rtol=1e-10)
        assert snap[f"music_{key}_pslr_db"] == pytest.approx(pslr_db(want),
                                                             rel=1e-10)
