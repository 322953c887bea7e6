"""MUSIC estimators: 2D AoA search, per-beam symbol erasure, and one
line-spectrum core for range and Doppler.  Each estimator searches a
coarse grid of the pseudo-spectrum 1/(n - ||U_s^H a||^2) and refines its
strongest peaks by Newton descent on the one noise-subspace objective
||U_n^H a(x)||^2, read through the decomposition's noise map
x -> U_n^H x (trailing eigenvectors for AoA and Doppler, Householder
reflectors of U_s for range); the plotted range and Doppler
pseudo-spectra sample the same ramp as a zero-padded DFT."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import WaveformConfig
from .steering import (Angle2D, ArrayConfig, doppler_steering_derivs,
                       range_steering_derivs, spatial_steering,
                       spatial_steering_derivs, spatial_steering_grid)
from .subspace import (SubspaceDecomposition, decompose,
                       decompose_snapshots, smoothed_covariance)

NEWTON_MAX_ITER = 20
NEWTON_TOL = 1e-7
CURVATURE_TOL = 1e-14
AOA_GRID_STEP_DEG = 1.0
# grid columns `_aoa_grid` builds at a time: 1 MiB of steering for 8 x 8
AOA_GRID_CHUNK = 1024
# points per unit of N_c (range) or M_s (Doppler) in the plotted spectra
SPECTRUM_OVERSAMPLE = 16


@dataclass(frozen=True)
class SpectrumEstimate:
    value: np.ndarray | float       # refined parameter(s)
    spectrum: float                 # S = 1/f at the refined point
    objective: float                # f at the refined point
    iterations: int
    converged: bool


def _newton_step(g, h):
    """Newton update h^-1 g for a scalar or a vector parameter; None on
    singular curvature."""
    if np.ndim(h) == 0:
        return None if abs(h) < CURVATURE_TOL else g / h
    if abs(np.linalg.det(h)) < CURVATURE_TOL:
        return None
    return np.linalg.solve(h, g)


def newton_refine_1d(x0: float | np.ndarray, derivs,
                     scale: float) -> SpectrumEstimate:
    """Minimize a spectrum objective by Newton descent.

    x0 is a scalar or a 1-D parameter vector; derivs(x) must return
    (f, gradient, Hessian) of matching shape.  scale is the parameter's
    natural unit (coarse cell width); iteration stops once every
    |update| < tol * scale.  On singular curvature or an objective
    increase the start point is kept and the estimate flagged
    unconverged.  derivs is evaluated once per point visited, so it
    must be pure.
    """
    f0, g, h = derivs(x0)
    x, f_best = x0, f0
    converged = False
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        step = _newton_step(g, h)
        if step is None:
            x, f_best = x0, f0
            break
        x_new = x - step
        f_new, g, h = derivs(x_new)
        if f_new > f_best + 1e-12:
            x, f_best = x0, f0
            break
        x, f_best = x_new, f_new
        if np.max(np.abs(step)) < NEWTON_TOL * scale:
            converged = True
            break
    return SpectrumEstimate(value=x, spectrum=1.0 / max(f_best, 1e-300),
                            objective=f_best, iterations=it,
                            converged=converged)


def _peaks(spec: np.ndarray, n_peaks: int, wrap: tuple[bool, ...]):
    """Index arrays, one per axis, of the top n_peaks strict local maxima
    over all 3^d - 1 neighbours, strongest first; the argmax alone if
    there is none.  Axes marked in `wrap` are periodic; on the others an
    edge point compares only against the neighbours it has."""
    padded = spec
    for axis, periodic in enumerate(wrap):
        width = [(0, 0)] * spec.ndim
        width[axis] = (1, 1)
        padded = (np.pad(padded, width, mode="wrap") if periodic else
                  np.pad(padded, width, constant_values=-np.inf))
    best = np.full(spec.shape, -np.inf)
    for shift in itertools.product((0, 1, 2), repeat=spec.ndim):
        if shift != (1,) * spec.ndim:
            best = np.maximum(best, padded[tuple(
                slice(k, k + n) for k, n in zip(shift, spec.shape))])
    idx = np.nonzero(spec > best)
    if len(idx[0]) == 0:
        idx = np.unravel_index([int(np.argmax(spec))], spec.shape)
    order = np.argsort(spec[idx])[::-1][:n_peaks]
    return tuple(i[order] for i in idx)


def _subspace_objective(noise_map, steer):
    """derivs(x) = (f, gradient, Hessian) of f(x) = ||U_n^H a(x)||^2 for
    steer(x) = (a, a', a''), a' of shape (n,) or (n, d), a'' (n,) or
    (n, d, d).  One call of noise_map(X) = U_n^H X on X = [a, a', a'']
    gives b = [b_0, b_1, b_2], and f = ||b_0||^2, g = 2 Re(b_1^H b_0) and
    H = 2 Re(b_2^H b_0 + b_1^H b_1) for either shape: entries of the one
    product b^H [b_0, b_1]."""

    def derivs(x):
        a, a1, a2 = steer(x)
        n = len(a)
        d = a1.size // n
        b = noise_map(np.column_stack([a, a1.reshape(n, d),
                                       a2.reshape(n, d * d)]))
        gram = b.conj().T @ b[:, :1 + d]
        f = float(gram[0, 0].real)
        g = 2.0 * gram[1:1 + d, 0].real
        h = 2.0 * (gram[1 + d:, 0].reshape(d, d) + gram[1:1 + d, 1:]).real
        return f, g.reshape(a1.shape[1:])[()], h.reshape(a2.shape[1:])[()]

    return derivs


def _refine_peaks(dec: SubspaceDecomposition, spec: np.ndarray, wrap,
                  start, steer, scale: float) -> list[SpectrumEstimate]:
    """Newton descent of the noise-subspace objective of steer from
    start(*index) of each of the dec.source_count strongest peaks of spec."""
    derivs = _subspace_objective(dec.noise_map, steer)
    return [newton_refine_1d(start(*idx), derivs, scale)
            for idx in zip(*_peaks(spec, dec.source_count, wrap))]


def _pseudo_spectrum(proj: np.ndarray, n: int, axis: int) -> np.ndarray:
    """1/||U_n^H a||^2 = 1/(n - ||U_s^H a||^2) of unit-modulus steering
    vectors of length n, from the projections U_s^H a along `axis`."""
    return 1.0 / np.maximum(n - np.sum(np.abs(proj) ** 2, axis=axis), 1e-300)


@lru_cache(maxsize=8)
def _aoa_grid(rows: int, cols: int, spacing: float, wavelength: float):
    """Coarse AoA grid (az over [-180, 180), el over [0, 90] degrees) and
    the steering matrix of its azimuths in [-180, 0) only, cached per
    array config and read-only, since every `music_aoa` shares it.

    a(az + pi, el) = conj(a(az, el)), so the other half of the grid is
    the conjugate of this one; that needs az + pi on the grid, so 180
    degrees must be a whole number of AOA_GRID_STEP_DEG steps.  The half
    matrix is PQ x (180 * 91) at the 1-degree step: 16.8 MB for 8 x 8.
    It is filled AOA_GRID_CHUNK columns at a time by
    `spatial_steering_grid`, which computes each column on its own, so
    the temporaries of one chunk, not of the whole grid, sit beside it
    and every entry is what one call over the whole grid gives.
    """
    step = AOA_GRID_STEP_DEG
    if (180.0 / step) % 1:
        raise ValueError("AOA_GRID_STEP_DEG must divide 180 degrees, "
                         f"got {step}")
    az = np.deg2rad(np.arange(-180.0, 180.0, step))
    el = np.deg2rad(np.arange(0.0, 90.0 + step / 2, step))
    azg, elg = np.meshgrid(az[:len(az) // 2], el, indexing="ij")
    azg, elg = azg.ravel(), elg.ravel()
    cfg = ArrayConfig(rows, cols, spacing, wavelength)
    a_half = np.empty((cfg.size, len(azg)), dtype=complex)
    for i in range(0, len(azg), AOA_GRID_CHUNK):
        part = slice(i, i + AOA_GRID_CHUNK)
        a_half[:, part] = spatial_steering_grid(cfg, azg[part], elg[part])
    for arr in (az, el, a_half):
        arr.flags.writeable = False
    return az, el, a_half


def _aoa_spectrum(signal_basis: np.ndarray, array: ArrayConfig):
    """(az, el, pseudo-spectrum of shape (len(az), len(el))) on the coarse
    AoA grid, from one product [U_s, conj(U_s)]^H A_half with the cached
    half-azimuth steering: |U_s^H conj(a)| = |conj(U_s)^H a|, so the
    conjugate rows give the azimuths in [0, 180)."""
    az, el, a_half = _aoa_grid(array.rows, array.cols, array.spacing,
                               array.wavelength)
    proj = np.vstack([signal_basis.conj().T, signal_basis.T]) @ a_half
    spec = _pseudo_spectrum(proj.reshape(2, signal_basis.shape[1], -1),
                            array.size, axis=1)
    return az, el, spec.reshape(len(az), len(el))


def music_aoa(cov: np.ndarray, array: ArrayConfig,
              n_sources: int | None = None):
    """2D AoA estimates from the PQ x PQ sample covariance of the echo.

    cov is `covariance` of the (PQ, N_c*M_s) echo matrix; the
    estimated-beam draw takes it beside the tensor.  Its `eigh` is split
    with max_rank = PQ, and the grid spectrum reads the half-azimuth
    steering of `_aoa_grid` through `_aoa_spectrum`.  Returns (list of
    SpectrumEstimate with Angle2D-like value arrays,
    SubspaceDecomposition).
    """
    if np.shape(cov) != (array.size, array.size):
        raise ValueError(f"cov must be the {array.size} x {array.size} "
                         f"array covariance, got shape {np.shape(cov)}")
    dec = decompose(cov, max_rank=array.size, n_sources=n_sources)
    az, el, spec = _aoa_spectrum(dec.signal_basis, array)

    def steer(p):
        ang = Angle2D(float(p[0]), float(p[1]))
        return (spatial_steering(array, ang),
                *spatial_steering_derivs(array, ang))

    return _refine_peaks(dec, spec, (True, False),
                         lambda i, j: np.array([az[i], el[j]]), steer,
                         np.deg2rad(AOA_GRID_STEP_DEG)), dec


def beamform_and_erase(snapshots: np.ndarray, w_rx: np.ndarray,
                       symbols: np.ndarray) -> np.ndarray:
    """Beamform the echo tensor and divide out the transmit symbols.

    snapshots: (PQ, N_c, M_s); returns the (N_c, M_s) per-beam channel
    estimate H_bar.  The estimated-beam trial reads its beam here, from
    the tensor its AoA was estimated on; a beam fixed before synthesis is
    read from the echo's factors by `EchoRealization.beamform`.
    """
    if np.any(symbols == 0):
        raise ValueError("cannot erase zero-valued symbols")
    ybar = np.tensordot(w_rx.conj(), snapshots, axes=([0], [0]))
    return ybar / symbols


def _ramp_grid_spectrum(signal_basis: np.ndarray, n_grid: int,
                        sign: int) -> np.ndarray:
    """Pseudo-spectrum of the phase ramp a_i[k] = exp(sign j 2 pi k i / n_grid)
    at i = 0 .. n_grid - 1.

    U_s^H a_i over the whole grid is one zero-padded DFT of the signal
    basis (conjugated for the negative ramp), so no steering matrix is
    built.
    """
    basis = signal_basis.conj() if sign < 0 else signal_basis
    return _pseudo_spectrum(np.fft.fft(basis, n=n_grid, axis=0),
                            signal_basis.shape[0], axis=1)


def _line_spectrum_music(snapshots: np.ndarray, n_grid: int, sign: int,
                         step: float, ramp_derivs, n_sources: int | None):
    """Line-spectrum MUSIC for a phase ramp down the rows of `snapshots`.

    The ramp has period n_grid * step in its parameter x, with sign and
    derivatives ramp_derivs(x) = (a, a', a'').  The coarse grid
    x_i = i * step covers one period.  Returns (estimates, decomposition).
    """
    dec = decompose_snapshots(snapshots, n_sources=n_sources)
    spec = _ramp_grid_spectrum(dec.signal_basis, n_grid, sign)
    estimates = _refine_peaks(dec, spec, (True,), lambda i: float(i * step),
                              ramp_derivs, step)
    return [_wrap_estimate(e, n_grid * step) for e in estimates], dec


def _wrap_estimate(est: SpectrumEstimate, period: float) -> SpectrumEstimate:
    """Map a refined ramp parameter into [0, period): Newton may step
    across the wrap of the periodic grid.  In-domain values are kept as
    they are."""
    if 0.0 <= est.value < period:
        return est
    x = est.value % period
    return replace(est, value=x if x < period else 0.0)


def music_range(h_bar: np.ndarray, wave: WaveformConfig,
                n_sources: int | None = None):
    """Round-trip range estimates from a per-beam channel matrix.

    The ramp runs across subcarriers; the coarse grid steps half an FFT
    range bin over the unambiguous round trip c / df.
    """
    nc, df, c = wave.n_subcarriers, wave.subcarrier_spacing, wave.c
    return _line_spectrum_music(
        h_bar, 4 * nc, -1, c / (4.0 * wave.bandwidth),
        lambda r: range_steering_derivs(nc, df, r, c), n_sources)


def music_doppler(h_bar: np.ndarray, wave: WaveformConfig,
                  n_sources: int | None = None):
    """Doppler-frequency estimates from a per-beam channel matrix.

    The ramp runs across OFDM symbols; the coarse grid steps half an FFT
    Doppler bin over the unambiguous interval [0, 1/T).
    """
    ms, t = wave.n_symbols, wave.symbol_duration
    return _line_spectrum_music(
        h_bar.T, 2 * ms, 1, 1.0 / (2.0 * ms * t),
        lambda f: doppler_steering_derivs(ms, t, f), n_sources)


def _smoothed_ramp_spectrum(rows: np.ndarray, n_grid: int,
                            sign: int) -> np.ndarray:
    """One-source pseudo-spectrum of a phase ramp down `rows` on n_grid
    points, from the half-aperture forward-backward smoothed covariance,
    which keeps the subspace usable at deep-negative SINR at the cost of
    a wider main lobe."""
    dec = decompose(smoothed_covariance(rows, rows.shape[0] // 2),
                    n_sources=1)
    return _ramp_grid_spectrum(dec.signal_basis, n_grid, sign)


def range_spectrum(h_bar: np.ndarray, wave: WaveformConfig):
    """(round-trip range grid, MUSIC pseudo-spectrum) over the unambiguous
    range c / df, sampled at SPECTRUM_OVERSAMPLE * N_c points."""
    grid = np.arange(0.0, wave.c / wave.subcarrier_spacing,
                     wave.c / (SPECTRUM_OVERSAMPLE * wave.bandwidth))
    return grid, _smoothed_ramp_spectrum(
        h_bar, SPECTRUM_OVERSAMPLE * wave.n_subcarriers, -1)


def doppler_spectrum(h_bar: np.ndarray, wave: WaveformConfig):
    """(Doppler grid, MUSIC pseudo-spectrum) over the unambiguous interval
    [0, 1/T), sampled at SPECTRUM_OVERSAMPLE * M_s points."""
    f_max = 1.0 / wave.symbol_duration
    grid = np.arange(0.0, f_max, f_max / (SPECTRUM_OVERSAMPLE * wave.n_symbols))
    return grid, _smoothed_ramp_spectrum(
        h_bar.T, SPECTRUM_OVERSAMPLE * wave.n_symbols, 1)
