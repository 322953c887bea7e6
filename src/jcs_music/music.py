"""MUSIC estimators: 2D AoA search, per-beam symbol erasure, and one
line-spectrum core for range and Doppler, each a coarse-grid search plus
Newton refinement; the plotted range and Doppler pseudo-spectra sample the
same ramp as a zero-padded DFT."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import WaveformConfig
from .constants import SPEED_OF_LIGHT
from .steering import (Angle2D, ArrayConfig, doppler_steering_derivs,
                       range_steering_derivs, spatial_steering,
                       spatial_steering_derivs, spatial_steering_grid)
from .subspace import (SubspaceDecomposition, decompose,
                       decompose_snapshots, smoothed_covariance)

NEWTON_MAX_ITER = 20
NEWTON_TOL = 1e-7
CURVATURE_TOL = 1e-14
AOA_GRID_STEP_DEG = 1.0
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


def _peaks_1d(spec: np.ndarray, n_peaks: int) -> np.ndarray:
    """Indices of strict local maxima on a periodic grid, strongest first,
    top n_peaks."""
    left = np.roll(spec, 1)
    right = np.roll(spec, -1)
    mask = (spec > left) & (spec > right)
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        idx = np.array([int(np.argmax(spec))])
    order = np.argsort(spec[idx])[::-1]
    return idx[order][:n_peaks]


def _peaks_2d(spec: np.ndarray, n_peaks: int):
    """(i, j) indices of strict 8-neighbor local maxima, strongest first.

    Axis 0 (azimuth) is treated circularly; axis 1 edges compare against
    available neighbors only.
    """
    s = spec
    best = np.full(s.shape, -np.inf)
    for di in (-1, 0, 1):
        shifted = np.roll(s, di, axis=0)
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            sh = np.roll(shifted, dj, axis=1)
            if dj == 1:
                sh[:, 0] = -np.inf
            elif dj == -1:
                sh[:, -1] = -np.inf
            best = np.maximum(best, sh)
    mask = s > best
    ii, jj = np.nonzero(mask)
    if len(ii) == 0:
        flat = int(np.argmax(s))
        ii, jj = np.array([flat // s.shape[1]]), np.array([flat % s.shape[1]])
    order = np.argsort(s[ii, jj])[::-1]
    return ii[order][:n_peaks], jj[order][:n_peaks]


@lru_cache(maxsize=8)
def _aoa_grid(rows: int, cols: int, spacing: float, wavelength: float):
    """Coarse AoA grid and its steering matrix, cached per array config."""
    step = AOA_GRID_STEP_DEG
    az = np.deg2rad(np.arange(-180.0, 180.0, step))
    el = np.deg2rad(np.arange(0.0, 90.0 + step / 2, step))
    azg, elg = np.meshgrid(az, el, indexing="ij")
    cfg = ArrayConfig(rows, cols, spacing, wavelength)
    a = spatial_steering_grid(cfg, azg.ravel(), elg.ravel())
    return az, el, a


def music_aoa(cov: np.ndarray, array: ArrayConfig,
              n_sources: int | None = None):
    """2D AoA estimates from the PQ x PQ sample covariance of the echo.

    cov is `covariance` of the (PQ, N_c*M_s) echo matrix; the
    estimated-beam draw takes it beside the tensor.  Its `eigh` is split
    with max_rank = PQ.  Returns (list of SpectrumEstimate with
    Angle2D-like value arrays, SubspaceDecomposition).
    """
    if np.shape(cov) != (array.size, array.size):
        raise ValueError(f"cov must be the {array.size} x {array.size} "
                         f"array covariance, got shape {np.shape(cov)}")
    dec = decompose(cov, max_rank=array.size, n_sources=n_sources)
    us = dec.signal_basis
    un = dec.noise_basis

    az, el, a_grid = _aoa_grid(array.rows, array.cols, array.spacing,
                               array.wavelength)
    # f = ||a||^2 - ||U_s^H a||^2; signal-subspace form is cheap when
    # the source count is small
    proj = us.conj().T @ a_grid
    f_grid = (array.size - np.sum(np.abs(proj) ** 2, axis=0))
    f_grid = f_grid.reshape(len(az), len(el))
    spec = 1.0 / np.maximum(f_grid, 1e-300)

    ii, jj = _peaks_2d(spec, dec.source_count)
    scale = np.deg2rad(AOA_GRID_STEP_DEG)
    estimates = []
    for i, j in zip(ii, jj):
        est = _newton_refine_aoa(np.array([az[i], el[j]]), un, array, scale)
        estimates.append(est)
    return estimates, dec


def _newton_refine_aoa(p0: np.ndarray, noise_basis: np.ndarray,
                       array: ArrayConfig, scale: float) -> SpectrumEstimate:
    un = noise_basis
    unh = un.conj().T

    def evaluate(p):
        ang = Angle2D(float(p[0]), float(p[1]))
        first, second = spatial_steering_derivs(array, ang)
        a = spatial_steering(array, ang)
        wa = un @ (unh @ a)
        f = float(np.real(np.vdot(a, wa)))
        grad = 2.0 * np.real(first.conj().T @ wa)
        w1 = un @ (unh @ first)
        hess = 2.0 * np.real(first.conj().T @ w1)
        for r_ in range(2):
            for c_ in range(2):
                hess[r_, c_] += 2.0 * np.real(np.vdot(second[:, r_, c_], wa))
        return f, grad, hess

    return newton_refine_1d(p0, evaluate, scale)


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
    proj = np.fft.fft(basis, n=n_grid, axis=0)
    f = signal_basis.shape[0] - np.sum(np.abs(proj) ** 2, axis=1)
    return 1.0 / np.maximum(f, 1e-300)


def _line_spectrum_music(snapshots: np.ndarray, n_grid: int, sign: int,
                         step: float, ramp_derivs, n_sources: int | None):
    """Line-spectrum MUSIC for a phase ramp down the rows of `snapshots`.

    The ramp has period n_grid * step in its parameter x, with sign and
    derivatives ramp_derivs(x) = (a, a', a'').  The coarse grid
    x_i = i * step covers one period; each of the source_count strongest
    grid peaks is refined by Newton on the noise-subspace objective
    ||U_n^H a(x)||^2.  Returns (estimates, decomposition).
    """
    dec = decompose_snapshots(snapshots, n_sources=n_sources)
    spec = _ramp_grid_spectrum(dec.signal_basis, n_grid, sign)
    idx = _peaks_1d(spec, dec.source_count)
    un = dec.noise_basis
    unh = un.conj().T

    def derivs(x):
        a, a1, a2 = ramp_derivs(float(x))
        wa = un @ (unh @ a)
        f = float(np.real(np.vdot(a, wa)))
        g = 2.0 * float(np.real(np.vdot(a1, wa)))
        wa1 = un @ (unh @ a1)
        h = 2.0 * float(np.real(np.vdot(a2, wa)) + np.real(np.vdot(a1, wa1)))
        return f, g, h

    period = n_grid * step
    estimates = [_wrap_estimate(newton_refine_1d(float(i * step), derivs, step),
                                period) for i in idx]
    return estimates, dec


def _wrap_estimate(est: SpectrumEstimate, period: float) -> SpectrumEstimate:
    """Map a refined ramp parameter into [0, period): Newton may step
    across the wrap of the periodic grid.  In-domain values are kept as
    they are."""
    if 0.0 <= est.value < period:
        return est
    x = est.value % period
    return replace(est, value=x if x < period else 0.0)


def music_range(h_bar: np.ndarray, wave: WaveformConfig,
                c: float = SPEED_OF_LIGHT, n_sources: int | None = None):
    """Round-trip range estimates from a per-beam channel matrix.

    The ramp runs across subcarriers; the coarse grid steps half an FFT
    range bin over the unambiguous round trip c / df.
    """
    nc, df = wave.n_subcarriers, wave.subcarrier_spacing
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


def range_spectrum(h_bar: np.ndarray, wave: WaveformConfig,
                   c: float = SPEED_OF_LIGHT):
    """(round-trip range grid, MUSIC pseudo-spectrum) over the unambiguous
    range c / df, sampled at SPECTRUM_OVERSAMPLE * N_c points."""
    grid = np.arange(0.0, c / wave.subcarrier_spacing,
                     c / (SPECTRUM_OVERSAMPLE * wave.bandwidth))
    return grid, _smoothed_ramp_spectrum(
        h_bar, SPECTRUM_OVERSAMPLE * wave.n_subcarriers, -1)


def doppler_spectrum(h_bar: np.ndarray, wave: WaveformConfig):
    """(Doppler grid, MUSIC pseudo-spectrum) over the unambiguous interval
    [0, 1/T), sampled at SPECTRUM_OVERSAMPLE * M_s points."""
    f_max = 1.0 / wave.symbol_duration
    grid = np.arange(0.0, f_max, f_max / (SPECTRUM_OVERSAMPLE * wave.n_symbols))
    return grid, _smoothed_ramp_spectrum(
        h_bar.T, SPECTRUM_OVERSAMPLE * wave.n_symbols, 1)
