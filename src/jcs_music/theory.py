"""Analytic performance predictions: first-order perturbation MSEs for
AoA, range, Doppler, velocity, and location, plus closed-form CRBs.

The perturbation formulas condition on a deterministic noiseless signal
(reflection factors at their RMS magnitude) and are averaged over
explicit noise draws.  The noise matrix only enters each formula through
a fixed projection of one of its slices, so an equivalent low-dimensional
Gaussian vector is drawn instead of the full matrix; this is exact for
Gaussian noise and keeps draw averaging cheap.

Each formula needs only the leading left singular pairs of its noiseless
matrix.  The AoA matrix Y = A X (PQ x N_c M_s) has rank at most L, so its
pairs come from the per-path factors: a QR of X^H and an SVD of the
PQ x L matrix A R^H (T. F. Chan, ACM TOMS 8(1), 1982); the PQ x N_c x M_s
tensor is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel, qam
from .channel import Beamformers, NoiseConfig, WaveformConfig, _complex_normal
from .scenario import Scenario
from .steering import (ArrayConfig, _element_indices, doppler_steering_derivs,
                       range_steering_derivs, spatial_steering,
                       spatial_steering_derivs)


@dataclass(frozen=True)
class TheoryReport:
    mse_azimuth: float          # rad^2
    mse_elevation: float        # rad^2
    mse_distance: float         # m^2, one-way
    mse_doppler: float          # Hz^2
    mse_velocity: float         # (m/s)^2
    mse_location: float         # m^2


@dataclass(frozen=True)
class CrbReport:
    distance: float             # m^2, one-way
    velocity: float             # (m/s)^2
    azimuth: float              # rad^2
    elevation: float            # rad^2


def inverse_symbol_power(order: int) -> float:
    """E[1 / |d|^2] over a uniform unit-energy QAM draw."""
    pts = qam.constellation(order)
    return float(np.mean(1.0 / np.abs(pts) ** 2))


def _effective_rank(s: np.ndarray, n_rows: int, n_cols: int,
                    noise_var: float, max_rank: int) -> int:
    """Signal components the estimator can actually resolve.

    Components whose singular value sits below the noise matrix's own
    singular-value scale, sigma*(sqrt(rows)+sqrt(cols)), are buried: the
    estimator's subspace split treats them as noise, so including them in
    the linear response (pseudo-inverse amplification and curvature)
    overstates the predicted error.  At least the dominant component is
    always kept.
    """
    floor = np.sqrt(noise_var) * (np.sqrt(n_rows) + np.sqrt(n_cols))
    return max(1, min(max_rank, int(np.sum(s > floor))))


def _noiseless_echo(scenario: Scenario, wave: WaveformConfig,
                    array: ArrayConfig, beams: Beamformers,
                    rng: np.random.Generator) -> channel.EchoRealization:
    """Noiseless echo, every reflection factor at its RMS magnitude."""
    rms = np.array([np.sqrt(p.reflect_var_sense) for p in scenario.paths],
                   dtype=complex)
    return channel.synthesize_echo(scenario, wave, array, beams, rng,
                                   reflections=rms)


def _perturbation_draws(u: np.ndarray, s: np.ndarray, shape: tuple,
                        a: np.ndarray, a1: np.ndarray, noise_var: float,
                        n_paths: int, rng: np.random.Generator,
                        n_draws: int) -> np.ndarray:
    """Draws of the first-order error of d parameters, shape (d, n_draws).

    u (rows, k) and s (k,) are the leading left singular pairs of the
    noiseless matrix of the given (rows, cols) shape, k at least its
    effective rank.  The steering vector a (rows,) and its derivatives
    a1 (rows, d) run down its rows.  The error is a fixed linear map of
    the noise projected onto the signal subspace, normalized by the
    d x d noise-subspace curvature.
    """
    rank = _effective_rank(s, shape[0], shape[1], noise_var, n_paths)
    u_s, s_s = u[:, :rank], s[:rank]
    proj = a1 - u_s @ (u_s.conj().T @ a1)           # P0 a1, (rows, d)
    curvature = np.real(a1.conj().T @ proj)         # d x d (no 2x)
    # ||V_s Sigma^-1 U_s^H a|| with orthonormal V_s columns
    vnorm2 = float(np.sum(np.abs((u_s.conj().T @ a) / s_s) ** 2))
    z = _complex_normal(rng, (shape[0], n_draws), noise_var * vnorm2)
    return np.linalg.solve(curvature, np.real(proj.conj().T @ z))


def aoa_perturbation_draws(scenario: Scenario, wave: WaveformConfig,
                           array: ArrayConfig, beams: Beamformers,
                           noise: NoiseConfig, rng: np.random.Generator,
                           n_draws: int = 1000) -> np.ndarray:
    """Draws of the direct-path AoA error (azimuth, elevation), shape (2, n),
    from the array rows of the noiseless snapshot matrix Y = A X.

    With X^H = Q R, Y = (A R^H) Q^H and Q has orthonormal columns, so Y's
    left singular pairs are those of the PQ x L matrix A R^H.
    """
    real = _noiseless_echo(scenario, wave, array, beams, rng)
    x = real.factors.reshape(len(real.factors), -1)
    r = np.linalg.qr(x.conj().T, mode="r")
    u, s, _ = np.linalg.svd(real.steering @ r.conj().T, full_matrices=False)
    p0 = scenario.mue_path.aoa
    first, _ = spatial_steering_derivs(array, p0)
    return _perturbation_draws(u, s, (array.size, x.shape[1]),
                               spatial_steering(array, p0), first,
                               noise.total_sense_var, scenario.n_paths, rng,
                               n_draws)


def range_doppler_perturbation_draws(scenario: Scenario, wave: WaveformConfig,
                                     array: ArrayConfig, beams: Beamformers,
                                     noise: NoiseConfig,
                                     rng: np.random.Generator,
                                     n_draws: int = 1000):
    """Draws of round-trip range error and Doppler error for the direct path.

    Returns (delta_r_rt, delta_f), each shape (n_draws,).  The effective
    per-entry noise variance accounts for the unit-norm beamformer and
    the symbol division's power inflation E[1/|d|^2].  One thin SVD of
    the (N_c, M_s) beam matrix serves both: range reads its left pairs,
    Doppler those of the transpose, conj(V).  The range stage draws from
    rng before the Doppler stage.
    """
    real = _noiseless_echo(scenario, wave, array, beams, rng)
    w = channel.sense_rx_beamformer(array, scenario.mue_path.aoa)
    h_p = real.beamform(w) / real.symbols
    u, s, vh = np.linalg.svd(h_p, full_matrices=False)
    sigma_tr2 = noise.total_sense_var * inverse_symbol_power(wave.qam_order)
    lam = wave.wavelength()
    p0 = scenario.mue_path

    a, a1, _ = range_steering_derivs(wave.n_subcarriers,
                                     wave.subcarrier_spacing, 2.0 * p0.d1,
                                     wave.c)
    delta_r = _perturbation_draws(u, s, h_p.shape, a, a1[:, None], sigma_tr2,
                                  scenario.n_paths, rng, n_draws)[0]
    a, a1, _ = doppler_steering_derivs(wave.n_symbols, wave.symbol_duration,
                                       2.0 * p0.v1 / lam)
    delta_f = _perturbation_draws(vh.T, s, h_p.T.shape, a, a1[:, None],
                                  sigma_tr2, scenario.n_paths, rng,
                                  n_draws)[0]
    return delta_r, delta_f


def location_error_samples(delta_d: np.ndarray, delta_az: np.ndarray,
                           delta_el: np.ndarray, distance: float,
                           azimuth: float, elevation: float) -> np.ndarray:
    """Squared location error per draw from first-order coordinate errors.

    delta_d is the one-way radial error; angles are the spherical
    coordinates of the target in the array frame.
    """
    se, ce = np.sin(elevation), np.cos(elevation)
    sa, ca = np.sin(azimuth), np.cos(azimuth)
    r = distance
    dx = delta_d * se * ca + r * (delta_el * ce * ca - delta_az * se * sa)
    dy = delta_d * se * sa + r * (delta_az * se * ca + delta_el * ce * sa)
    dz = delta_d * ce - r * delta_el * se
    return dx ** 2 + dy ** 2 + dz ** 2


def perturbation_report(scenario: Scenario, wave: WaveformConfig,
                        array: ArrayConfig, beams: Beamformers,
                        noise: NoiseConfig, seed: int = 0,
                        n_draws: int = 1000) -> TheoryReport:
    """Predicted direct-path estimation MSEs at the configured power.

    Reported range/velocity MSEs follow the harness conventions: one-way
    distance (round-trip error halved) and radial velocity (half a
    wavelength per unit Doppler).
    """
    rng = np.random.default_rng(seed)
    dp = aoa_perturbation_draws(scenario, wave, array, beams, noise, rng,
                                n_draws)
    dr_rt, df = range_doppler_perturbation_draws(scenario, wave, array, beams,
                                                 noise, rng, n_draws)
    lam = wave.wavelength()
    delta_d = dr_rt / 2.0
    p0 = scenario.mue_path
    loc = location_error_samples(delta_d, dp[0], dp[1], p0.d1,
                                 p0.aoa.azimuth, p0.aoa.elevation)
    return TheoryReport(mse_azimuth=float(np.mean(dp[0] ** 2)),
                        mse_elevation=float(np.mean(dp[1] ** 2)),
                        mse_distance=float(np.mean(delta_d ** 2)),
                        mse_doppler=float(np.mean(df ** 2)),
                        mse_velocity=float(np.mean((lam * df / 2.0) ** 2)),
                        mse_location=float(np.mean(loc)))


def crb(wave: WaveformConfig, array: ArrayConfig, sinr_db: float,
        azimuth: float, elevation: float) -> CrbReport:
    """Closed-form single-target bounds at a given S-SINR in dB."""
    gamma = channel.db_to_power(sinr_db)
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("SINR must be finite and positive in linear scale")
    lam = wave.wavelength()
    nc, ms = wave.n_subcarriers, wave.n_symbols
    pq = array.size
    n2 = np.sum(np.arange(nc) ** 2) * wave.subcarrier_spacing ** 2
    m2 = np.sum(np.arange(ms) ** 2) * wave.symbol_duration ** 2
    c_r = wave.c ** 2 / (32.0 * np.pi ** 2 * gamma * ms * pq * n2)
    c_v = lam ** 2 / (32.0 * np.pi ** 2 * gamma * nc * pq * m2)

    p, q = _element_indices(array)
    se, ce = np.sin(elevation), np.cos(elevation)
    sa, ca = np.sin(azimuth), np.cos(azimuth)
    w_az = np.sum((q * ca * se - p * sa * se) ** 2)
    w_el = np.sum((p * ca * ce + q * sa * ce) ** 2)
    base = 8.0 * np.pi ** 2 * array.spacing ** 2 * gamma * nc * ms
    c_az = lam ** 2 / (base * w_az) if w_az > 0 else float("inf")
    c_el = lam ** 2 / (base * w_el) if w_el > 0 else float("inf")
    return CrbReport(distance=float(c_r), velocity=float(c_v),
                     azimuth=float(c_az), elevation=float(c_el))
