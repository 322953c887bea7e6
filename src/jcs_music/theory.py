"""Analytic performance predictions: first-order perturbation MSEs for
AoA, range, Doppler, velocity, and location, plus closed-form CRBs.

The perturbation formulas condition on a deterministic noiseless signal
(reflection factors at their RMS magnitude) and are averaged over
explicit noise draws.  The noise matrix only enters each formula through
a fixed projection of one of its slices, so an equivalent low-dimensional
Gaussian vector is drawn instead of the full matrix; this is exact for
Gaussian noise and keeps draw averaging cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, qam
from .channel import Beamformers, NoiseConfig, WaveformConfig
from .constants import SPEED_OF_LIGHT
from .scenario import Scenario
from .steering import (ArrayConfig, doppler_steering_derivs,
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


def _complex_normal(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    std = np.sqrt(var / 2.0)
    return std * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


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
                    noise: NoiseConfig, rng: np.random.Generator,
                    c: float) -> channel.EchoRealization:
    """Noiseless echo, every reflection factor at its RMS magnitude."""
    rms = np.array([np.sqrt(p.reflect_var_sense) for p in scenario.paths],
                   dtype=complex)
    return channel.synthesize_echo(scenario, wave, array, beams, noise, rng,
                                   reflections=rms, noiseless=True, c=c)


def _perturbation_draws(y: np.ndarray, a: np.ndarray, a1: np.ndarray,
                        noise_var: float, n_paths: int,
                        rng: np.random.Generator, n_draws: int) -> np.ndarray:
    """Draws of the first-order error of d parameters, shape (d, n_draws).

    The steering vector a (dim,) and its derivatives a1 (dim, d) run down
    the rows of the noiseless matrix y.  The error is a fixed linear map
    of the noise projected onto the signal subspace, normalized by the
    d x d noise-subspace curvature.
    """
    # a tall y needs its full left basis; a wide y must not form a full V
    u, s, _ = np.linalg.svd(y, full_matrices=y.shape[0] > y.shape[1])
    rank = _effective_rank(s, y.shape[0], y.shape[1], noise_var, n_paths)
    u_s, s_s, u_0 = u[:, :rank], s[:rank], u[:, rank:]
    proj = u_0 @ (u_0.conj().T @ a1)                # P0 a1, (dim, d)
    curvature = np.real(a1.conj().T @ proj)         # d x d (no 2x)
    # ||V_s Sigma^-1 U_s^H a|| with orthonormal V_s columns
    vnorm2 = float(np.sum(np.abs((u_s.conj().T @ a) / s_s) ** 2))
    z = _complex_normal(rng, (y.shape[0], n_draws), noise_var * vnorm2)
    return np.linalg.solve(curvature, np.real(proj.conj().T @ z))


def aoa_perturbation_draws(scenario: Scenario, wave: WaveformConfig,
                           array: ArrayConfig, beams: Beamformers,
                           noise: NoiseConfig, rng: np.random.Generator,
                           n_draws: int = 1000,
                           c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Draws of the direct-path AoA error (azimuth, elevation), shape (2, n),
    from the array rows of the noiseless snapshot matrix."""
    real = _noiseless_echo(scenario, wave, array, beams, noise, rng, c)
    p0 = scenario.mue_path.aoa
    first, _ = spatial_steering_derivs(array, p0)
    return _perturbation_draws(real.snapshots.reshape(array.size, -1),
                               spatial_steering(array, p0), first,
                               noise.total_sense_var, scenario.n_paths, rng,
                               n_draws)


def range_doppler_perturbation_draws(scenario: Scenario, wave: WaveformConfig,
                                     array: ArrayConfig, beams: Beamformers,
                                     noise: NoiseConfig,
                                     rng: np.random.Generator,
                                     n_draws: int = 1000,
                                     c: float = SPEED_OF_LIGHT):
    """Draws of round-trip range error and Doppler error for the direct path.

    Returns (delta_r_rt, delta_f), each shape (n_draws,).  The effective
    per-entry noise variance accounts for the unit-norm beamformer and
    the symbol division's power inflation E[1/|d|^2].  The range stage
    draws from rng before the Doppler stage.
    """
    real = _noiseless_echo(scenario, wave, array, beams, noise, rng, c)
    w = channel.sense_rx_beamformer(array, scenario.mue_path.aoa)
    h_p = real.beamform(w) / real.symbols
    sigma_tr2 = noise.total_sense_var * inverse_symbol_power(wave.qam_order)
    lam = wave.wavelength(c)
    p0 = scenario.mue_path

    a, a1, _ = range_steering_derivs(wave.n_subcarriers,
                                     wave.subcarrier_spacing, 2.0 * p0.d1, c)
    delta_r = _perturbation_draws(h_p, a, a1[:, None], sigma_tr2,
                                  scenario.n_paths, rng, n_draws)[0]
    a, a1, _ = doppler_steering_derivs(wave.n_symbols, wave.symbol_duration,
                                       2.0 * p0.v1 / lam)
    delta_f = _perturbation_draws(h_p.T, a, a1[:, None], sigma_tr2,
                                  scenario.n_paths, rng, n_draws)[0]
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
                        n_draws: int = 1000,
                        c: float = SPEED_OF_LIGHT) -> TheoryReport:
    """Predicted direct-path estimation MSEs at the configured power.

    Reported range/velocity MSEs follow the harness conventions: one-way
    distance (round-trip error halved) and radial velocity (half a
    wavelength per unit Doppler).
    """
    rng = np.random.default_rng(seed)
    dp = aoa_perturbation_draws(scenario, wave, array, beams, noise, rng,
                                n_draws, c)
    dr_rt, df = range_doppler_perturbation_draws(scenario, wave, array, beams,
                                                 noise, rng, n_draws, c)
    lam = wave.wavelength(c)
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
        azimuth: float, elevation: float,
        c: float = SPEED_OF_LIGHT) -> CrbReport:
    """Closed-form single-target bounds at a given linear-scale S-SINR."""
    gamma = 10.0 ** (sinr_db / 10.0)
    if gamma <= 0:
        raise ValueError("SINR must be positive in linear scale")
    lam = wave.wavelength(c)
    nc, ms = wave.n_subcarriers, wave.n_symbols
    pq = array.size
    n2 = np.sum(np.arange(nc) ** 2) * wave.subcarrier_spacing ** 2
    m2 = np.sum(np.arange(ms) ** 2) * wave.symbol_duration ** 2
    c_r = c ** 2 / (32.0 * np.pi ** 2 * gamma * ms * pq * n2)
    c_v = lam ** 2 / (32.0 * np.pi ** 2 * gamma * nc * pq * m2)

    p = np.repeat(np.arange(array.rows), array.cols)
    q = np.tile(np.arange(array.cols), array.rows)
    se, ce = np.sin(elevation), np.cos(elevation)
    sa, ca = np.sin(azimuth), np.cos(azimuth)
    w_az = np.sum((q * ca * se - p * sa * se) ** 2)
    w_el = np.sum((p * ca * ce + q * sa * ce) ** 2)
    base = 8.0 * np.pi ** 2 * array.spacing ** 2 * gamma * nc * ms
    c_az = lam ** 2 / (base * w_az) if w_az > 0 else float("inf")
    c_el = lam ** 2 / (base * w_el) if w_el > 0 else float("inf")
    return CrbReport(distance=float(c_r), velocity=float(c_v),
                     azimuth=float(c_az), elevation=float(c_el))
