"""Steering vectors for planar arrays, subcarrier (range) and symbol (Doppler) axes.

The spatial vector for a P x Q uniform planar array stacks elements
row-major over (p, q): entry index i = p * Q + q.  This ordering is a
repo-wide constant; channel synthesis and every estimator rely on it.

All angles are radians.  Azimuth lies in [-pi, pi), elevation in [0, pi],
both measured in the array's local frame (elevation from the boresight
normal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT


@dataclass(frozen=True)
class Angle2D:
    """Azimuth/elevation pair in radians."""

    azimuth: float
    elevation: float


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array geometry."""

    rows: int
    cols: int
    spacing: float
    wavelength: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows/cols: must be >= 1")
        if self.spacing <= 0 or self.wavelength <= 0:
            raise ValueError("spacing/wavelength: must be > 0")

    @property
    def size(self) -> int:
        return self.rows * self.cols


def _element_indices(cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (p, q) index vectors of length P*Q."""
    p = np.repeat(np.arange(cfg.rows), cfg.cols)
    q = np.tile(np.arange(cfg.cols), cfg.rows)
    return p, q


def spatial_steering(cfg: ArrayConfig, angle: Angle2D) -> np.ndarray:
    """Unit-modulus steering vector of length P*Q for a far-field direction.

    Element (p, q) carries phase
    -(2*pi/lambda) * d * (p*cos(az)*sin(el) + q*sin(az)*sin(el)).
    """
    p, q = _element_indices(cfg)
    k = 2.0 * np.pi / cfg.wavelength * cfg.spacing
    u = p * np.cos(angle.azimuth) * np.sin(angle.elevation) \
        + q * np.sin(angle.azimuth) * np.sin(angle.elevation)
    return np.exp(-1j * k * u)


def spatial_steering_grid(cfg: ArrayConfig, azimuths: np.ndarray,
                          elevations: np.ndarray) -> np.ndarray:
    """Steering vectors for all (azimuth, elevation) pairs, shape (P*Q, len)."""
    az = np.asarray(azimuths, dtype=float)
    el = np.asarray(elevations, dtype=float)
    p, q = _element_indices(cfg)
    k = 2.0 * np.pi / cfg.wavelength * cfg.spacing
    u = (np.outer(p, np.cos(az) * np.sin(el))
         + np.outer(q, np.sin(az) * np.sin(el)))
    return np.exp(-1j * k * u)


def spatial_steering_derivs(cfg: ArrayConfig, angle: Angle2D):
    """Analytic derivatives of the spatial steering vector.

    Returns (first, second): first has shape (P*Q, 2) with columns
    (d/d_az, d/d_el); second has shape (P*Q, 2, 2) ordered
    [[az_az, az_el], [el_az, el_el]].
    """
    p, q = _element_indices(cfg)
    k = 2.0 * np.pi / cfg.wavelength * cfg.spacing
    ca, sa = np.cos(angle.azimuth), np.sin(angle.azimuth)
    ce, se = np.cos(angle.elevation), np.sin(angle.elevation)
    a = np.exp(-1j * k * (p * ca * se + q * sa * se))

    # phase psi = -k (p ca se + q sa se); derivatives of psi:
    psi_az = -k * se * (-p * sa + q * ca)
    psi_el = -k * ce * (p * ca + q * sa)
    psi_azaz = k * se * (p * ca + q * sa)
    psi_azel = -k * ce * (-p * sa + q * ca)
    psi_elel = k * se * (p * ca + q * sa)

    d_az = 1j * psi_az * a
    d_el = 1j * psi_el * a
    first = np.stack([d_az, d_el], axis=1)

    d_azaz = (1j * psi_azaz - psi_az ** 2) * a
    d_azel = (1j * psi_azel - psi_az * psi_el) * a
    d_elel = (1j * psi_elel - psi_el ** 2) * a
    second = np.empty((cfg.size, 2, 2), dtype=complex)
    second[:, 0, 0] = d_azaz
    second[:, 0, 1] = d_azel
    second[:, 1, 0] = d_azel
    second[:, 1, 1] = d_elel
    return first, second


def range_steering(n_subcarriers: int, subcarrier_spacing: float, r: float,
                   c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Round-trip-range steering vector across subcarriers.

    Entry n is exp(-j 2 pi n df r / c) for n = 0 .. N_c - 1.
    """
    n = np.arange(n_subcarriers)
    return np.exp(-2j * np.pi * n * subcarrier_spacing * r / c)


def range_steering_grid(n_subcarriers: int, subcarrier_spacing: float,
                        r: np.ndarray, c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Range steering vectors for many ranges, shape (N_c, len(r))."""
    n = np.arange(n_subcarriers)
    return np.exp(-2j * np.pi * subcarrier_spacing / c * np.outer(n, np.asarray(r)))


def doppler_steering(n_symbols: int, symbol_duration: float, f: float) -> np.ndarray:
    """Doppler steering vector across OFDM symbols: exp(+j 2 pi m T f)."""
    m = np.arange(n_symbols)
    return np.exp(2j * np.pi * m * symbol_duration * f)


def doppler_steering_grid(n_symbols: int, symbol_duration: float,
                          f: np.ndarray) -> np.ndarray:
    """Doppler steering vectors for many frequencies, shape (M_s, len(f))."""
    m = np.arange(n_symbols)
    return np.exp(2j * np.pi * symbol_duration * np.outer(m, np.asarray(f)))


def range_steering_derivs(n_subcarriers: int, subcarrier_spacing: float, r: float,
                          c: float = SPEED_OF_LIGHT):
    """(a, a', a'') of the range steering vector at r."""
    n = np.arange(n_subcarriers)
    g = -2j * np.pi * n * subcarrier_spacing / c
    a = np.exp(g * r)
    return a, g * a, g ** 2 * a


def doppler_steering_derivs(n_symbols: int, symbol_duration: float, f: float):
    """(a, a', a'') of the Doppler steering vector at f."""
    m = np.arange(n_symbols)
    g = 2j * np.pi * m * symbol_duration
    a = np.exp(g * f)
    return a, g * a, g ** 2 * a
