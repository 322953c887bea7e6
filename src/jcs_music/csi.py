"""CSI estimation and enhancement: LS estimate from preambles, observation
noise variance estimation, a per-symbol Kalman filter that exploits the
sensed delay, and ML equalization/demodulation with BER accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qam


def ls_csi(received: np.ndarray, preamble: np.ndarray, tx_power: float) -> np.ndarray:
    """Least-squares CSI: divide received preamble samples by the known
    symbols and the transmit amplitude."""
    if np.any(preamble == 0):
        raise ValueError("preamble contains zero symbols")
    if tx_power <= 0:
        raise ValueError("tx_power must be positive")
    return received / (np.sqrt(tx_power) * preamble)


def estimate_sigma_p(h_hat: np.ndarray) -> float:
    """Observation-noise variance from the trailing eigenvalue floor.

    For an LoS-dominant channel the per-snapshot covariance
    H H^H / M_s has one signal eigenvalue; the remaining eigenvalues
    (structural zeros included) average to the per-entry noise variance
    when divided by N_c - 1.  The nonzero eigenvalues are those of the
    smaller Gram matrix (H^H H when N_c > M_s) divided by M_s, so the sum
    of all but its largest eigenvalue gives the floor and the
    N_c x N_c covariance is never formed when it is the larger.
    """
    nc, ms = h_hat.shape
    if nc < 2:
        raise ValueError("need at least two subcarriers")
    gram = h_hat.conj().T @ h_hat if nc > ms else h_hat @ h_hat.conj().T
    # eigvalsh is ascending: all but the last are the trailing ones; a
    # noiseless channel's floor may round below zero
    floor = np.sum(np.linalg.eigvalsh(gram)[:-1]) / ms / (nc - 1)
    return max(float(floor), 0.0)


def initial_obs_variance(h: np.ndarray, tau_hat: float,
                         subcarrier_spacing: float) -> float | np.ndarray:
    """Mean squared mismatch of phase-aligned subcarriers to the first one.

    A (N_c,) column gives a float; a (N_c, M_s) matrix gives one value
    per column.
    """
    h = np.asarray(h)
    nc = h.shape[0]
    if nc < 2:
        raise ValueError("need at least two subcarriers")
    n = np.arange(1, nc).reshape((-1,) + (1,) * (h.ndim - 1))
    aligned = np.exp(2j * np.pi * n * subcarrier_spacing * tau_hat) * h[1:]
    var = np.mean(np.abs(aligned - h[0]) ** 2, axis=0)
    return float(var) if h.ndim == 1 else var


def kalman_enhance(h_hat: np.ndarray, tau_hat: float,
                   subcarrier_spacing: float, sigma_p2: float,
                   p_w0: float | np.ndarray | None = None) -> np.ndarray:
    """Filter the LS CSI along subcarriers using the sensed LoS delay.

    The state model is a pure per-subcarrier phase rotation
    A = exp(-j 2 pi df tau) with no process noise; each OFDM symbol column
    is filtered independently, seeded by its own first-subcarrier
    observation y_0 with error variance p_0 (``p_w0``, or per column
    ``initial_obs_variance`` when None).  With |A| = 1 the error variance
    obeys 1/p_n = 1/p_0 + n/sigma^2, and the filter is a derotated
    weighted running mean, evaluated in closed form:

        h_n = A^n (sigma^2 y_0 + p_0 sum_{i=1..n} A^-i y_i)
              / (sigma^2 + n p_0).

    sigma^2 = 0 trusts every observation and returns a copy of ``h_hat``
    exactly; p_0 = 0 trusts the seed and gives A^n y_0.  A recursive
    filter whose gain rounds to exactly 1 (p_0 / sigma^2 above about
    2^53) would lock onto that observation; the closed form keeps
    averaging.
    """
    h_hat = np.asarray(h_hat)
    if sigma_p2 == 0:
        return h_hat.copy()
    nc = h_hat.shape[0]
    p0 = initial_obs_variance(h_hat, tau_hat, subcarrier_spacing) \
        if p_w0 is None else p_w0
    n = np.arange(nc)[:, None]
    ramp = np.exp(-2j * np.pi * subcarrier_spacing * tau_hat * n)  # A^n
    # running sum of the derotated observations A^-i y_i, i = 1..n
    acc = np.cumsum(h_hat[1:] * ramp[1:].conj(), axis=0)
    out = np.empty(h_hat.shape, dtype=complex)
    out[0] = h_hat[0]
    out[1:] = ramp[1:] * (sigma_p2 * h_hat[0] + p0 * acc) \
        / (sigma_p2 + n[1:] * p0)
    return out


@dataclass(frozen=True)
class DemodResult:
    labels: np.ndarray
    ber: float
    n_erasures: int


def equalize_and_demodulate(received: np.ndarray, csi: np.ndarray,
                            tx_power: float, order: int,
                            tx_labels: np.ndarray | None = None) -> DemodResult:
    """ML hard-decision demodulation after one-tap equalization.

    Entries with zero CSI cannot be equalized; they are flagged as
    erasures and every bit they carry counts as an error.
    """
    csi = np.asarray(csi)
    erased = csi == 0
    safe = np.where(erased, 1.0, csi)
    r_hat = received / (np.sqrt(tx_power) * safe)
    labels = qam.demodulate(r_hat, order)
    if tx_labels is None:
        return DemodResult(labels=labels, ber=float("nan"),
                           n_erasures=int(erased.sum()))
    nbits = order.bit_length() - 1
    errs = np.where(erased, nbits, qam.bit_errors(tx_labels, labels))
    ber = float(errs.sum() / (received.size * nbits))
    return DemodResult(labels=labels, ber=ber, n_erasures=int(erased.sum()))
