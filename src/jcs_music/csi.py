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
    when divided by N_c - 1.
    """
    nc = h_hat.shape[0]
    if nc < 2:
        raise ValueError("need at least two subcarriers")
    cov = h_hat @ h_hat.conj().T / h_hat.shape[1]
    w = np.linalg.eigvalsh(cov)
    # eigvalsh is ascending: all but the last are the trailing ones
    return float(max(w[:-1].sum(), 0.0) / (nc - 1))


def initial_obs_variance(h_col: np.ndarray, tau_hat: float,
                         subcarrier_spacing: float) -> float:
    """Mean squared mismatch of phase-aligned subcarriers to the first one."""
    nc = len(h_col)
    if nc < 2:
        raise ValueError("need at least two subcarriers")
    n = np.arange(1, nc)
    aligned = np.exp(2j * np.pi * n * subcarrier_spacing * tau_hat) * h_col[1:]
    return float(np.mean(np.abs(aligned - h_col[0]) ** 2))


def kalman_enhance(h_hat: np.ndarray, tau_hat: float,
                   subcarrier_spacing: float, sigma_p2: float,
                   p_w0: float | None = None) -> np.ndarray:
    """Filter the LS CSI along subcarriers using the sensed LoS delay.

    The state model is a pure per-subcarrier phase rotation
    A = exp(-j 2 pi df tau); each OFDM symbol column is filtered
    independently, seeded by its own first-subcarrier observation.
    """
    nc, ms = h_hat.shape
    a = np.exp(-2j * np.pi * subcarrier_spacing * tau_hat)
    out = np.empty_like(h_hat)
    out[0, :] = h_hat[0, :]
    for m in range(ms):
        if p_w0 is None:
            p = initial_obs_variance(h_hat[:, m], tau_hat, subcarrier_spacing)
        else:
            p = p_w0
        h_prev = h_hat[0, m]
        for n in range(1, nc):
            pred = a * h_prev
            p_minus = (a * p * np.conj(a)).real
            denom = p_minus + sigma_p2
            gain = 1.0 if denom == 0 else p_minus / denom
            # unit gain means the observation is trusted outright; assign
            # it directly so the zero-obs-noise filter is an exact identity
            h_prev = h_hat[n, m] if gain == 1.0 \
                else pred + (h_hat[n, m] - pred) * gain
            p = (1.0 - gain) * p_minus
            out[n, m] = h_prev
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
    tx_bits = qam.labels_to_bits(tx_labels, order)
    rx_bits = qam.labels_to_bits(labels, order)
    errs = (tx_bits != rx_bits).sum(axis=-1)
    errs = np.where(erased, nbits, errs)
    ber = float(errs.sum() / (received.size * nbits))
    return DemodResult(labels=labels, ber=ber, n_erasures=int(erased.sum()))
