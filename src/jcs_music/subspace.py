"""Sample covariance, eigendecomposition, and eigenvalue-gap source counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SourceCount:
    count: int
    fallback: bool             # no differential passed the gap test


@dataclass(frozen=True)
class SubspaceDecomposition:
    eigenvalues: np.ndarray    # real, descending
    signal_basis: np.ndarray   # columns 0..count-1
    noise_basis: np.ndarray    # remaining columns
    source_count: int
    fallback: bool


def _matrix(snapshots: np.ndarray) -> np.ndarray:
    y = np.asarray(snapshots)
    if y.ndim != 2 or y.size == 0:
        raise ValueError("snapshots must be a nonempty 2-D matrix")
    return y


def _covariance(y: np.ndarray) -> np.ndarray:
    """`covariance` of a checked matrix.  It calls numpy only, so the
    harness runs it on a noise worker thread."""
    r = y @ y.conj().T / y.shape[1]
    return 0.5 * (r + r.conj().T)


def covariance(snapshots: np.ndarray) -> np.ndarray:
    """Hermitian sample covariance Y Y^H / n_snapshots."""
    return _covariance(_matrix(snapshots))


def smoothed_covariance(snapshots: np.ndarray, window: int) -> np.ndarray:
    """Forward-backward subaperture-averaged sample covariance for
    phase-ramp models.

    Slides a length-`window` subaperture down the rows, pools every
    (subaperture, column) pair as a snapshot, and averages the result with
    its conjugate flip J R* J.  Trades aperture for snapshot count; useful
    when the plain covariance is snapshot-starved at very low SINR.
    """
    y = _matrix(snapshots)
    n = y.shape[0]
    if not 1 <= window <= n:
        raise ValueError("window must be in [1, n_rows]")
    # (nwin, ncols, window) -> (window, nwin*ncols)
    sub = np.lib.stride_tricks.sliding_window_view(y, window, axis=0)
    xs = sub.transpose(2, 0, 1).reshape(window, -1)
    r = xs @ xs.conj().T / xs.shape[1]
    r = 0.5 * (r + r[::-1, ::-1].conj())
    return 0.5 * (r + r.conj().T)


def detect_source_count(eigenvalues: np.ndarray, epsilon: float = 1.0,
                        max_rank: int | None = None) -> SourceCount:
    """Count sources from the eigenvalue gap profile.

    The differential vector of the descending eigenvalues is compared
    against (1 + epsilon) times the mean of its latter half, which sits at
    the noise floor.  The count is the length of the contiguous run of
    qualifying gaps starting at the largest eigenvalue; the run is capped
    at max_rank - 1 so structural zeros of a rank-deficient sample
    covariance cannot register as sources.  If even the first gap fails
    the test, the count falls back to 1 and is flagged.
    """
    v_all = np.asarray(eigenvalues, dtype=float)
    if len(v_all) < 2:
        raise ValueError("need at least two eigenvalues")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    # a rank-deficient sample covariance pads the spectrum with structural
    # zeros; they sit below the noise floor and must not bias the gap mean
    n = len(v_all) if max_rank is None else min(len(v_all), max_rank)
    if n < 2:
        raise ValueError("max_rank leaves fewer than two eigenvalues")
    v = v_all[:n]
    vd = v[:-1] - v[1:]                       # vd[i] is the (i+1)th gap
    half_start = (n - 1) // 2                 # 1-based index floor((N-1)/2)
    tail = vd[half_start - 1:] if half_start >= 1 else vd
    vbar = tail.sum() / (n - half_start)
    thresh = (1.0 + epsilon) * vbar

    count = 0
    for i in range(n - 1):
        if vd[i] > thresh:
            count += 1
        else:
            break
    fallback = count == 0
    return SourceCount(count=max(count, 1), fallback=fallback)


def _split(w: np.ndarray, u: np.ndarray, max_rank: int | None,
           n_sources: int | None) -> SubspaceDecomposition:
    """Signal/noise split of descending eigenvalues w with eigenvectors
    u, as `decompose` documents it."""
    dim = u.shape[0]
    if n_sources is None:
        sc = detect_source_count(w, max_rank=max_rank)
        count, fallback = sc.count, sc.fallback
    elif 1 <= n_sources < dim:
        count, fallback = int(n_sources), False
    else:
        raise ValueError(f"n_sources must be in [1, {dim}), got {n_sources}")
    return SubspaceDecomposition(eigenvalues=w,
                                 signal_basis=u[:, :count],
                                 noise_basis=u[:, count:],
                                 source_count=count,
                                 fallback=fallback)


def decompose(cov: np.ndarray, max_rank: int | None = None,
              n_sources: int | None = None) -> SubspaceDecomposition:
    """Eigendecompose a covariance and split signal/noise subspaces.

    If n_sources is given it overrides the gap-based count (used when one
    stage reuses the count detected by another); it must leave both
    subspaces nonempty, 1 <= n_sources < dim.
    """
    w, u = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    return _split(w[order], u[:, order], max_rank, n_sources)


def decompose_snapshots(snapshots: np.ndarray,
                        n_sources: int | None = None) -> SubspaceDecomposition:
    """`decompose` of covariance(snapshots) with max_rank = min(shape).

    A tall matrix (more rows than snapshots) is split from its full SVD
    Y = U S V^H: the covariance eigenvalues are S^2 / n_snapshots, padded
    with the structural zeros, and its eigenvectors are the columns of U.
    That skips the rank-deficient rows x rows covariance and its `eigh`.
    A wide or square matrix (the 64 x 256 Doppler matrix) takes the
    covariance `eigh`, which is the cheaper of the two there.
    """
    y = _matrix(snapshots)
    dim, n_snap = y.shape
    if dim <= n_snap:
        return decompose(covariance(y), max_rank=dim, n_sources=n_sources)
    u, s, _ = np.linalg.svd(y)
    w = np.zeros(dim)
    w[:n_snap] = s ** 2 / n_snap
    return _split(w, u, n_snap, n_sources)
