"""Sample covariance, eigendecomposition, and eigenvalue-gap source counting.

A split reads its noise subspace through one map x -> U_n^H x: an `eigh`
split multiplies by its trailing eigenvectors, conjugate-transposed once,
and the tall thin-SVD split applies the Householder reflectors of U_s, so
no rows x rows basis is formed on the estimator path."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np


@dataclass(frozen=True)
class SourceCount:
    count: int
    fallback: bool             # no differential passed the gap test


@dataclass(frozen=True)
class SubspaceDecomposition:
    eigenvalues: np.ndarray    # real, descending
    signal_basis: np.ndarray   # eigenvectors 0..count-1
    # x -> U_n^H x of a vector or a matrix x, U_n the orthonormal
    # complement of signal_basis
    noise_map: Callable[[np.ndarray], np.ndarray]
    source_count: int
    fallback: bool

    @property
    def noise_basis(self) -> np.ndarray:
        """U_n = (U_n^H I)^H, built on demand from the noise map."""
        eye = np.eye(len(self.signal_basis), dtype=self.signal_basis.dtype)
        return self.noise_map(eye).conj().T


def _apply_wy(k: int, vh: np.ndarray, w: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """U_n^H x = x[k:] - W (V^H x), see `_reflector_map`."""
    return x[k:] - w @ (vh @ x)


def _reflector_map(basis: np.ndarray):
    """x -> U_n^H x, U_n the trailing columns of the complete QR of the
    n x k `basis`, read from the Householder reflectors
    H_i = I - tau_i v_i v_i^H of `np.linalg.qr` in raw mode, so the
    n x n Q is never formed.  Their product in compact WY form
    (Golub & Van Loan, Matrix Computations, sec. 5.1.7) is
    Q = H_1 ... H_k = I - V T V^H, with V = [v_1 ... v_k] unit lower
    trapezoidal and T upper triangular, T_ii = tau_i and
    T[:i, i] = -tau_i T[:i, :i] V[:, :i]^H v_i.  So
    U_n^H x = (Q^H x)[k:] = x[k:] - W (V^H x) with W = V[k:] T^H: two
    products of width k, whatever the count.  Raw mode returns the
    transposed LAPACK output, so column i of h^T holds v_i below row i."""
    h, tau = np.linalg.qr(basis, mode="raw")
    k = len(tau)
    v = np.tril(h.T, -1)
    v[np.diag_indices(k)] = 1.0
    vh = v.conj().T
    t = np.zeros((k, k), dtype=h.dtype)
    for i in range(k):
        t[:i, i] = -tau[i] * (t[:i, :i] @ (vh[:i] @ v[:, i]))
        t[i, i] = tau[i]
    return partial(_apply_wy, k, vh, v[k:] @ t.conj().T)


def _matrix(snapshots: np.ndarray) -> np.ndarray:
    y = np.asarray(snapshots)
    if y.ndim != 2 or y.size == 0:
        raise ValueError("snapshots must be a nonempty 2-D matrix")
    return y


# Columns of the covariance one product takes: the conjugate of 16 rows of
# the 64 x 16 384 echo matrix is 4 MiB.  A tail of fewer than 4 rows
# joins the block before it, since OpenBLAS rounds 1- and 2-row products
# differently from the full product.
COVARIANCE_BLOCK_ROWS = 16


def _covariance(y: np.ndarray) -> np.ndarray:
    """`covariance` of a checked matrix.  It calls numpy only, so the
    harness runs it on a noise worker thread.

    Only the lower triangle is multiplied out, one column block
    R[j:, j:k] = Y[j:] Y[j:k]^H at a time, so the one copy it makes is
    the conjugate of COVARIANCE_BLOCK_ROWS rows of Y, not of all of Y.
    Each diagonal block is averaged with its conjugate transpose and the
    strict upper triangle is the conjugate of the lower, so R is exactly
    Hermitian whatever the BLAS.  Where the BLAS gives each block the
    bits of the full product Y Y^H and that product is exactly Hermitian
    (OpenBLAS 0.3.31 zgemm on the 64 x 16 384 AoA and 64 x 256 Doppler
    matrices), R is bit for bit the symmetrized full product
    0.5 (R_full + R_full^H)."""
    dim, n = y.shape
    edges = [*range(0, max(dim - 3, 1), COVARIANCE_BLOCK_ROWS), dim]
    r = np.empty((dim, dim), dtype=np.result_type(y, 1.0))
    for j, k in zip(edges, edges[1:]):
        r[j:, j:k] = y[j:] @ y[j:k].conj().T / n
        block = r[j:k, j:k]
        block[...] = 0.5 * (block + block.conj().T)
        r[j:k, k:] = r[k:, j:k].conj().T
    return r


def covariance(snapshots: np.ndarray) -> np.ndarray:
    """Hermitian sample covariance Y Y^H / n_snapshots, with the working
    set of `_covariance`: the output and one conjugate block of rows."""
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


def _source_count(w: np.ndarray, dim: int, max_rank: int | None,
                  n_sources: int | None) -> tuple[int, bool]:
    """(count, fallback) of descending eigenvalues w of a dim x dim
    covariance, as `decompose` documents it."""
    if n_sources is None:
        sc = detect_source_count(w, max_rank=max_rank)
        return sc.count, sc.fallback
    if 1 <= n_sources < dim:
        return int(n_sources), False
    raise ValueError(f"n_sources must be in [1, {dim}), got {n_sources}")


def decompose(cov: np.ndarray, max_rank: int | None = None,
              n_sources: int | None = None) -> SubspaceDecomposition:
    """Eigendecompose a covariance and split signal/noise subspaces.

    If n_sources is given it overrides the gap-based count (used when one
    stage reuses the count detected by another); it must leave both
    subspaces nonempty, 1 <= n_sources < dim.
    """
    w, u = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    count, fallback = _source_count(w, u.shape[0], max_rank, n_sources)
    return SubspaceDecomposition(
        eigenvalues=w, signal_basis=u[:, :count],
        noise_map=partial(np.matmul, u[:, count:].conj().T),
        source_count=count, fallback=fallback)


def decompose_snapshots(snapshots: np.ndarray,
                        n_sources: int | None = None) -> SubspaceDecomposition:
    """`decompose` of covariance(snapshots) with max_rank = min(shape).

    A tall matrix (more rows than snapshots) is split from its thin SVD
    Y = U S V^H: the covariance eigenvalues are S^2 / n_snapshots, padded
    with the structural zeros, and its signal basis is the leading
    columns U_s of U.  Its noise subspace is the orthonormal complement
    of U_s, the trailing columns of the complete QR of U_s, and the noise
    map applies the Householder reflectors of that QR, so neither the
    rank-deficient rows x rows covariance, the full U nor the complete Q
    is formed.  A count past the rank (an override, which the sweeps
    never make) takes its extra signal columns from the complement of U,
    which U's reflectors build on the rows x rows identity.  A wide or
    square matrix (the 64 x 256 Doppler matrix) takes the covariance
    `eigh`, which is the cheaper of the two there.
    """
    y = _matrix(snapshots)
    dim, n_snap = y.shape
    if dim <= n_snap:
        return decompose(covariance(y), max_rank=dim, n_sources=n_sources)
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    w = np.zeros(dim)
    w[:n_snap] = s ** 2 / n_snap
    count, fallback = _source_count(w, dim, n_snap, n_sources)
    if count > n_snap:
        extra = _reflector_map(u)(np.eye(dim))[:count - n_snap]
        u = np.hstack([u, extra.conj().T])
    signal = u[:, :count]
    return SubspaceDecomposition(
        eigenvalues=w, signal_basis=signal, noise_map=_reflector_map(signal),
        source_count=count, fallback=fallback)
