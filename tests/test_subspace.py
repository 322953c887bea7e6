"""Sample covariances, subspace splits, and eigenvalue-gap source counting
against hand-computable traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcs_music.subspace import (covariance, decompose, decompose_snapshots,
                                detect_source_count, smoothed_covariance)


def test_covariance_hermitian_psd(rng):
    y = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
    r = covariance(y)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-14)
    w = np.linalg.eigvalsh(r)
    assert w.min() > -1e-12


def test_covariance_rank_one_single_snapshot():
    v = np.array([1.0, 1j, -1.0, -1j])
    r = covariance(v[:, None])
    np.testing.assert_allclose(r, np.outer(v, v.conj()), atol=1e-14)
    w = np.linalg.eigvalsh(r)
    assert np.sum(w > 1e-10) == 1


def test_covariance_white_noise_level(rng):
    n = 20000
    y = (rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))) / np.sqrt(2)
    r = covariance(y)
    np.testing.assert_allclose(np.diag(r).real, 1.0, rtol=0.05)


def test_covariance_rejects_bad_input():
    with pytest.raises(ValueError):
        covariance(np.zeros(5))
    with pytest.raises(ValueError):
        covariance(np.zeros((0, 3)))


# -- hand-traced counting examples --------------------------------------

def test_count_two_clear_sources():
    v = np.array([10.0, 9.0] + [0.1] * 6)
    sc = detect_source_count(v, epsilon=1.0)
    assert sc.count == 2
    assert not sc.fallback


def test_count_flat_spectrum_falls_back():
    v = np.full(8, 3.0)
    sc = detect_source_count(v, epsilon=1.0)
    assert sc.count == 1
    assert sc.fallback


def test_count_single_dominant_source():
    v = np.array([100.0] + [1.0] * 7)
    sc = detect_source_count(v, epsilon=1.0)
    assert sc.count == 1
    assert not sc.fallback


def test_count_ignores_structural_zeros():
    """Trailing exact zeros from a rank-deficient sample covariance must not
    drag the noise-floor estimate to zero and inflate the count."""
    noise_floor = 0.1 * 0.99 ** np.arange(6)       # gently decaying floor
    v = np.concatenate([[10.0, 9.0], noise_floor, np.zeros(24)])
    sc = detect_source_count(v, epsilon=1.0, max_rank=8)
    assert sc.count == 2
    unclamped = detect_source_count(v, epsilon=1.0)
    assert unclamped.count > 2  # documents why the clamp exists


def test_count_input_validation():
    with pytest.raises(ValueError):
        detect_source_count(np.array([1.0]))
    with pytest.raises(ValueError):
        detect_source_count(np.array([2.0, 1.0]), epsilon=-0.5)
    with pytest.raises(ValueError):
        detect_source_count(np.array([2.0, 1.0]), max_rank=1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2,
                max_size=32))
def test_count_bounds_property(vals):
    v = np.sort(np.asarray(vals))[::-1]
    sc = detect_source_count(v)
    assert 1 <= sc.count <= len(v) - 1
    if sc.fallback:
        assert sc.count == 1


# -- decomposition invariants -------------------------------------------

def _two_source_cov(rng, n=8, snaps=400, noise=0.01):
    a1 = np.exp(-1j * np.pi * np.arange(n) * 0.3)
    a2 = np.exp(-1j * np.pi * np.arange(n) * 0.8)
    s = rng.normal(size=(2, snaps)) + 1j * rng.normal(size=(2, snaps))
    y = np.column_stack([a1, a2]) @ s
    y += np.sqrt(noise / 2) * (rng.normal(size=y.shape)
                               + 1j * rng.normal(size=y.shape))
    return covariance(y)


def test_decompose_orthonormal_split(rng):
    dec = decompose(_two_source_cov(rng))
    assert dec.source_count == 2
    us, un = dec.signal_basis, dec.noise_basis
    np.testing.assert_allclose(us.conj().T @ us, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(un.conj().T @ un, np.eye(6), atol=1e-10)
    np.testing.assert_allclose(us.conj().T @ un, 0, atol=1e-10)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_decompose_n_sources_override(rng):
    cov = _two_source_cov(rng)
    dec = decompose(cov, n_sources=3)
    assert dec.source_count == 3
    assert dec.signal_basis.shape[1] == 3
    assert not dec.fallback
    # both subspaces must stay nonempty: 1 <= n_sources < dim
    assert decompose(cov, n_sources=7).noise_basis.shape[1] == 1
    for bad in (0, 8, 9):
        with pytest.raises(ValueError, match="n_sources"):
            decompose(cov, n_sources=bad)


def _ramps_in_noise(rng, n, m, amp=3.0):
    """Two phase ramps down the rows (times ramps along the columns) in
    unit complex noise: the shape of a per-beam range matrix."""
    k, l_ = np.arange(n)[:, None], np.arange(m)[None, :]
    y = (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))) / np.sqrt(2)
    for fr, fd in ((0.11, 0.3), (0.37, 0.71)):
        y += amp * np.exp(-2j * np.pi * fr * k) * np.exp(2j * np.pi * fd * l_)
    return y


def _projector(basis):
    return basis @ basis.conj().T


@pytest.mark.parametrize("shape", [(256, 64), (24, 8)])
def test_decompose_snapshots_matches_covariance_eigh(shape, rng):
    """A tall matrix is split from its SVD: the same count, eigenvalues
    and subspaces as the eigh of its covariance at max_rank = n_cols."""
    n, m = shape
    y = _ramps_in_noise(rng, n, m)
    dec = decompose_snapshots(y)
    ref = decompose(covariance(y), max_rank=m)
    assert (dec.source_count, dec.fallback) == (ref.source_count,
                                                ref.fallback)
    assert dec.eigenvalues.shape == (n,)
    np.testing.assert_allclose(dec.eigenvalues[:m], ref.eigenvalues[:m],
                               rtol=1e-12)
    assert np.all(dec.eigenvalues[m:] == 0.0)
    assert dec.signal_basis.shape == (n, dec.source_count)
    assert dec.noise_basis.shape == (n, n - dec.source_count)
    np.testing.assert_allclose(_projector(dec.signal_basis),
                               _projector(ref.signal_basis), atol=1e-12)
    np.testing.assert_allclose(_projector(dec.noise_basis),
                               _projector(ref.noise_basis), atol=1e-12)
    # the tall noise basis is the orthonormal complement of the signal one
    un, us = dec.noise_basis, dec.signal_basis
    np.testing.assert_allclose(un.conj().T @ un,
                               np.eye(n - dec.source_count), atol=1e-12)
    np.testing.assert_allclose(us.conj().T @ un, 0.0, atol=1e-12)

    # the override, and its bounds, as in decompose
    forced = decompose_snapshots(y, n_sources=3)
    assert forced.source_count == 3 and not forced.fallback
    np.testing.assert_allclose(
        _projector(forced.noise_basis),
        _projector(decompose(covariance(y), n_sources=3).noise_basis),
        atol=1e-12)
    assert decompose_snapshots(y, n_sources=n - 1).noise_basis.shape == (n, 1)
    # an override past the rank: signal and noise stay one unitary basis
    past = decompose_snapshots(y, n_sources=n - 1)
    basis = np.hstack([past.signal_basis, past.noise_basis])
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(n), atol=1e-12)
    for bad in (0, n, n + 1):
        with pytest.raises(ValueError, match="n_sources"):
            decompose_snapshots(y, n_sources=bad)

    # noise only, with the two top singular values set equal: the first
    # gap is 0, so the count falls back to 1 on both paths
    u, s, vh = np.linalg.svd(
        rng.normal(size=shape) + 1j * rng.normal(size=shape),
        full_matrices=False)
    s[1] = s[0]
    flat = (u * s) @ vh
    dec = decompose_snapshots(flat)
    ref = decompose(covariance(flat), max_rank=m)
    assert (dec.source_count, dec.fallback) == (1, True)
    assert (ref.source_count, ref.fallback) == (1, True)


@pytest.mark.parametrize("shape", [(64, 256), (8, 24), (8, 8)])
def test_decompose_snapshots_wide_is_the_covariance_eigh(shape, rng):
    """A wide or square matrix takes exactly the covariance eigh path."""
    y = _ramps_in_noise(rng, *shape)
    dec = decompose_snapshots(y)
    ref = decompose(covariance(y), max_rank=min(shape))
    assert (dec.source_count, dec.fallback) == (ref.source_count,
                                                ref.fallback)
    np.testing.assert_array_equal(dec.eigenvalues, ref.eigenvalues)
    np.testing.assert_array_equal(dec.signal_basis, ref.signal_basis)
    np.testing.assert_array_equal(dec.noise_basis, ref.noise_basis)
    with pytest.raises(ValueError, match="n_sources"):
        decompose_snapshots(y, n_sources=shape[0])


def test_decompose_snapshots_rejects_bad_input():
    for bad in (np.zeros(5), np.zeros((0, 3)), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="2-D"):
            decompose_snapshots(bad)


# -- subaperture smoothing ----------------------------------------------

def test_smoothed_full_window_matches_plain(rng):
    """At full aperture the smoothing is only the forward-backward average
    of the plain covariance, 0.5 (R + J conj(R) J)."""
    y = rng.normal(size=(6, 30)) + 1j * rng.normal(size=(6, 30))
    r = smoothed_covariance(y, window=6)
    plain = covariance(y)
    np.testing.assert_allclose(r, 0.5 * (plain + plain[::-1, ::-1].conj()),
                               atol=1e-13)


def test_smoothed_is_hermitian_psd(rng):
    y = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
    r = smoothed_covariance(y, window=5)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(r).min() > -1e-12


def test_smoothed_keeps_phase_ramp_signal_rank_one():
    n = 16
    ramp = np.exp(-2j * np.pi * 0.17 * np.arange(n))
    y = np.outer(ramp, np.ones(4))
    r = smoothed_covariance(y, window=8)
    w = np.linalg.eigvalsh(r)
    assert np.sum(w > 1e-10 * w.max()) == 1


def test_smoothed_window_validation(rng):
    y = rng.normal(size=(6, 4)) + 0j
    with pytest.raises(ValueError):
        smoothed_covariance(y, window=0)
    with pytest.raises(ValueError):
        smoothed_covariance(y, window=7)
