"""Gray-mapped QAM: constellation geometry, labelling, and demodulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labels_to_bits
from jcs_music import qam


def symbols_from_labels(labels: np.ndarray, order: int) -> np.ndarray:
    """Oracle: the constellation points of the labels."""
    return qam.constellation(order)[np.asarray(labels)]


def bit_error_rate(tx_labels: np.ndarray, rx_labels: np.ndarray,
                   order: int) -> float:
    """Oracle: bit errors over all label bits."""
    errs = qam.bit_errors(tx_labels, rx_labels)
    return float(errs.sum() / (errs.size * (order.bit_length() - 1)))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_unit_average_energy(order):
    pts = qam.constellation(order)
    assert len(pts) == order
    assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12


def test_qpsk_points():
    pts = qam.constellation(4)
    expected = {(s * (1 + 0j) + t * 1j) / np.sqrt(2)
                for s in (-1, 1) for t in (-1, 1)}
    got = {complex(np.round(p.real, 12) + 1j * np.round(p.imag, 12))
           for p in pts}
    want = {complex(np.round(p.real, 12) + 1j * np.round(p.imag, 12))
            for p in expected}
    assert got == want


@pytest.mark.parametrize("order", [4, 16, 64])
def test_gray_adjacency(order):
    """Horizontally or vertically adjacent points differ in exactly one bit."""
    pts = qam.constellation(order)
    side = int(np.sqrt(order))
    gap = 2.0 / np.sqrt(2.0 * (side * side - 1) / 3.0)
    nbits = order.bit_length() - 1
    for i in range(order):
        for j in range(i + 1, order):
            d = pts[i] - pts[j]
            horiz = abs(abs(d.real) - gap) < 1e-12 and abs(d.imag) < 1e-12
            vert = abs(d.real) < 1e-12 and abs(abs(d.imag) - gap) < 1e-12
            if horiz or vert:
                diff = bin(i ^ j).count("1")
                assert diff == 1, (i, j, diff)
    assert nbits == 2 * (side.bit_length() - 1)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_demodulate_roundtrip(order):
    labels = np.arange(order)
    sym = symbols_from_labels(labels, order)
    np.testing.assert_array_equal(qam.demodulate(sym, order), labels)
    # small perturbation stays inside the decision region
    rng = np.random.default_rng(3)
    side = int(np.sqrt(order))
    gap = 2.0 / np.sqrt(2.0 * (side * side - 1) / 3.0)
    noise = (rng.normal(size=order) + 1j * rng.normal(size=order))
    noise *= 0.2 * gap / np.abs(noise)
    np.testing.assert_array_equal(qam.demodulate(sym + noise, order), labels)


def test_random_symbols_match_labels(rng):
    sym, labels = qam.random_symbols((10, 7), 16, rng)
    np.testing.assert_allclose(sym, symbols_from_labels(labels, 16))
    assert sym.shape == (10, 7)


def test_preamble_deterministic():
    a = qam.preamble(32, 8)
    b = qam.preamble(32, 8)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (32, 8)
    assert not np.any(a == 0)


def test_labels_to_bits_msb_first():
    bits = labels_to_bits(np.array([0, 1, 2, 3]), 4)
    np.testing.assert_array_equal(bits, [[0, 0], [0, 1], [1, 0], [1, 1]])
    bits64 = labels_to_bits(np.array([0b100110]), 64)
    np.testing.assert_array_equal(bits64[0], [1, 0, 0, 1, 1, 0])


def test_bit_error_rate_counts():
    tx = np.array([0, 0, 0, 0])
    rx = np.array([0, 1, 3, 0])  # 0+1+2+0 errors over 8 bits
    assert bit_error_rate(tx, rx, 4) == pytest.approx(3.0 / 8.0)
    np.testing.assert_array_equal(qam.bit_errors(tx, rx), [0, 1, 2, 0])


@pytest.mark.parametrize("order", [4, 16, 64])
def test_bit_errors_equal_bit_unpacking(order):
    rng = np.random.default_rng(order)
    tx = rng.integers(0, order, size=(50, 7))
    rx = rng.integers(0, order, size=(50, 7))
    want = (labels_to_bits(tx, order)
            != labels_to_bits(rx, order)).sum(axis=-1)
    np.testing.assert_array_equal(qam.bit_errors(tx, rx), want)
    assert bit_error_rate(tx, rx, order) == float(
        np.mean(labels_to_bits(tx, order) != labels_to_bits(rx, order)))


def test_invalid_order():
    with pytest.raises(ValueError):
        qam.constellation(8)


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False),
       st.sampled_from([4, 16, 64]))
def test_demodulate_is_nearest_point(z, order):
    pts = qam.constellation(order)
    got = int(qam.demodulate(np.array([z]), order)[0])
    best = float(np.min(np.abs(z - pts) ** 2))
    assert abs(np.abs(z - pts[got]) ** 2 - best) < 1e-12


@pytest.mark.parametrize("order", [4, 16, 64])
def test_demodulate_matches_brute_force(order):
    """Per-axis slicing picks a nearest point for points far outside the
    constellation and on exact decision boundaries."""
    pts = qam.constellation(order)
    side = int(np.sqrt(order))
    scale = np.sqrt(2.0 * (side * side - 1) / 3.0)
    rng = np.random.default_rng(order)
    far = rng.uniform(-10.0, 10.0, size=(2, 2000))
    # midpoints between adjacent levels, the outer edges, and the levels
    marks = np.arange(-side, side + 1) / scale
    mi, mq = np.meshgrid(marks, marks)
    z = np.concatenate([far[0] + 1j * far[1], (mi + 1j * mq).ravel(),
                        10.0 * np.exp(2j * np.pi * rng.uniform(size=200))])
    got = qam.demodulate(z, order)
    d2 = np.abs(z[:, None] - pts) ** 2
    best = np.min(d2, axis=1)
    np.testing.assert_array_less(
        np.abs(d2[np.arange(len(z)), got] - best), 1e-12)
