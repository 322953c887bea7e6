"""Gray-mapped square QAM with unit average symbol energy."""

from __future__ import annotations

import numpy as np

ORDERS = (4, 16, 64)


def _gray(n: np.ndarray) -> np.ndarray:
    return n ^ (n >> 1)


def _axis(order: int) -> tuple[int, int, float]:
    """PAM levels per axis, label bits per axis, and the level scale."""
    if order not in ORDERS:
        raise ValueError(f"unsupported QAM order {order}; choose from {ORDERS}")
    side = int(np.sqrt(order))
    # scale so that E|d|^2 = 1 over a uniform draw
    return side, side.bit_length() - 1, np.sqrt(2.0 * (side * side - 1) / 3.0)


def constellation(order: int) -> np.ndarray:
    """Unit-energy Gray-labelled square QAM points, indexed by symbol label.

    Label bits split evenly between I (high bits) and Q (low bits); each
    half is Gray-coded over the PAM levels, so adjacent points differ in
    one bit per axis.
    """
    side, bits_per_axis, scale = _axis(order)
    levels = 2 * np.arange(side) - (side - 1)  # odd integers, ascending
    labels = np.arange(order)
    i_bits = labels >> bits_per_axis
    q_bits = labels & (side - 1)
    # point at axis position p carries Gray code gray(p); invert so that a
    # label's bit half selects its level position
    inv = np.empty(side, dtype=int)
    inv[_gray(np.arange(side))] = np.arange(side)
    points = (levels[inv[i_bits]] + 1j * levels[inv[q_bits]]) / scale
    return points


def random_symbols(shape, order: int, rng: np.random.Generator):
    """Uniform random QAM symbols; returns (symbols, labels)."""
    labels = rng.integers(0, order, size=shape)
    return constellation(order)[labels], labels


def preamble(n_subcarriers: int, n_symbols: int) -> np.ndarray:
    """Deterministic unit-modulus-envelope preamble grid.

    Built from a fixed-seed 4-QAM draw so it is constant across calls and
    processes but has the same statistics as data symbols.
    """
    rng = np.random.default_rng(0x9E3779B9)
    sym, _ = random_symbols((n_subcarriers, n_symbols), 4, rng)
    return sym


def demodulate(received: np.ndarray, order: int) -> np.ndarray:
    """ML hard decision: nearest constellation point, returns labels.

    The grid is square, so the nearest point is the nearest PAM level on
    each axis; a level's position p carries the Gray code gray(p).
    """
    side, bits_per_axis, scale = _axis(order)
    r = np.asarray(received)

    def position(x):
        # levels are the odd integers 1 - side .. side - 1 after scaling
        p = np.floor((x * scale + side) / 2.0)
        return np.clip(p, 0, side - 1).astype(np.intp)

    return _gray(position(r.real)) << bits_per_axis | _gray(position(r.imag))


# number of set bits in each 6-bit label, the widest supported order
_POPCOUNT = np.array([bin(v).count("1") for v in range(max(ORDERS))])


def bit_errors(tx_labels: np.ndarray, rx_labels: np.ndarray) -> np.ndarray:
    """Bit errors per symbol: the set bits of tx XOR rx."""
    return _POPCOUNT[np.bitwise_xor(tx_labels, rx_labels)]
