"""On-grid periodogram baseline: bin exactness, energy conservation, and
the circular peak-to-sidelobe measure."""

import numpy as np
import pytest

from jcs_music.channel import WaveformConfig
from jcs_music.fft_baseline import (doppler_bin_width, fft_range_doppler,
                                    periodogram_map, pslr_db,
                                    range_bin_width_rt)

C = 299792458.0


@pytest.fixture(scope="module")
def wave():
    return WaveformConfig(n_subcarriers=64, n_symbols=32)


def _tone(wave, kr, kd, nc=None, ms=None):
    """Channel matrix whose energy sits exactly on bin (kr, kd)."""
    nc = nc or wave.n_subcarriers
    ms = ms or wave.n_symbols
    n = np.arange(nc)
    m = np.arange(ms)
    return np.outer(np.exp(-2j * np.pi * n * kr / nc),
                    np.exp(2j * np.pi * m * kd / ms))


def test_bin_widths(wave):
    assert range_bin_width_rt(wave) == pytest.approx(
        C / (64 * 480e3), rel=1e-12)
    assert doppler_bin_width(wave) == pytest.approx(480e3 / 32, rel=1e-12)


def test_on_grid_tone_lands_exactly(wave):
    for kr, kd in [(0, 0), (5, 3), (63, 31), (40, 0)]:
        h = _tone(wave, kr, kd)
        res = fft_range_doppler(h, wave)
        assert res.peak_range_bin == kr
        assert res.peak_doppler_bin == kd
        assert res.range_rt == pytest.approx(kr * res.range_bin_width,
                                             rel=1e-12, abs=1e-12)
        assert res.doppler == pytest.approx(kd * res.doppler_bin_width,
                                            rel=1e-12, abs=1e-12)
        assert res.distance == res.range_rt / 2.0


def test_on_grid_tone_map_is_single_bin(wave):
    h = _tone(wave, 7, 11)
    mag = periodogram_map(h)
    peak = mag[7, 11]
    mag2 = mag.copy()
    mag2[7, 11] = 0.0
    assert mag2.max() < 1e-10 * peak


def test_parseval(wave, rng):
    h = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
    mag = periodogram_map(h)
    assert np.sum(mag ** 2) == pytest.approx(np.sum(np.abs(h) ** 2),
                                             rel=1e-12)
    # zero padding interpolates the map: every pad-th bin is the unpadded
    # one scaled by the orthonormal 1/pad, and the energy is kept
    padded = periodogram_map(h, pad=8)
    assert padded.shape == (64 * 8, 32 * 8)
    np.testing.assert_allclose(padded[::8, ::8], mag / 8.0, rtol=1e-12)
    assert np.sum(padded ** 2) == pytest.approx(np.sum(mag ** 2), rel=1e-12)


def test_sinc_pslr_oracle(wave):
    """An unwindowed off-grid tone shows the classic ~13.3 dB first
    sidelobe of the Dirichlet kernel."""
    n = np.arange(wave.n_subcarriers)
    h = np.outer(np.exp(-2j * np.pi * n * 20.5 / 64),
                 np.ones(wave.n_symbols))
    mag = periodogram_map(h, pad=16)
    power = mag[:, 0] ** 2
    assert pslr_db(power) == pytest.approx(13.26, abs=0.5)


def test_pslr_circular_shift_invariance(rng):
    n = np.arange(256)
    profile = 1.0 / (1.0 + (np.minimum(n, 256 - n) / 3.0) ** 2)
    profile += 0.01 * rng.uniform(size=256)
    base = pslr_db(profile)
    for k in (1, 37, 128, 255):
        assert pslr_db(np.roll(profile, k)) == pytest.approx(base, abs=1e-9)


def test_pslr_wrapped_main_lobe_not_a_sidelobe():
    """A peak at bin 0 whose main lobe spills across the wrap must not see
    its own tail as a sidelobe."""
    n = np.arange(128)
    d = np.minimum(n, 128 - n).astype(float)
    main = np.exp(-0.5 * (d / 4.0) ** 2)            # wide lobe at bin 0
    side = 0.01 * np.exp(-0.5 * ((n - 64) / 2.0) ** 2)
    p = main + side
    assert pslr_db(p) == pytest.approx(20.0, abs=0.5)


def test_pslr_two_tone_hand_value():
    p = np.zeros(32)
    p[5] = 100.0
    p[20] = 1.0
    assert pslr_db(p) == pytest.approx(20.0, abs=1e-9)


def test_pslr_input_validation():
    with pytest.raises(ValueError):
        pslr_db(np.array([1.0, 2.0]))
