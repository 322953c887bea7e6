import numpy as np
import pytest

from jcs_music import bind, channel, load_config
from jcs_music.channel import NoiseConfig, WaveformConfig
from jcs_music.steering import ArrayConfig


def labels_to_bits(labels: np.ndarray, order: int) -> np.ndarray:
    """Oracle: unpack symbol labels into bits, MSB first, shape
    (..., log2(order))."""
    nbits = order.bit_length() - 1
    shifts = np.arange(nbits - 1, -1, -1)
    return (np.asarray(labels)[..., None] >> shifts) & 1


@pytest.fixture(scope="session")
def ctx():
    return bind(load_config())


@pytest.fixture(scope="session")
def small_wave():
    """Reduced numerology for fast synthesis-heavy tests."""
    return WaveformConfig(n_subcarriers=64, n_symbols=32)


@pytest.fixture(scope="session")
def small_array(small_wave):
    lam = small_wave.wavelength()
    return ArrayConfig(rows=4, cols=4, spacing=lam / 2, wavelength=lam)


@pytest.fixture(scope="session")
def noise_cfg():
    return NoiseConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def noisy_snapshots():
    """draw(echo, rng, noise): the (PQ, N_c, M_s) tensor of a noiseless
    echo with its noise drawn from rng by the estimated-beam fill, as the
    sweeps draw it."""
    def draw(echo, rng, noise):
        return channel._noisy_snapshots(echo, rng, noise.echo_noise_std)
    return draw
