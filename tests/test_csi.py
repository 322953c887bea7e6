"""CSI estimation and enhancement: LS statistics, noise-variance
estimators, Kalman filtering identities, and demodulation BER."""

import math

import numpy as np
import pytest

from jcs_music import channel, csi, qam
from jcs_music.channel import NoiseConfig, WaveformConfig
from jcs_music.scenario import generate_scenario
from jcs_music.steering import ArrayConfig

C = 299792458.0


def _qfunc(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _los_channel(nc, ms, df, tau, amp=1.0):
    n = np.arange(nc)
    return amp * np.outer(np.exp(-2j * np.pi * n * df * tau),
                          np.ones(ms, dtype=complex))


# -- LS estimation ------------------------------------------------------

def test_ls_noiseless_exact(rng):
    h = _los_channel(32, 8, 480e3, 1e-7)
    pre = qam.preamble(32, 8)
    p_t = 2.5
    rx = np.sqrt(p_t) * pre * h
    np.testing.assert_allclose(csi.ls_csi(rx, pre, p_t), h, atol=1e-12)


def test_ls_error_variance(rng):
    """LS error variance is (P_IC + sigma_N^2) / P_t within 3%."""
    nc, ms = 256, 400           # 1e5 entries
    noise = NoiseConfig(noise_var=1e-3, inr_comm_db=3.0)
    p_t = 7.0
    h = _los_channel(nc, ms, 480e3, 2e-7)
    pre = qam.preamble(nc, ms)
    std = np.sqrt(noise.total_comm_var / 2.0)
    w = std * (rng.normal(size=(nc, ms)) + 1j * rng.normal(size=(nc, ms)))
    h_hat = csi.ls_csi(np.sqrt(p_t) * pre * h + w, pre, p_t)
    got = np.mean(np.abs(h_hat - h) ** 2)
    assert got == pytest.approx(noise.total_comm_var / p_t, rel=0.03)


def test_ls_variance_scales_inversely_with_power(rng):
    nc, ms = 128, 100
    h = _los_channel(nc, ms, 480e3, 2e-7)
    pre = qam.preamble(nc, ms)
    w = rng.normal(size=(nc, ms)) + 1j * rng.normal(size=(nc, ms))
    errs = []
    for p_t in (1.0, 4.0):
        h_hat = csi.ls_csi(np.sqrt(p_t) * pre * h + w, pre, p_t)
        errs.append(np.mean(np.abs(h_hat - h) ** 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-12)


def test_ls_input_validation():
    pre = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        csi.ls_csi(pre, pre, 0.0)
    bad = pre.copy()
    bad[1, 1] = 0.0
    with pytest.raises(ValueError):
        csi.ls_csi(pre, bad, 1.0)


# -- noise variance estimators ------------------------------------------

def test_sigma_p_noiseless_rank_one():
    h = _los_channel(64, 16, 480e3, 1.5e-7, amp=3.0)
    assert csi.estimate_sigma_p(h) < 1e-10


def test_sigma_p_recovers_known_variance():
    var = 1e-3
    rng = np.random.default_rng(0)
    vals = []
    for _ in range(100):
        h = _los_channel(64, 16, 480e3, 1.5e-7)
        w = np.sqrt(var / 2) * (rng.normal(size=h.shape)
                                + 1j * rng.normal(size=h.shape))
        vals.append(csi.estimate_sigma_p(h + w))
    assert np.mean(vals) == pytest.approx(var, rel=0.1)


def test_sigma_p_doubles_with_variance():
    rng = np.random.default_rng(1)
    h = _los_channel(64, 16, 480e3, 1.5e-7)
    w = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
    s1 = csi.estimate_sigma_p(h + 0.03 * w)
    s2 = csi.estimate_sigma_p(h + 0.03 * np.sqrt(2.0) * w)
    assert s2 / s1 == pytest.approx(2.0, rel=0.1)


@pytest.mark.parametrize("shape", [(256, 64), (16, 40)])
def test_sigma_p_matches_covariance_eigenvalues(shape):
    """The singular-value form equals the trailing eigenvalues of the
    N_c x N_c covariance H H^H / M_s, structural zeros included."""
    rng = np.random.default_rng(5)
    h = _los_channel(*shape, 480e3, 1.5e-7)
    h = h + 0.05 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    w = np.linalg.eigvalsh(h @ h.conj().T / shape[1])
    want = w[:-1].sum() / (shape[0] - 1)
    assert csi.estimate_sigma_p(h) == pytest.approx(want, rel=1e-10)


def test_sigma_p_is_never_negative():
    """A noiseless rank-one channel's eigenvalue floor can round below
    zero; a variance estimate must not."""
    h = _los_channel(256, 64, 480e3, 1.5e-7, amp=3.0)
    h = h * np.exp(2j * np.pi * np.random.default_rng(256).random(64))
    assert csi.estimate_sigma_p(h) >= 0.0


def test_sigma_p_needs_two_subcarriers():
    with pytest.raises(ValueError):
        csi.estimate_sigma_p(np.ones((1, 4), dtype=complex))


def test_initial_obs_variance_noiseless_zero():
    tau = 2.3e-7
    h = _los_channel(32, 1, 480e3, tau)
    assert csi.initial_obs_variance(h[:, 0], tau, 480e3) < 1e-20


def test_initial_obs_variance_pure_noise(rng):
    """With no structure, aligned differences average to twice the
    per-entry variance."""
    var = 0.5
    acc = []
    for _ in range(200):
        w = np.sqrt(var / 2) * (rng.normal(size=64) + 1j * rng.normal(size=64))
        acc.append(csi.initial_obs_variance(w, 1e-7, 480e3))
    assert np.mean(acc) == pytest.approx(2.0 * var, rel=0.05)


def test_initial_obs_variance_grows_with_delay_bias():
    tau = 2.3e-7
    h = _los_channel(32, 1, 480e3, tau)
    good = csi.initial_obs_variance(h[:, 0], tau, 480e3)
    biased = csi.initial_obs_variance(h[:, 0], tau * 1.2, 480e3)
    assert biased > good + 1e-6


def test_initial_obs_variance_per_column(rng):
    """A matrix gives one value per column, equal to the 1-D call."""
    h = rng.normal(size=(32, 5)) + 1j * rng.normal(size=(32, 5))
    got = csi.initial_obs_variance(h, 2.3e-7, 480e3)
    assert got.shape == (5,)
    want = [csi.initial_obs_variance(h[:, m], 2.3e-7, 480e3) for m in range(5)]
    np.testing.assert_allclose(got, want, rtol=1e-13)
    rot = np.exp(2j * np.pi * 480e3 * 2.3e-7)
    direct = sum(abs(rot ** n * h[n, 0] - h[0, 0]) ** 2 for n in range(1, 32))
    assert want[0] == pytest.approx(direct / 31, rel=1e-12)


# -- Kalman enhancement -------------------------------------------------

def _kalman_recursion(h_hat, tau_hat, df, sigma_p2, p_w0=None):
    """Reference: the scalar Kalman recursion, one column and one
    subcarrier at a time."""
    nc, ms = h_hat.shape
    a = np.exp(-2j * np.pi * df * tau_hat)
    out = np.empty_like(h_hat)
    out[0, :] = h_hat[0, :]
    for m in range(ms):
        if p_w0 is None:
            p = csi.initial_obs_variance(h_hat[:, m], tau_hat, df)
        else:
            p = np.broadcast_to(p_w0, (ms,))[m]
        h_prev = h_hat[0, m]
        for n in range(1, nc):
            pred = a * h_prev
            p_minus = (a * p * np.conj(a)).real
            denom = p_minus + sigma_p2
            gain = 1.0 if denom == 0 else p_minus / denom
            h_prev = h_hat[n, m] if gain == 1.0 \
                else pred + (h_hat[n, m] - pred) * gain
            p = (1.0 - gain) * p_minus
            out[n, m] = h_prev
    return out


@pytest.mark.parametrize("p_w0", [None, 0.0, 0.3, "per-column"])
def test_kalman_closed_form_matches_recursion(rng, p_w0):
    tau = 1.8e-7
    h = _los_channel(256, 6, 480e3, tau * 1.01)
    h_hat = h + 0.1 * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
    if p_w0 == "per-column":
        p_w0 = np.array([0.0, 1e-4, 0.01, 0.3, 2.0, 50.0])
    want = _kalman_recursion(h_hat, tau, 480e3, 0.02, p_w0)
    got = csi.kalman_enhance(h_hat, tau, 480e3, sigma_p2=0.02, p_w0=p_w0)
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= 1e-12


def test_kalman_zero_obs_noise_is_identity(rng):
    h = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
    out = csi.kalman_enhance(h, 1e-7, 480e3, sigma_p2=0.0, p_w0=1.0)
    np.testing.assert_array_equal(out, h)
    out = csi.kalman_enhance(h, 1e-7, 480e3, sigma_p2=0.0)
    np.testing.assert_array_equal(out, h)
    # the recursion it replaces is an identity here too
    np.testing.assert_array_equal(_kalman_recursion(h, 1e-7, 480e3, 0.0), h)


def test_kalman_perfect_model_noiseless_recovers_truth():
    tau = 1.8e-7
    h = _los_channel(64, 3, 480e3, tau, amp=2.0)
    out = csi.kalman_enhance(h, tau, 480e3, sigma_p2=0.1, p_w0=0.0)
    np.testing.assert_allclose(out, h, atol=1e-12)


def test_kalman_reduces_noise_on_matched_model(rng):
    tau = 1.8e-7
    h = _los_channel(64, 8, 480e3, tau)
    w = 0.1 * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
    h_hat = h + w
    out = csi.kalman_enhance(h_hat, tau, 480e3, sigma_p2=0.01)
    assert np.mean(np.abs(out - h) ** 2) < np.mean(np.abs(h_hat - h) ** 2)


def test_enhanced_beats_ls_in_pipeline(ctx):
    """Paired trials at 25 dB C-SINR: delay-informed filtering lowers the
    CSI MSE relative to raw LS."""
    from jcs_music.harness import ber_trial, draw_ber_trial, trial_rng
    wins = 0
    n = 20
    for t in range(n):
        seed, rng = trial_rng(777, 0, t)
        res = ber_trial(ctx, draw_ber_trial(ctx, 25.0, seed, rng))
        if res["csi_mse_enhanced"] < res["csi_mse_ls"]:
            wins += 1
    assert wins >= n - 2


# -- equalization and demodulation --------------------------------------

def test_demod_perfect_csi_noiseless_zero_ber(rng):
    nc, ms = 64, 16
    sym, labels = qam.random_symbols((nc, ms), 64, rng)
    h = _los_channel(nc, ms, 480e3, 1e-7, amp=0.01)
    p_t = 3.0
    rx = np.sqrt(p_t) * sym * h
    dem = csi.equalize_and_demodulate(rx, h, p_t, 64, labels)
    assert dem.ber == 0.0
    assert dem.n_erasures == 0


def test_qpsk_awgn_ber_matches_qfunction(rng):
    """4-QAM over AWGN at per-symbol SNR 10 dB: BER = Q(sqrt(SNR))."""
    snr = 10.0
    n = 1_000_000
    sym, labels = qam.random_symbols(n, 4, rng)
    sigma2 = 1.0 / snr
    w = np.sqrt(sigma2 / 2) * (rng.normal(size=n) + 1j * rng.normal(size=n))
    dem = csi.equalize_and_demodulate(sym + w, np.ones(n), 1.0, 4, labels)
    expected = _qfunc(np.sqrt(snr))
    assert dem.ber == pytest.approx(expected, rel=0.1)


def test_erasures_count_as_errors(rng):
    sym, labels = qam.random_symbols(100, 4, rng)
    h = np.ones(100, dtype=complex)
    h[:10] = 0.0
    dem = csi.equalize_and_demodulate(sym * h, h, 1.0, 4, labels)
    assert dem.n_erasures == 10
    assert dem.ber >= 10 * 2 / (100 * 2)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_ber_equals_bit_unpacking_route(rng, order):
    """The popcount count equals unpacking both label arrays into bits."""
    sym, labels = qam.random_symbols((64, 16), order, rng)
    h = np.ones((64, 16), dtype=complex)
    h[3, :4] = 0.0
    rx = sym + 0.3 * (rng.normal(size=sym.shape) + 1j * rng.normal(size=sym.shape))
    dem = csi.equalize_and_demodulate(rx, h, 1.0, order, labels)
    nbits = order.bit_length() - 1
    errs = (qam.labels_to_bits(labels, order)
            != qam.labels_to_bits(dem.labels, order)).sum(axis=-1)
    errs = np.where(h == 0, nbits, errs)
    assert 0.0 < dem.ber < 1.0
    assert dem.ber == float(errs.sum() / (rx.size * nbits))


def test_demod_without_labels_reports_nan(rng):
    sym, _ = qam.random_symbols(10, 4, rng)
    dem = csi.equalize_and_demodulate(sym, np.ones(10), 1.0, 4)
    assert math.isnan(dem.ber)
    assert dem.labels.shape == (10,)
