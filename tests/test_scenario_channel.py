"""Scene generation and echo/comm synthesis against geometric and
statistical oracles."""

import copy
import re

import numpy as np
import pytest

from jcs_music import channel, qam
from jcs_music.channel import NoiseConfig, WaveformConfig
from jcs_music.scenario import (BS_POSITION, MUE_VELOCITY, Scenario,
                                _radial_speed, direction_to_angles,
                                generate_scenario, rotation_matrix)
from jcs_music.steering import Angle2D, ArrayConfig, spatial_steering

C = 299792458.0


def angles_to_direction(angle: Angle2D, rot: np.ndarray) -> np.ndarray:
    """Oracle: global unit direction for local-frame (azimuth, elevation)."""
    se = np.sin(angle.elevation)
    loc = np.array([se * np.cos(angle.azimuth),
                    se * np.sin(angle.azimuth),
                    np.cos(angle.elevation)])
    return rot @ loc


@pytest.fixture(scope="module")
def wave():
    return WaveformConfig(n_subcarriers=64, n_symbols=32)


@pytest.fixture(scope="module")
def array(wave):
    lam = wave.wavelength()
    return ArrayConfig(rows=4, cols=4, spacing=lam / 2, wavelength=lam)


@pytest.fixture(scope="module")
def noise():
    return NoiseConfig()


# -- geometry ------------------------------------------------------------

def test_direct_path_hand_geometry():
    scen = generate_scenario(0, n_scatterers=0, mue_x=100.0)
    d_expected = np.sqrt(50.0 ** 2 + 4.75 ** 2 + 5.0 ** 2)
    assert scen.mue_path.d1 == pytest.approx(d_expected, abs=1e-12)
    # closing speed: user moves along -x toward the site's x coordinate
    u = (scen.mue_position - BS_POSITION) / d_expected
    v_expected = -(MUE_VELOCITY @ u)
    assert scen.mue_path.v1 == pytest.approx(v_expected, abs=1e-12)
    assert v_expected > 0  # approaching


def test_radial_speed_signs():
    # target ahead on +x moving toward the origin: positive (closing)
    assert _radial_speed([0, 0, 0], [0, 0, 0], [10, 0, 0], [-3, 0, 0]) == 3.0
    # receding
    assert _radial_speed([0, 0, 0], [0, 0, 0], [10, 0, 0], [3, 0, 0]) == -3.0
    # static
    assert _radial_speed([0, 0, 0], [0, 0, 0], [10, 5, 2], [0, 0, 0]) == 0.0


def test_rotation_is_orthonormal():
    r = rotation_matrix()
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_angles_direction_roundtrip():
    rot = rotation_matrix()
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        ang = direction_to_angles(u, rot)
        np.testing.assert_allclose(angles_to_direction(ang, rot), u,
                                   atol=1e-12)


def test_scenario_deterministic():
    a = generate_scenario(42)
    b = generate_scenario(42)
    assert a.n_paths == b.n_paths == 3
    for pa, pb in zip(a.paths, b.paths):
        assert pa.d1 == pb.d1 and pa.v1 == pb.v1
        assert pa.aoa == pb.aoa


def test_scatterer_admissibility_bounds():
    for seed in range(12):
        scen = generate_scenario(seed, n_scatterers=3)
        dirs, speeds = [], []
        for p in scen.paths[1:]:
            assert 30.0 <= p.d1 <= 100.0
            el = np.degrees(p.aoa.elevation)
            assert 5.0 <= el <= 85.0
            assert 20.0 <= p.v1 <= 60.0
            d = (p.position - scen.bs_position)
            d /= np.linalg.norm(d)
            dirs.append(d)
            speeds.append(p.v1)
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                sep = np.degrees(np.arccos(np.clip(dirs[i] @ dirs[j], -1, 1)))
                assert sep >= 20.0 - 1e-9
                assert abs(speeds[i] - speeds[j]) >= 5.0


@pytest.mark.parametrize("kwargs, message", [
    ({"reflect_var": -1.0}, "reflect_var=-1.0: must be finite and > 0"),
    ({"reflect_var": 0.0}, "reflect_var=0.0: must be finite and > 0"),
    ({"reflect_var": float("nan")}, "reflect_var=nan: must be finite and > 0"),
    ({"reflect_var": float("inf")}, "reflect_var=inf: must be finite and > 0"),
    ({"mue_x": float("nan")}, "mue_x=nan: must be finite"),
    ({"mue_x": float("inf")}, "mue_x=inf: must be finite"),
    ({"mue_x": -float("inf")}, "mue_x=-inf: must be finite"),
], ids=["reflect_var-negative", "reflect_var-zero", "reflect_var-nan",
        "reflect_var-inf", "mue_x-nan", "mue_x-inf", "mue_x-minus-inf"])
def test_scene_rejects_values_it_cannot_use(kwargs, message):
    """A reflection variance the channel cannot take the square root of,
    or a user position that is not a number, is refused by name before
    any draw."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        generate_scenario(0, **kwargs)


def test_direct_path_in_front_halfspace():
    for seed in range(10):
        scen = generate_scenario(seed)
        for p in scen.paths:
            assert 0.0 <= p.aoa.elevation < np.pi / 2


# -- echo synthesis ------------------------------------------------------

def test_noiseless_single_path_echo_is_rank_one(wave, array, rng):
    scen = generate_scenario(3, n_scatterers=0)
    beams = channel.build_beamformers(scen, array)
    echo = channel.synthesize_echo(scen, wave, array, beams, rng)
    y = echo.snapshots.reshape(array.size, -1)
    s = np.linalg.svd(y, compute_uv=False)
    assert s[1] / s[0] < 1e-12
    # and the spatial factor is the direct-path steering vector
    u = np.linalg.svd(y)[0][:, 0]
    a0 = echo.steering[:, 0] / np.linalg.norm(echo.steering[:, 0])
    assert abs(abs(np.vdot(u, a0)) - 1.0) < 1e-10


def test_echo_fourth_power_distance_law(wave):
    scen = generate_scenario(3, n_scatterers=0, mue_x=100.0)
    a1 = channel.echo_amplitude(scen, wave, 0)
    p = scen.mue_path
    scaled = Scenario(paths=(type(p)(index=0, aoa=p.aoa, d1=2 * p.d1,
                                     v1=p.v1),) , rotation=scen.rotation,
                      bs_position=scen.bs_position,
                      mue_position=scen.mue_position, seed=scen.seed)
    a2 = channel.echo_amplitude(scaled, wave, 0)
    # doubling distance quarters the amplitude (inverse-square two ways)
    assert a1 / a2 == pytest.approx(4.0, rel=1e-12)
    assert 20 * np.log10(a1 / a2) == pytest.approx(20 * np.log10(4.0),
                                                   abs=1e-9)


def test_comm_square_distance_law(wave):
    scen = generate_scenario(3, n_scatterers=0, mue_x=100.0)
    p = scen.mue_path
    scaled = Scenario(paths=(type(p)(index=0, aoa=p.aoa, d1=2 * p.d1,
                                     v1=p.v1),), rotation=scen.rotation,
                      bs_position=scen.bs_position,
                      mue_position=scen.mue_position, seed=scen.seed)
    a1 = channel.comm_los_amplitude(scen, wave)
    a2 = channel.comm_los_amplitude(scaled, wave)
    assert a1 / a2 == pytest.approx(2.0, rel=1e-12)


def test_aligned_beam_gain(array):
    scen = generate_scenario(7, n_scatterers=2)
    beams = channel.build_beamformers(scen, array)
    assert abs(beams.tx_gains[0]) == pytest.approx(np.sqrt(array.size),
                                                   abs=1e-10)
    # off-boresight paths see strictly less gain
    for g in beams.tx_gains[1:]:
        assert abs(g) < np.sqrt(array.size) - 1e-6
    assert np.linalg.norm(beams.tx) == pytest.approx(1.0, abs=1e-12)


def test_calibration_linearity(wave, array, noise):
    scen = generate_scenario(1, n_scatterers=0)
    beams = channel.build_beamformers(scen, array)
    p0 = channel.calibrate_power_sense(scen, wave, beams, noise, 0.0)
    p10 = channel.calibrate_power_sense(scen, wave, beams, noise, 10.0)
    assert p10 / p0 == pytest.approx(10.0, rel=1e-12)
    q0 = channel.calibrate_power_comm(scen, wave, beams, noise, 0.0)
    q3 = channel.calibrate_power_comm(scen, wave, beams, noise, 3.0)
    assert q3 / q0 == pytest.approx(10 ** 0.3, rel=1e-12)


def test_calibration_closed_form_inverse(wave, array):
    """At 0 dB with no interference, P * gain^2 == sigma_N^2 exactly."""
    scen = generate_scenario(1, n_scatterers=0)
    beams = channel.build_beamformers(scen, array)
    nz = NoiseConfig(noise_var=2.5e-12, inr_sense_db=-300.0)
    p = channel.calibrate_power_sense(scen, wave, beams, nz, 0.0)
    gain2 = (channel.echo_amplitude(scen, wave, 0)
             * abs(beams.tx_gains[0])) ** 2
    assert p * gain2 == pytest.approx(nz.total_sense_var, rel=1e-12)


def test_empirical_sense_sinr(wave, array, noise, noisy_snapshots):
    """Per-element echo SINR lands within 0.5 dB of the calibration target."""
    scen = generate_scenario(2, n_scatterers=0)
    beams = channel.build_beamformers(scen, array)
    target = 5.0
    p = channel.calibrate_power_sense(scen, wave, beams, noise, target)
    w = wave.with_power(p)
    rng = np.random.default_rng(0)
    sig_p = nse_p = 0.0
    for _ in range(8):
        echo = channel.synthesize_echo(scen, w, array, beams, rng)
        signal = echo.snapshots
        sig_p += np.mean(np.abs(signal) ** 2)
        nse_p += np.mean(np.abs(noisy_snapshots(echo, rng, noise)
                                - signal) ** 2)
    got = 10 * np.log10(sig_p / nse_p)
    assert abs(got - target) < 0.5


def test_echo_power_matches_prediction(wave, array, rng):
    """Mean per-entry signal power equals P * |b chi|^2 within 3%."""
    scen = generate_scenario(2, n_scatterers=0)
    beams = channel.build_beamformers(scen, array)
    w = wave.with_power(1e6)
    echo = channel.synthesize_echo(scen, w, array, beams, rng)
    pred = w.tx_power * (channel.echo_amplitude(scen, w, 0)
                         * abs(beams.tx_gains[0])) ** 2 / array.size
    # steering entries are unit modulus, so per-entry power is pred*PQ/PQ;
    # measured over all entries (4-QAM symbols are unit modulus too)
    got = np.mean(np.abs(echo.snapshots) ** 2)
    assert got == pytest.approx(pred * array.size, rel=0.03)


def test_total_noise_variance(wave, array, rng, noisy_snapshots):
    """Noise-plus-interference per-entry variance matches the configured
    total within 0.2 dB."""
    nz = NoiseConfig(noise_var=1e-6, inr_sense_db=3.0)
    scen = generate_scenario(2, n_scatterers=0)
    beams = channel.build_beamformers(scen, array)
    acc = 0.0
    n_frames = 6
    for _ in range(n_frames):
        echo = channel.synthesize_echo(scen, wave, array, beams, rng)
        acc += np.mean(np.abs(noisy_snapshots(echo, rng, nz)
                              - echo.snapshots) ** 2)
    got_db = 10 * np.log10(acc / n_frames)
    want_db = 10 * np.log10(nz.total_sense_var)
    assert abs(got_db - want_db) < 0.2


def _per_path_echo(scen, wave, array, beams, noise, rng, noiseless):
    """The dense per-path synthesis the factored echo and its noise fills
    replaced, kept as their reference: (snapshots, signal, noise), each
    (PQ, N_c, M_s), the noise drawn in one call after the reflections."""
    nc, ms = wave.n_subcarriers, wave.n_symbols
    symbols, _ = qam.random_symbols((nc, ms), wave.qam_order, rng)
    reflections = channel.draw_reflections(scen, rng)
    steering = np.column_stack([spatial_steering(array, p.aoa)
                                for p in scen.paths])
    shape = (array.size, nc, ms)
    signal = np.zeros(shape, dtype=complex)
    amp = np.sqrt(wave.tx_power)
    for l in range(scen.n_paths):
        gain = channel.echo_amplitude(scen, wave, l) * reflections[l] \
            * beams.tx_gains[l]
        contrib = amp * gain * symbols * channel.path_phases(scen, wave, l)
        signal += steering[:, l][:, None, None] * contrib
    nse = np.zeros(shape, dtype=complex)
    if not noiseless:
        z = rng.standard_normal((2,) + shape)
        z *= np.sqrt(noise.total_sense_var / 2.0)
        nse.real, nse.imag = z
    return signal + nse, signal, nse


def _numerology(name, small_wave, small_array):
    if name == "small":
        return small_wave, small_array
    if name == "3x3":
        lam = small_wave.wavelength()
        return small_wave, ArrayConfig(rows=3, cols=3, spacing=lam / 2,
                                       wavelength=lam)
    wave = WaveformConfig()
    lam = wave.wavelength()
    return wave, ArrayConfig(rows=8, cols=8, spacing=lam / 2, wavelength=lam)


def _echo_pair(numerology, n_scatterers, noiseless, small_wave, small_array,
               noise, seed=11):
    """The noiseless factored echo and the per-path reference from equal
    generators; also the generators after the calls."""
    wave, array = _numerology(numerology, small_wave, small_array)
    wave = wave.with_power(2.5e5)
    scen = generate_scenario(seed, n_scatterers=n_scatterers)
    beams = channel.build_beamformers(scen, array)
    rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
    echo = channel.synthesize_echo(scen, wave, array, beams, rng_new)
    ref = _per_path_echo(scen, wave, array, beams, noise, rng_ref, noiseless)
    return echo, ref, rng_new, rng_ref, scen, array


@pytest.mark.parametrize("noiseless", [False, True], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("n_scatterers", [0, 2], ids=["L1", "L3"])
@pytest.mark.parametrize("numerology", ["default", "small"])
def test_factored_echo_equals_per_path_synthesis(numerology, n_scatterers,
                                                 noiseless, small_wave,
                                                 small_array, noise,
                                                 noisy_snapshots):
    """The echo's tensor is the reference's signal, bit for bit.  Noisy:
    the tensor fill, which builds the tensor and draws the noise a block
    of rows at a time through one block buffer, gives the reference's
    snapshots, its
    signal plus the noise drawn in one call, bit for bit.  The generators
    end in the same state."""
    echo, (snapshots, signal, _), rng_new, rng_ref, scen, _ = _echo_pair(
        numerology, n_scatterers, noiseless, small_wave, small_array, noise)
    assert scen.n_paths == n_scatterers + 1
    np.testing.assert_array_equal(echo.snapshots, signal)
    # a second read builds the same tensor
    np.testing.assert_array_equal(echo.snapshots, signal)
    if not noiseless:
        np.testing.assert_array_equal(noisy_snapshots(echo, rng_new, noise),
                                      snapshots)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("noiseless", [False, True], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("numerology", ["default", "small", "3x3"])
def test_beamform_matches_tensor_contraction(numerology, noiseless,
                                             small_wave, small_array, noise):
    """Each path's beam equals the contraction of the reference tensor to
    1e-12: the noiseless beam, or the fixed-beam fill, which draws the
    real plane and then the imaginary plane NOISE_BLOCK_ROWS rows at a
    time and adds each block's share to the beam.  The 3 x 3 array's nine
    rows end in a one-row tail block.  The fill leaves the generator
    where the reference leaves it."""
    echo, (snapshots, signal, _), rng_new, rng_ref, scen, array = _echo_pair(
        numerology, 2, noiseless, small_wave, small_array, noise)
    y = signal if noiseless else snapshots
    assert array.size % channel.NOISE_BLOCK_ROWS == (numerology == "3x3")
    for p in scen.paths:
        w = channel.sense_rx_beamformer(array, p.aoa)
        if noiseless:
            got = echo.beamform(w)
        else:
            fill_rng = copy.deepcopy(rng_new)
            got = channel._noisy_beam(echo, w, fill_rng, noise.echo_noise_std)
            assert fill_rng.bit_generator.state == rng_ref.bit_generator.state
        want = np.tensordot(w.conj(), y, axes=([0], [0]))
        assert got.shape == want.shape == y.shape[1:]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_echo_draws_the_symbols_then_the_reflections_only(wave, array):
    """synthesize_echo leaves the generator where qam.random_symbols
    followed by draw_reflections leaves a copy of it, so a fill draws
    the echo noise from there; given reflections, after the symbols."""
    scen = generate_scenario(5, n_scatterers=2)
    beams = channel.build_beamformers(scen, array)
    for given in (None, np.ones(scen.n_paths, dtype=complex)):
        rng, ref = (np.random.default_rng(5) for _ in range(2))
        echo = channel.synthesize_echo(scen, wave, array, beams, rng,
                                       reflections=given)
        symbols, _ = qam.random_symbols(echo.symbols.shape, wave.qam_order,
                                        ref)
        if given is None:
            channel.draw_reflections(scen, ref)
        np.testing.assert_array_equal(echo.symbols, symbols)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_echo_holds_no_array_tensor_until_read(small_wave, small_array,
                                               noise):
    """Neither a beam nor the tensor read leaves a (PQ, N_c, M_s) complex
    array on the echo."""
    for numerology in ("default", "small"):
        echo, _, _, _, scen, array = _echo_pair(
            numerology, 2, True, small_wave, small_array, noise)
        size = echo.steering.shape[0] * echo.symbols.size

        def tensors():
            return [v for v in vars(echo).values()
                    if isinstance(v, np.ndarray)
                    and np.iscomplexobj(v) and v.size >= size]

        assert tensors() == []
        echo.beamform(channel.sense_rx_beamformer(array, scen.mue_path.aoa))
        assert tensors() == []
        y = echo.snapshots
        assert y.shape == (echo.steering.shape[0],) + echo.symbols.shape
        assert tensors() == []


def test_phase_fading_magnitude_rayleigh_spread(rng):
    scen = generate_scenario(2, n_scatterers=1, reflect_var=2.0)
    ph = channel.draw_reflections(scen, rng, "phase")
    np.testing.assert_allclose(np.abs(ph), np.sqrt(2.0), atol=1e-12)
    ray = np.array([channel.draw_reflections(scen, rng, "rayleigh")[0]
                    for _ in range(4000)])
    assert np.mean(np.abs(ray) ** 2) == pytest.approx(2.0, rel=0.1)
    with pytest.raises(ValueError):
        channel.draw_reflections(scen, rng, "nakagami")


def test_echo_phase_ramps(wave):
    """Subcarrier slope is -2 pi df * (2 d / c); symbol slope +2 pi T fd."""
    scen = generate_scenario(2, n_scatterers=0, mue_x=90.0)
    ph = channel.path_phases(scen, wave, 0)
    p = scen.mue_path
    tau = 2 * p.d1 / C
    slope = np.angle(ph[1, 0] / ph[0, 0])
    expected = -2 * np.pi * wave.subcarrier_spacing * tau
    assert slope == pytest.approx(np.angle(np.exp(1j * expected)), abs=1e-9)
    fd = 2 * p.v1 / wave.wavelength()
    slope_m = np.angle(ph[0, 1] / ph[0, 0])
    assert slope_m == pytest.approx(
        np.angle(np.exp(2j * np.pi * wave.symbol_duration * fd)), abs=1e-9)


def test_comm_phase_slope_and_half_delay(wave, array, noise, rng):
    """LoS CSI phase slope encodes the one-way delay; the echo ramp is
    exactly twice as steep."""
    scen = generate_scenario(2, n_scatterers=0, mue_x=90.0)
    beams = channel.build_beamformers(scen, array)
    h = channel.comm_csi(scen, wave, beams)
    tau = scen.mue_path.d1 / C
    dphi = np.angle(h[1:, 0] * np.conj(h[:-1, 0]))
    expected = np.angle(np.exp(-2j * np.pi * wave.subcarrier_spacing * tau))
    np.testing.assert_allclose(dphi, expected, atol=1e-9)
    echo_ph = channel.path_phases(scen, wave, 0)
    d_echo = np.angle(echo_ph[1, 0] / echo_ph[0, 0])
    assert d_echo == pytest.approx(np.angle(np.exp(2j * expected)), abs=1e-9)


def test_comm_los_magnitude_constant(wave, array, noise, rng):
    scen = generate_scenario(2, n_scatterers=0)
    beams = channel.build_beamformers(scen, array)
    ref = copy.deepcopy(rng)
    com = channel.synthesize_comm(scen, wave, beams, noise, rng)
    np.testing.assert_allclose(np.abs(com.csi), np.abs(com.csi[0, 0]),
                               rtol=1e-12)
    # the samples are sqrt(P) d h plus the CN noise drawn after the symbols
    qam.random_symbols(com.symbols.shape, wave.qam_order, ref)
    nse = channel._complex_normal(ref, com.symbols.shape,
                                  noise.total_comm_var)
    np.testing.assert_array_equal(
        com.samples, np.sqrt(wave.tx_power) * com.symbols * com.csi + nse)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("shape", [(256, 2000), (256, 64), (13, 7), (1, 5)],
                         ids=lambda s: "x".join(map(str, s)))
def test_complex_normal_equals_the_one_line_draw(shape):
    """The block-drawn CN(0, var) equals, bit for bit, the one-line
    expression it replaced, also when the rows are not a whole number of
    NOISE_BLOCK_ROWS blocks (13 rows) or fewer than one (1 row), and
    leaves the generator where that expression left it."""
    var = 3.7e-11
    ref, rng = np.random.default_rng(5), np.random.default_rng(5)
    std = np.sqrt(var / 2.0)
    want = std * (ref.normal(size=shape) + 1j * ref.normal(size=shape))
    got = channel._complex_normal(rng, shape, var)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_comm_nlos_needs_reflections(wave, array):
    scen = generate_scenario(2, n_scatterers=1)
    beams = channel.build_beamformers(scen, array)
    with pytest.raises(ValueError):
        channel.comm_csi(scen, wave, beams)
