"""Working set of the sensing and link draws and of the theory report,
traced with tracemalloc (numpy reports its array buffers to it), and the
exactness of the blocked AoA covariance.  The covariance tests also run
under two BLAS threads, where the product is partitioned differently."""

import tracemalloc

import numpy as np
import pytest

from jcs_music import channel, harness, music, theory
from jcs_music.subspace import covariance


def _peak(fn):
    """(fn(), peak bytes traced while it ran)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _echo_matrix(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) \
        + 1j * rng.standard_normal((rows, cols))


def test_covariance_copies_one_block_of_rows():
    """The 64 x 16 384 AoA covariance allocates, beyond its output, the
    conjugate of one block of 16 rows (a quarter of the input), not a
    conjugate copy of the whole input."""
    y = _echo_matrix(64, 16384)
    r, peak = _peak(lambda: covariance(y))
    assert peak - r.nbytes <= y.nbytes / 3, peak


def test_aoa_grid_build_peaks_near_its_steering():
    """Building the cached half-azimuth steering holds little more than
    the steering itself: its chunks' temporaries, not the whole grid's."""
    music._aoa_grid.cache_clear()
    (_, _, a_half), peak = _peak(lambda: music._aoa_grid(8, 8, 0.5, 1.0))
    assert a_half.shape == (64, 180 * 91)
    assert peak <= 1.25 * a_half.nbytes, peak


def test_estimated_beam_draw_holds_the_tensor_and_a_few_blocks(ctx):
    """An estimated-beam draw at the shipped numerology peaks at its
    (PQ, N_c, M_s) tensor plus a few NOISE_BLOCK_ROWS blocks of noise
    (1 MiB each): one noise block, one conjugate covariance block, the
    echo's per-path factors and small arrays, not a whole noise plane."""
    scen_seed, rng = harness.trial_rng(11, 0, 0)
    draw, peak = _peak(
        lambda: harness.draw_sensing_trial(ctx, 10.0, scen_seed, rng))
    y = draw.snapshots
    block = channel.NOISE_BLOCK_ROWS * y[0].size * 8
    assert y.shape == (64, 256, 64) and block == 2 ** 20
    assert peak <= y.nbytes + 8 * block, peak


@pytest.mark.parametrize("true_beam_draw", [
    lambda ctx, s, rng: harness.draw_ber_trial(ctx, 20.0, s, rng),
    lambda ctx, s, rng: harness.draw_sensing_trial(ctx, 10.0, s, rng,
                                                   use_true_beam=True)],
    ids=["ber", "true-beam"])
def test_fixed_beam_draw_holds_no_noise_plane(ctx, true_beam_draw):
    """A fixed-beam draw at the shipped numerology peaks at its echo's
    per-path factors, a few (N_c, M_s) frames (the beam, its per-plane
    sums, a block product, the communication frames) and two
    NOISE_BLOCK_ROWS blocks of noise, not a (PQ, N_c*M_s) noise plane
    (8 MiB)."""
    scen_seed, rng = harness.trial_rng(11, 0, 0)
    _, peak = _peak(lambda: true_beam_draw(ctx, scen_seed, rng))
    n_paths = harness._scene(ctx, scen_seed).n_paths
    frame = ctx.wave.n_subcarriers * ctx.wave.n_symbols * 16
    block = channel.NOISE_BLOCK_ROWS * frame // 2
    assert ctx.array.size * frame // 2 == 8 * block == 2 ** 23
    assert peak <= n_paths * frame + 6 * frame + 2 * block, peak


def test_perturbation_report_holds_one_draw_and_a_block(ctx):
    """A perturbation report of 2000 draws at the shipped numerology
    peaks near its largest noise draw, the (N_c, 2000) complex matrix of
    the range draws (7.8 MiB): the draw is filled one NOISE_BLOCK_ROWS
    block per plane at a time, so no real plane, sum or scaled copy of
    it is held beside it."""
    scen_seed, _ = harness.trial_rng(7, 0, 0)
    scenario = harness._scene(ctx, scen_seed)
    beams = channel.build_beamformers(scenario, ctx.array)
    p_tx = channel.calibrate_power_sense(scenario, ctx.wave, beams,
                                         ctx.noise, 10.0)
    _, peak = _peak(lambda: theory.perturbation_report(
        scenario, ctx.wave.with_power(p_tx), ctx.array, beams, ctx.noise,
        n_draws=2000))
    draw = ctx.wave.n_subcarriers * 2000 * 16
    assert peak <= 1.35 * draw, peak


@pytest.mark.parametrize("shape", [(15, 40), (17, 300), (2, 3), (20, 50),
                                   (64, 16384)],
                         ids=lambda s: "x".join(map(str, s)))
def test_covariance_is_exactly_hermitian(shape):
    """The mirrored lower triangle is exactly Hermitian, with a real
    diagonal, and equals the symmetrized full product to rounding, also
    when the rows are not a whole number of blocks (20 rows: a 4-row tail
    block, mirrored into the upper triangle)."""
    y = _echo_matrix(*shape, seed=shape[0])
    r = covariance(y)
    assert np.array_equal(r, r.conj().T)
    full = y @ y.conj().T / shape[1]
    np.testing.assert_allclose(r, 0.5 * (full + full.conj().T),
                               rtol=1e-12, atol=0)
