"""Monte Carlo harness: seeded sweeps over SINR grids, metric aggregation,
theory overlays, and CSV emission."""

from __future__ import annotations

import csv
import io
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import channel, csi, fft_baseline, music, qam, subspace, theory
from .config import RunContext
from .music import music_aoa, music_doppler, music_range
from .scenario import Scenario, generate_scenario
from .steering import Angle2D

CSV_HEADER = ["sinr_db", "metric", "series", "value", "ci", "trials", "seed"]


@dataclass(frozen=True)
class ResultRow:
    sinr_db: float
    metric: str
    series: str
    value: float
    ci: float
    trials: int
    seed: int


@dataclass
class ResultTable:
    rows: list[ResultRow]

    def filter(self, metric: str | None = None,
               series: str | None = None) -> "ResultTable":
        rows = [r for r in self.rows
                if (metric is None or r.metric == metric)
                and (series is None or r.series == series)]
        return ResultTable(rows)

    def value(self, sinr_db: float, metric: str, series: str) -> float:
        for r in self.rows:
            if (r.metric == metric and r.series == series
                    and abs(r.sinr_db - sinr_db) < 1e-9):
                return r.value
        raise KeyError(f"no row for ({sinr_db}, {metric}, {series})")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(CSV_HEADER)
        for r in self.rows:
            w.writerow([f"{r.sinr_db:.9g}", r.metric, r.series,
                        f"{r.value:.9g}", f"{r.ci:.9g}", r.trials, r.seed])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        rows = [ResultRow(sinr_db=float(a), metric=b, series=c,
                          value=float(d), ci=float(e), trials=int(f),
                          seed=int(g))
                for a, b, c, d, e, f, g in reader]
        return cls(rows)


def resolution_constants(ctx: RunContext) -> tuple[float, float]:
    """(range bin, velocity bin) of the on-grid baseline: half its
    round-trip range bin and half a wavelength per Doppler bin."""
    wave = ctx.wave
    dr = fft_baseline.range_bin_width_rt(wave) / 2.0
    dv = wave.wavelength() * fft_baseline.doppler_bin_width(wave) / 2.0
    return dr, dv


def trial_rng(master_seed: int, point_idx: int, trial_idx: int):
    """Independent (scenario_seed, rng) for one trial, scheduling-invariant."""
    ss = np.random.SeedSequence([master_seed, point_idx, trial_idx])
    scen_ss, noise_ss = ss.spawn(2)
    scen_seed = int(scen_ss.generate_state(1)[0])
    return scen_seed, np.random.default_rng(noise_ss)


def _wrap_angle(x: float) -> float:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _nearest_aoa(estimates, truth: Angle2D):
    """Estimate whose angles are closest to the truth (azimuth wrapped)."""
    best, best_d = None, np.inf
    for est in estimates:
        daz = _wrap_angle(float(est.value[0]) - truth.azimuth)
        del_ = float(est.value[1]) - truth.elevation
        d = daz ** 2 + del_ ** 2
        if d < best_d:
            best, best_d = est, d
    return best


def _nearest_estimate(estimates, anchor: float, period: float | None = None,
                      tol: float | None = None):
    """Estimate associated with an on-grid anchor (optionally circular).

    The MUSIC pseudo-spectrum height orders targets by subspace null
    depth, not by power, so the strongest peak in a beam is not always
    the beam's dominant target; the on-grid periodogram peak is
    power-ordered and anchors the association instead.  The anchor is
    quantized to its bin, so when `tol` (roughly half a bin width) is
    given, the deepest-null estimate within tol wins over a marginally
    nearer spurious one; with no candidate inside tol the nearest is
    returned.
    """
    def dist(v):
        d = abs(v - anchor)
        return min(d, period - d) if period is not None else d

    if tol is not None:
        near = [e for e in estimates if dist(float(e.value)) <= tol]
        if near:
            return max(near, key=lambda e: e.spectrum)
    return min(estimates, key=lambda e: dist(float(e.value)))


def _principal_doppler(f: float, symbol_duration: float) -> float:
    """Map a Doppler estimate from [0, 1/T) to (-1/(2T), 1/(2T)]."""
    span = 1.0 / symbol_duration
    return f - span if f > span / 2.0 else f


def _scene(ctx: RunContext, scen_seed: int, **overrides) -> Scenario:
    """The trial's scene from the config's scenario keys; a keyword
    argument overrides one of n_scatterers, reflect_var and mue_x."""
    cfg = ctx.config["scenario"]
    kwargs = {"n_scatterers": int(cfg["n_scatterers"]),
              "reflect_var": float(cfg["reflect_var"]),
              "mue_x": cfg["mue_x"], **overrides}
    return generate_scenario(scen_seed, **kwargs)


def _beam_output(ctx: RunContext, echo: channel.EchoRealization,
                 angle: Angle2D, rng: np.random.Generator):
    """Draw of the per-beam matrix h_bar: the noiseless echo through the
    receive beam steered at `angle`, its noise drawn by a fill that
    reduces each plane to the beam, with the symbols erased."""
    w = channel.sense_rx_beamformer(ctx.array, angle)
    beam = yield partial(channel._noisy_beam, echo, w, rng,
                         ctx.noise.echo_noise_std)
    return beam / echo.symbols


def _beam_range(h_bar: np.ndarray, wave: channel.WaveformConfig):
    """Range step of the per-beam chain: the MUSIC range of h_bar the FFT
    anchor associates.  Returns (FFT result, round-trip range, range
    source count)."""
    per = fft_baseline.fft_range_doppler(h_bar, wave)
    r_ests, dec_r = music_range(h_bar, wave)
    r_rt = float(_nearest_estimate(r_ests, per.range_rt,
                                   period=wave.c / wave.subcarrier_spacing,
                                   tol=0.6 * per.range_bin_width).value)
    return per, r_rt, dec_r.source_count


def _beam_doppler(h_bar: np.ndarray, wave: channel.WaveformConfig,
                  per: fft_baseline.PeriodogramResult, n_sources: int) -> float:
    """Doppler step of the per-beam chain: the MUSIC Doppler the FFT
    anchor associates, mapped to the principal interval."""
    f_ests, _ = music_doppler(h_bar, wave, n_sources=n_sources)
    f_est = _nearest_estimate(f_ests, per.doppler,
                              period=1.0 / wave.symbol_duration,
                              tol=0.6 * per.doppler_bin_width)
    return _principal_doppler(float(f_est.value), wave.symbol_duration)


def _local_location(d: float, az: float, el: float) -> np.ndarray:
    return d * np.array([np.sin(el) * np.cos(az),
                         np.sin(el) * np.sin(az),
                         np.cos(el)])


# A trial is drawn, then estimated.  The draw is a generator function that
# makes every generator call of the trial in order.  Where the echo noise
# is drawn it yields a fill: a function of one (PQ, N_c*M_s) float plane
# that draws the noise from the trial's generator and reduces it as it is
# drawn.  A fixed-beam fill (channel._noisy_beam) draws the real plane and
# takes its beam, then redraws the plane as the imaginary one and takes its
# beam; an estimated-beam fill (_aoa_fill) builds the echo tensor, adds
# the noise a block of rows at a time, then takes the AoA covariance of
# the tensor.  The draw is sent what its fill returns and returns the
# drawn trial.  A fill calls numpy, channel._fill_echo_noise and
# subspace._covariance only, and is done with its plane when it returns,
# so the sweeps run fills on worker threads, each with its own plane.
# The estimate makes no random draw.

@dataclass(frozen=True)
class SensingDraw:
    """The random part of one sensing trial: the scene, the calibrated
    waveform and what the receiver observes.  With the true beam that is
    the per-beam matrix h_bar.  With an estimated beam it is the whole
    (PQ, N_c, M_s) echo tensor, its PQ x PQ sample covariance, from which
    the AoA is estimated, and the symbols; the estimated beam is read
    from the tensor and divided by the symbols.  The other case's fields
    are None."""

    scenario: Scenario
    wave: channel.WaveformConfig
    h_bar: np.ndarray | None
    snapshots: np.ndarray | None = None
    symbols: np.ndarray | None = None
    covariance: np.ndarray | None = None


@dataclass(frozen=True)
class BerDraw:
    """The random part of one CSI-enhancement trial: the waveform, the
    preamble frame, the sensing frame's h_bar through the beam aimed at
    the user, and the data frame over the same channel realization."""

    wave: channel.WaveformConfig
    preamble: channel.CommRealization
    h_bar: np.ndarray
    data: channel.CommRealization


def _frame_draw(ctx: RunContext, scenario: Scenario,
                beams: channel.Beamformers, sinr_db: float,
                rng: np.random.Generator, use_true_beam: bool):
    """Draw of one sensing frame on a set-up scene: calibrated power and
    the echo."""
    p_tx = channel.calibrate_power_sense(scenario, ctx.wave, beams, ctx.noise,
                                         sinr_db)
    wave = ctx.wave.with_power(p_tx)
    echo = channel.synthesize_echo(scenario, wave, ctx.array, beams, rng,
                                   fading=ctx.config["scenario"]["fading"])
    if use_true_beam:
        h_bar = yield from _beam_output(ctx, echo, scenario.mue_path.aoa, rng)
        return SensingDraw(scenario, wave, h_bar)
    snapshots, cov = yield partial(_aoa_fill, echo, rng,
                                   ctx.noise.echo_noise_std)
    return SensingDraw(scenario, wave, None, snapshots, echo.symbols, cov)


def _aoa_fill(echo: channel.EchoRealization, rng: np.random.Generator,
              std: float, plane: np.ndarray):
    """Fill of an estimated-beam draw: the noisy echo tensor, and the
    sample covariance of its (PQ, N_c*M_s) matrix that music_aoa reads."""
    y = channel._noisy_snapshots(echo, rng, std, plane)
    return y, subspace._covariance(y.reshape(len(y), -1))


def _sensing_draw(ctx: RunContext, sinr_db: float, scen_seed: int,
                  rng: np.random.Generator, use_true_beam: bool):
    """Draw of one sensing trial: its scene, then one frame."""
    scenario = _scene(ctx, scen_seed)
    beams = channel.build_beamformers(scenario, ctx.array)
    return (yield from _frame_draw(ctx, scenario, beams, sinr_db, rng,
                                   use_true_beam))


def _ber_draw(ctx: RunContext, csinr_db: float, scen_seed: int,
              rng: np.random.Generator, mue_x: float, qam_order: int):
    """Draw of one CSI-enhancement trial: its scene, then the preamble,
    sensing and data frames over one channel realization."""
    cfg = ctx.config["scenario"]
    scenario = _scene(ctx, scen_seed, mue_x=mue_x)
    beams = channel.build_beamformers(scenario, ctx.array)
    p_tx = channel.calibrate_power_comm(scenario, ctx.wave, beams, ctx.noise,
                                        csinr_db)
    wave = replace(ctx.wave, tx_power=p_tx, qam_order=qam_order)
    refl = channel.draw_reflections(scenario, rng, cfg["fading"])
    pre = qam.preamble(wave.n_subcarriers, wave.n_symbols)
    comm_pre = channel.synthesize_comm(scenario, wave, beams, ctx.noise, rng,
                                       symbols=pre, reflections=refl)
    echo = channel.synthesize_echo(scenario, wave, ctx.array, beams, rng,
                                   reflections=refl, fading=cfg["fading"])
    h_bar = yield from _beam_output(ctx, echo, scenario.mue_path.aoa, rng)
    comm_data = channel.synthesize_comm(scenario, wave, beams, ctx.noise, rng,
                                        reflections=refl)
    return BerDraw(wave, comm_pre, h_bar, comm_data)


# Noise fills in flight, each on its own worker thread with its own plane:
# two keep both cores of a two-core machine busy while the calling thread
# waits, and each more worker holds one more plane (8 MiB at the shipped
# numerology).
NOISE_WORKERS = 2


def _noise_plane(ctx: RunContext) -> np.ndarray:
    """Uninitialised (PQ, N_c*M_s) echo noise plane."""
    return np.empty((ctx.array.size,
                     ctx.wave.n_subcarriers * ctx.wave.n_symbols))


def _finish(draw, filled):
    """Send a started draw what its fill returned; the drawn trial."""
    try:
        draw.send(filled)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a trial draw yields once, for its echo noise")


def _draw_here(ctx: RunContext, draw):
    """Run a draw to the end on this thread."""
    fill = next(draw)
    return _finish(draw, fill(_noise_plane(ctx)))


def _estimate_each(ctx: RunContext, draws, estimate) -> list:
    """estimate(ctx, drawn) for each draw in turn, on this thread, while
    NOISE_WORKERS worker threads run the draws' noise fills.

    Each trial owns its generator, so the fills of two trials can run at
    once.  This thread runs a draw up to its noise and submits its fill
    with the plane that trial k's fill uses, plane k mod NOISE_WORKERS.
    It starts the first NOISE_WORKERS draws at once.  Then for each trial
    it waits for its fill, finishes its draw and estimates it, and only
    after the estimate returns does it start the next draw.  So at most
    NOISE_WORKERS fills are in flight, an estimate runs beside at most one
    fill, and this thread waits only while every worker is filling.  A
    fill reduces its plane before it returns, so trial k + NOISE_WORKERS's
    fill may reuse trial k's plane.  This thread never touches the
    generator of a fill in flight, so every value is the one drawn inline.
    """
    draws = enumerate(draws)
    # allocated once and reused: a plane per fill raised the `theory`
    # benchmark's peak RSS from 66.3 to 78.7-85.7 MB (3 runs, 2 vCPUs)
    planes = [_noise_plane(ctx) for _ in range(NOISE_WORKERS)]
    ahead: deque = deque()
    out: list = []
    with ThreadPoolExecutor(max_workers=NOISE_WORKERS) as workers:
        def start():
            k, draw = next(draws, (None, None))
            if draw is not None:
                fill = next(draw)
                ahead.append((draw, workers.submit(
                    fill, planes[k % NOISE_WORKERS])))

        for _ in planes:
            start()
        while ahead:
            draw, filling = ahead.popleft()
            drawn = _finish(draw, filling.result())
            del filling   # its result is drawn's
            out.append(estimate(ctx, drawn))
            del drawn     # freed before the next trial is drawn
            start()
    return out


def draw_sensing_trial(ctx: RunContext, sinr_db: float, scen_seed: int,
                       rng: np.random.Generator,
                       use_true_beam: bool = False) -> SensingDraw:
    """Every random draw of one sensing trial, for `sensing_trial`."""
    return _draw_here(ctx, _sensing_draw(ctx, sinr_db, scen_seed, rng,
                                         use_true_beam))


def sensing_trial(ctx: RunContext, draw: SensingDraw) -> dict:
    """Estimates of one sensing trial (MUSIC AoA or the true beam, then
    the range and Doppler steps); per-metric squared errors for the
    direct path, for both the subspace and the on-grid estimators."""
    truth = draw.scenario.mue_path
    wave = draw.wave
    lam = wave.wavelength()

    if draw.snapshots is None:
        beam_angle, h_bar = truth.aoa, draw.h_bar
        az_err = el_err = 0.0
    else:
        ests, _ = music_aoa(draw.covariance, ctx.array)
        est = _nearest_aoa(ests, truth.aoa)
        beam_angle = Angle2D(float(est.value[0]), float(est.value[1]))
        az_err = _wrap_angle(beam_angle.azimuth - truth.aoa.azimuth)
        el_err = beam_angle.elevation - truth.aoa.elevation
        w = channel.sense_rx_beamformer(ctx.array, beam_angle)
        h_bar = music.beamform_and_erase(draw.snapshots, w, draw.symbols)

    per, r_hat, n_src = _beam_range(h_bar, wave)
    d_hat = r_hat / 2.0
    f_hat = _beam_doppler(h_bar, wave, per, n_src)
    v_hat = lam * f_hat / 2.0

    f_true = 2.0 * truth.v1 / lam
    loc_mus = _local_location(d_hat, beam_angle.azimuth, beam_angle.elevation)
    loc_true = _local_location(truth.d1, truth.aoa.azimuth, truth.aoa.elevation)

    fft_f = _principal_doppler(per.doppler, wave.symbol_duration)
    fft_v = lam * fft_f / 2.0

    return {
        "azimuth_mse": {"music": az_err ** 2},
        "elevation_mse": {"music": el_err ** 2},
        "range_mse": {"music": (d_hat - truth.d1) ** 2,
                      "fft": (per.distance - truth.d1) ** 2},
        "velocity_mse": {"music": (v_hat - truth.v1) ** 2,
                         "fft": (fft_v - truth.v1) ** 2},
        "doppler_mse": {"music": (f_hat - f_true) ** 2},
        "location_mse": {"music": float(np.sum((loc_mus - loc_true) ** 2))},
    }


def _aggregate(point_values: dict, sinr_db: float, trials: int,
               seed: int) -> list[ResultRow]:
    rows = []
    for metric, series_map in point_values.items():
        for series, vals in series_map.items():
            arr = np.asarray(vals, dtype=float)
            ci = float(1.96 * arr.std(ddof=1) / np.sqrt(len(arr))) \
                if len(arr) > 1 else 0.0
            rows.append(ResultRow(sinr_db=sinr_db, metric=metric,
                                  series=series, value=float(arr.mean()),
                                  ci=ci, trials=trials, seed=seed))
    return rows


def _sweep_points(ctx: RunContext, sinr_grid, trials: int | None):
    """(SINR grid, trials per point) of a sweep; None takes the config's
    sweep.sinr_grid_db or sweep.trials."""
    sweep = ctx.config["sweep"]
    grid = sweep["sinr_grid_db"] if sinr_grid is None else sinr_grid
    return list(grid), int(sweep["trials"] if trials is None else trials)


def run_sweep_mse(ctx: RunContext, sinr_grid=None, trials: int | None = None,
                  master_seed: int = 0,
                  use_true_beam: bool = False) -> ResultTable:
    """Monte Carlo MSE sweep for the subspace and on-grid estimators."""
    grid, n = _sweep_points(ctx, sinr_grid, trials)
    draws = (_sensing_draw(ctx, sinr, *trial_rng(master_seed, pi, t),
                           use_true_beam)
             for pi, sinr in enumerate(grid) for t in range(n))
    results = _estimate_each(ctx, draws, sensing_trial)
    rows: list[ResultRow] = []
    for pi, sinr in enumerate(grid):
        acc: dict = {}
        for res in results[pi * n:(pi + 1) * n]:
            for metric, smap in res.items():
                for series, val in smap.items():
                    acc.setdefault(metric, {}).setdefault(series, []).append(val)
        rows.extend(_aggregate(acc, sinr, n, master_seed))
    return ResultTable(rows)


def draw_ber_trial(ctx: RunContext, csinr_db: float, scen_seed: int,
                   rng: np.random.Generator, mue_x: float = 75.0,
                   qam_order: int = 64) -> BerDraw:
    """Every random draw of one CSI-enhancement trial, for `ber_trial`."""
    return _draw_here(ctx, _ber_draw(ctx, csinr_db, scen_seed, rng, mue_x,
                                     qam_order))


def ber_trial(ctx: RunContext, draw: BerDraw) -> dict:
    """Estimates of one CSI-enhancement trial: BER for cases A (perfect
    CSI), B (raw LS), C (delay from subspace range estimate), D (delay
    from FFT bin)."""
    wave, comm_data = draw.wave, draw.data
    h_ls = csi.ls_csi(draw.preamble.samples, draw.preamble.symbols,
                      wave.tx_power)
    per, r_rt, _ = _beam_range(draw.h_bar, wave)
    tau_music = r_rt / (2.0 * wave.c)
    tau_fft = per.range_rt / (2.0 * wave.c)

    sigma_p2 = csi.estimate_sigma_p(h_ls)
    df = wave.subcarrier_spacing
    cases = {
        "case_a": comm_data.csi,
        "case_b": h_ls,
        "case_c": csi.kalman_enhance(h_ls, tau_music, df, sigma_p2),
        "case_d": csi.kalman_enhance(h_ls, tau_fft, df, sigma_p2),
    }
    out = {}
    for name, h in cases.items():
        dem = csi.equalize_and_demodulate(comm_data.samples, h, wave.tx_power,
                                          wave.qam_order, comm_data.labels)
        out[name] = dem.ber
    out["csi_mse_ls"] = float(np.mean(np.abs(h_ls - comm_data.csi) ** 2))
    out["csi_mse_enhanced"] = float(
        np.mean(np.abs(cases["case_c"] - comm_data.csi) ** 2))
    return out


def run_sweep_ber(ctx: RunContext, csinr_grid=None, trials: int | None = None,
                  master_seed: int = 0, mue_x: float = 75.0,
                  qam_order: int = 64) -> ResultTable:
    """BER sweep over C-SINR (default 10 to 30 dB) for the four CSI cases."""
    grid, n = _sweep_points(
        ctx, [10.0, 15.0, 20.0, 25.0, 30.0] if csinr_grid is None
        else csinr_grid, trials)
    draws = (_ber_draw(ctx, sinr, *trial_rng(master_seed, pi, t), mue_x,
                       qam_order)
             for pi, sinr in enumerate(grid) for t in range(n))
    results = _estimate_each(ctx, draws, ber_trial)
    rows: list[ResultRow] = []
    for pi, sinr in enumerate(grid):
        acc: dict = {"ber": {}, "csi_mse": {}}
        for res in results[pi * n:(pi + 1) * n]:
            for case in ("case_a", "case_b", "case_c", "case_d"):
                acc["ber"].setdefault(case, []).append(res[case])
            acc["csi_mse"].setdefault("ls", []).append(res["csi_mse_ls"])
            acc["csi_mse"].setdefault("enhanced", []).append(
                res["csi_mse_enhanced"])
        rows.extend(_aggregate(acc, sinr, n, master_seed))
    return ResultTable(rows)


def spectrum_snapshot(ctx: RunContext, sinr_db: float = -20.0,
                      master_seed: int = 0, pad: int = 8) -> dict:
    """Normalized range and velocity spectra of one realization, with PSLR:
    the true-beam draw of trial (master_seed, 0, 0)."""
    draw = draw_sensing_trial(ctx, sinr_db, *trial_rng(master_seed, 0, 0),
                              use_true_beam=True)
    scenario, wave, h_bar = draw.scenario, draw.wave, draw.h_bar
    lam = wave.wavelength()
    r_grid, s_range = music.range_spectrum(h_bar, wave)
    f_grid, s_dopp = music.doppler_spectrum(h_bar, wave)

    mag = fft_baseline.periodogram_map(h_bar, pad=pad)
    power = mag ** 2
    kr, kd = np.unravel_index(int(np.argmax(power)), power.shape)
    fft_range_profile = power[:, kd]
    fft_dopp_profile = power[kr, :]

    return {
        "range_grid_m": r_grid / 2.0,
        "velocity_grid": lam * f_grid / 2.0,
        "music_range_spectrum": s_range / s_range.max(),
        "music_velocity_spectrum": s_dopp / s_dopp.max(),
        "fft_range_spectrum": fft_range_profile / fft_range_profile.max(),
        "fft_velocity_spectrum": fft_dopp_profile / fft_dopp_profile.max(),
        "music_range_pslr_db": fft_baseline.pslr_db(s_range),
        "music_velocity_pslr_db": fft_baseline.pslr_db(s_dopp),
        "fft_range_pslr_db": fft_baseline.pslr_db(fft_range_profile),
        "fft_velocity_pslr_db": fft_baseline.pslr_db(fft_dopp_profile),
        "truth_distance_m": scenario.mue_path.d1,
        "truth_velocity": scenario.mue_path.v1,
    }


def validate_theory(ctx: RunContext, sinr_grid=None,
                    trials: int | None = None, master_seed: int = 0,
                    n_draws: int = 1000) -> ResultTable:
    """Simulated MUSIC MSEs next to perturbation predictions and CRBs.

    One fixed scenario per run; trials vary noise, symbols, and
    reflection phases only, matching the conditioning of the analytic
    formulas.  The grid and trials default to the config's sweep keys.
    """
    grid, n = _sweep_points(ctx, sinr_grid, trials)
    scen_seed, _ = trial_rng(master_seed, 0, 0)
    scenario = _scene(ctx, scen_seed)
    beams = channel.build_beamformers(scenario, ctx.array)
    truth = scenario.mue_path
    draws = (_frame_draw(ctx, scenario, beams, sinr,
                         trial_rng(master_seed, pi + 1, t)[1], True)
             for pi, sinr in enumerate(grid) for t in range(n))
    # every trial first, so no noise buffer is alive during the per-point
    # perturbation_report
    results = _estimate_each(ctx, draws, sensing_trial)
    rows: list[ResultRow] = []
    for pi, sinr in enumerate(grid):
        acc: dict = {"range_mse": {"music": []}, "velocity_mse": {"music": []}}
        for res in results[pi * n:(pi + 1) * n]:
            for metric, series in acc.items():
                series["music"].append(res[metric]["music"])
        rows.extend(_aggregate(acc, sinr, n, master_seed))

        p_tx = channel.calibrate_power_sense(scenario, ctx.wave, beams,
                                             ctx.noise, sinr)
        rep = theory.perturbation_report(scenario, ctx.wave.with_power(p_tx),
                                         ctx.array, beams, ctx.noise,
                                         seed=master_seed, n_draws=n_draws)
        bound = theory.crb(ctx.wave, ctx.array, sinr, truth.aoa.azimuth,
                           truth.aoa.elevation)
        for metric, th_val, crb_val in (
                ("range_mse", rep.mse_distance, bound.distance),
                ("velocity_mse", rep.mse_velocity, bound.velocity)):
            rows.append(ResultRow(sinr, metric, "theory", th_val, 0.0,
                                  n_draws, master_seed))
            rows.append(ResultRow(sinr, metric, "crb", crb_val, 0.0,
                                  0, master_seed))
    return ResultTable(rows)


def crb_table(ctx: RunContext, sinr_grid=None, master_seed: int = 0) -> ResultTable:
    """Closed-form bounds across the SINR grid for a drawn scenario."""
    grid, _ = _sweep_points(ctx, sinr_grid, None)
    scen_seed, _ = trial_rng(master_seed, 0, 0)
    truth = _scene(ctx, scen_seed).mue_path
    rows = []
    for sinr in grid:
        b = theory.crb(ctx.wave, ctx.array, sinr, truth.aoa.azimuth,
                       truth.aoa.elevation)
        for metric, val in (("range_mse", b.distance),
                            ("velocity_mse", b.velocity),
                            ("azimuth_mse", b.azimuth),
                            ("elevation_mse", b.elevation)):
            rows.append(ResultRow(sinr, metric, "crb", val, 0.0, 0, master_seed))
    return ResultTable(rows)


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot result tables emitted alongside this script (needs matplotlib).\"\"\"
import csv
import sys
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

path = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "table.csv")
series = defaultdict(lambda: ([], []))
with open(path) as fh:
    for row in csv.DictReader(fh):
        key = (row["metric"], row["series"])
        series[key][0].append(float(row["sinr_db"]))
        series[key][1].append(float(row["value"]))

metrics = sorted({m for m, _ in series})
fig, axes = plt.subplots(len(metrics), 1, figsize=(7, 4 * len(metrics)),
                         squeeze=False)
for ax, metric in zip(axes[:, 0], metrics):
    for (m, s), (x, y) in sorted(series.items()):
        if m != metric:
            continue
        ax.semilogy(x, y, marker="o", label=s)
    ax.set_xlabel("SINR (dB)")
    ax.set_ylabel(metric)
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
fig.tight_layout()
out = path.with_suffix(".png")
fig.savefig(out, dpi=150)
print(f"wrote {out}")
"""


def emit_results(table: ResultTable, out_dir: str | Path,
                 name: str = "table") -> list[Path]:
    """Write the CSV and a companion plot script; returns written paths."""
    if not table.rows:
        metrics = ["azimuth_mse", "elevation_mse", "range_mse",
                   "velocity_mse", "doppler_mse", "location_mse", "ber",
                   "csi_mse", "pslr"]
        raise ValueError(
            "empty result table; available metrics: " + ", ".join(metrics))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    csv_path.write_text(table.to_csv())
    script_path = out / "plot_results.py"
    script_path.write_text(PLOT_SCRIPT)
    return [csv_path, script_path]
