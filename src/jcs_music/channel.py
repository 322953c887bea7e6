"""OFDM waveform numerology, beamforming, power calibration, and synthesis
of echo and communication snapshots at calibrated SINR."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import qam
from .constants import SPEED_OF_LIGHT
from .scenario import Scenario
from .steering import Angle2D, ArrayConfig, spatial_steering


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM numerology plus transmit power."""

    n_subcarriers: int = 256
    n_symbols: int = 64
    subcarrier_spacing: float = 480e3
    guard_interval: float = 0.0
    carrier_freq: float = 63e9
    qam_order: int = 4
    tx_power: float = 1.0

    def __post_init__(self):
        if self.qam_order not in (4, 16, 64):
            raise ValueError("qam_order must be 4, 16, or 64")
        if self.subcarrier_spacing <= 0 or self.guard_interval < 0:
            raise ValueError("invalid numerology")

    @property
    def symbol_duration(self) -> float:
        return 1.0 / self.subcarrier_spacing + self.guard_interval

    @property
    def bandwidth(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing

    def wavelength(self, c: float = SPEED_OF_LIGHT) -> float:
        return c / self.carrier_freq

    def with_power(self, p: float) -> "WaveformConfig":
        return replace(self, tx_power=p)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise floor and interference levels."""

    noise_var: float = 4.9177e-12
    inr_sense_db: float = 3.0
    inr_comm_db: float = 3.0

    @property
    def interference_power_sense(self) -> float:
        return self.noise_var * 10.0 ** (self.inr_sense_db / 10.0)

    @property
    def interference_power_comm(self) -> float:
        return self.noise_var * 10.0 ** (self.inr_comm_db / 10.0)

    @property
    def total_sense_var(self) -> float:
        return self.noise_var + self.interference_power_sense

    @property
    def total_comm_var(self) -> float:
        return self.noise_var + self.interference_power_comm

    @property
    def echo_noise_std(self) -> float:
        """Standard deviation of each real and imaginary part of the echo
        noise."""
        return np.sqrt(self.total_sense_var / 2.0)


@dataclass(frozen=True)
class Beamformers:
    tx: np.ndarray                 # (PQ,), unit norm
    tx_gains: np.ndarray           # chi_l = a(p_l)^T tx per path


def build_beamformers(scenario: Scenario,
                      tx_array: ArrayConfig) -> Beamformers:
    """Least-squares beams aimed at the direct path.

    The pseudo-inverse of a single steering row is its scaled conjugate,
    so the unit-norm transmit beam is conj(a)/||a|| and the aligned gain
    is ||a|| = sqrt(P*Q).  The MUE has a single receive antenna.
    """
    a0 = spatial_steering(tx_array, scenario.mue_path.aoa)
    w_tx = np.conj(a0) / np.linalg.norm(a0)
    gains = np.array([spatial_steering(tx_array, p.aoa) @ w_tx
                      for p in scenario.paths])
    return Beamformers(tx=w_tx, tx_gains=gains)


def sense_rx_beamformer(tx_array: ArrayConfig, angle: Angle2D) -> np.ndarray:
    """Unit-norm echo receive beam for one detected AoA."""
    a = spatial_steering(tx_array, angle)
    return a / np.linalg.norm(a)


def echo_amplitude(scenario: Scenario, wave: WaveformConfig, l: int,
                   c: float = SPEED_OF_LIGHT) -> float:
    """Deterministic part of b_S,l: two-way spreading loss, unit reflection."""
    lam = wave.wavelength(c)
    d = scenario.paths[l].d1
    return float(np.sqrt(lam ** 2 / ((4.0 * np.pi) ** 3 * d ** 4)))


def comm_los_amplitude(scenario: Scenario, wave: WaveformConfig,
                       c: float = SPEED_OF_LIGHT) -> float:
    lam = wave.wavelength(c)
    return float(lam / (4.0 * np.pi * scenario.mue_path.d1))


def comm_nlos_amplitude(scenario: Scenario, wave: WaveformConfig, l: int,
                        c: float = SPEED_OF_LIGHT) -> float:
    lam = wave.wavelength(c)
    p = scenario.paths[l]
    return float(np.sqrt(lam ** 2 / ((4.0 * np.pi) ** 3 * p.d1 ** 2 * p.d2 ** 2)))


def draw_reflections(scenario: Scenario, rng: np.random.Generator,
                     fading: str = "phase") -> np.ndarray:
    """One reflection factor per path for a frame (slow fading).

    "phase": fixed magnitude sqrt(var), uniform phase — keeps the frame
    SINR deterministic.  "rayleigh": CN(0, var).
    """
    out = np.empty(scenario.n_paths, dtype=complex)
    for i, p in enumerate(scenario.paths):
        sig = np.sqrt(p.reflect_var_sense)
        if fading == "phase":
            out[i] = sig * np.exp(2j * np.pi * rng.uniform())
        elif fading == "rayleigh":
            out[i] = sig * (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
        else:
            raise ValueError(f"unknown fading mode {fading!r}")
    return out


def calibrate_power_sense(scenario: Scenario, wave: WaveformConfig,
                          beams: Beamformers, noise: NoiseConfig,
                          target_sinr_db: float,
                          c: float = SPEED_OF_LIGHT) -> float:
    """Transmit power that puts the direct echo at the target S-SINR.

    Inverts sinr = P * |b_S,0 * chi_0|^2 / (P_IS + sigma_N^2) with the
    reflection factor at its RMS magnitude.
    """
    gain = echo_amplitude(scenario, wave, 0, c) * abs(beams.tx_gains[0])
    gain2 = gain ** 2 * scenario.mue_path.reflect_var_sense
    if gain2 <= 0:
        raise ValueError("zero echo path gain; cannot calibrate power")
    sinr = 10.0 ** (target_sinr_db / 10.0)
    return sinr * noise.total_sense_var / gain2


def calibrate_power_comm(scenario: Scenario, wave: WaveformConfig,
                         beams: Beamformers, noise: NoiseConfig,
                         target_sinr_db: float,
                         c: float = SPEED_OF_LIGHT) -> float:
    """Transmit power that puts the LoS link at the target C-SINR."""
    gain = comm_los_amplitude(scenario, wave, c) * abs(beams.tx_gains[0])
    if gain <= 0:
        raise ValueError("zero LoS gain; cannot calibrate power")
    sinr = 10.0 ** (target_sinr_db / 10.0)
    return sinr * noise.total_comm_var / gain ** 2


@dataclass(frozen=True)
class EchoRealization:
    """One echo frame, held as per-path factors plus one noise draw.

    Y = sum_l steering[:, l] (x) factors[l] + N.  `beamform` reads one
    beam's output from the factors and the noise planes; only 2-D AoA
    estimation reads the whole (PQ, N_c, M_s) tensor, which `snapshots`
    builds on every read.
    """

    steering: np.ndarray           # (PQ, L) echo steering matrix
    factors: np.ndarray            # (L, N_c, M_s) sqrt(P) b_l chi_l d * ramp_l
    noise_draw: np.ndarray | None  # (2, PQ, N_c, M_s) real, imag; None if noiseless
    symbols: np.ndarray            # (N_c, M_s)

    @property
    def snapshots(self) -> np.ndarray:
        """(PQ, N_c, M_s) echo tensor, built one antenna row at a time:
        the paths summed in order through one (N_c, M_s) term buffer,
        then the noise planes added componentwise."""
        f = self.factors
        y = np.empty((len(self.steering),) + f.shape[1:], dtype=f.dtype)
        term = np.empty_like(f[0])
        for row, a in zip(y, self.steering):
            np.multiply(a[0], f[0], out=row)
            for l in range(1, len(f)):
                row += np.multiply(a[l], f[l], out=term)
        if self.noise_draw is not None:
            y.real += self.noise_draw[0]
            y.imag += self.noise_draw[1]
        return y

    def beamform(self, w: np.ndarray, planes=None) -> np.ndarray:
        """Beam output w^H Y, shape (N_c, M_s): (w^H A) X + w^H N, with
        w^H N from two real (2 x PQ) products, one on the real and one on
        the imaginary noise plane, so no PQ x N_c x M_s complex array is
        formed.  The planes are the echo's noise draw, or the two
        (PQ, N_c*M_s) arrays `planes` yields in turn; each is reduced
        before the next is taken, so one buffer can hold both."""
        y = (w.conj() @ self.steering) @ self.factors.reshape(
            len(self.factors), -1)
        if planes is None and self.noise_draw is not None:
            planes = self.noise_draw.reshape(2, len(w), -1)
        if planes is not None:
            w2 = np.stack([w.real, w.imag])
            nr, ni = (w2 @ plane for plane in planes)
            # (wr - j wi)(nr + j ni) = wr nr + wi ni + j (wr ni - wi nr)
            y.real += nr[0] + ni[1]
            y.imag += ni[0] - nr[1]
        return y.reshape(self.symbols.shape)


def path_phases(scenario: Scenario, wave: WaveformConfig, l: int,
                c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Echo phase ramp e^{-j2 pi n df tau} e^{+j2 pi m T f}, (N_c, M_s)."""
    p = scenario.paths[l]
    lam = wave.wavelength(c)
    tau = 2.0 * p.d1 / c
    fd = 2.0 * p.v1 / lam
    n = np.arange(wave.n_subcarriers)
    m = np.arange(wave.n_symbols)
    rng_ph = np.exp(-2j * np.pi * n * wave.subcarrier_spacing * tau)
    dop_ph = np.exp(2j * np.pi * m * wave.symbol_duration * fd)
    return np.outer(rng_ph, dop_ph)


def synthesize_echo(scenario: Scenario, wave: WaveformConfig,
                    tx_array: ArrayConfig, beams: Beamformers,
                    noise: NoiseConfig, rng: np.random.Generator,
                    reflections: np.ndarray | None = None,
                    fading: str = "phase",
                    c: float = SPEED_OF_LIGHT,
                    noiseless: bool = False) -> EchoRealization:
    """Received echo Y_S at the BS across all subcarriers/symbols, held
    as per-path factors plus one noise draw (see EchoRealization).

    The generator draws the random symbols, then the reflection factors
    unless they are given, then the noise planes unless noiseless."""
    nc, ms = wave.n_subcarriers, wave.n_symbols
    symbols, _ = qam.random_symbols((nc, ms), wave.qam_order, rng)
    if reflections is None:
        reflections = draw_reflections(scenario, rng, fading)

    steering = np.column_stack([spatial_steering(tx_array, p.aoa)
                                for p in scenario.paths])
    factors = np.empty((scenario.n_paths, nc, ms), dtype=complex)
    amp = np.sqrt(wave.tx_power)
    for l in range(scenario.n_paths):
        b = echo_amplitude(scenario, wave, l, c) * reflections[l]
        gain = b * beams.tx_gains[l]
        np.multiply(amp * gain * symbols, path_phases(scenario, wave, l, c),
                    out=factors[l])

    z = None
    if not noiseless:
        z = _fill_echo_noise(rng, np.empty((2, tx_array.size, nc, ms)),
                             noise.echo_noise_std)
    return EchoRealization(steering=steering, factors=factors, noise_draw=z,
                           symbols=symbols)


# Rows of echo noise an estimated-beam fill draws at a time, into the
# first rows of its plane: 1 MiB at the shipped N_c*M_s = 16 384.
NOISE_BLOCK_ROWS = 8


def _fill_echo_noise(rng: np.random.Generator, out: np.ndarray,
                     std: float) -> np.ndarray:
    """Draw the next `out.size` values of the echo noise into `out`.

    The echo noise is std * (normal + 1j * normal) over (PQ, N_c, M_s),
    drawn as the real plane, then the imaginary plane.  Every split of
    that sequence into consecutive `out` arrays (both planes at once, one
    plane, a block of rows) draws the same values and leaves the
    generator in the same state.  It calls numpy only, so the harness
    runs it on a worker thread."""
    rng.standard_normal(out=out)
    out *= std
    return out


def _noisy_beam(echo: EchoRealization, w: np.ndarray,
                rng: np.random.Generator, std: float,
                plane: np.ndarray) -> np.ndarray:
    """echo.beamform(w) of the noiseless `echo` with its noise drawn from
    rng: the real plane is drawn into `plane` (PQ, N_c*M_s) and reduced
    to the beam, then the imaginary plane is drawn into it."""
    return echo.beamform(w, (_fill_echo_noise(rng, plane, std)
                             for _ in range(2)))


def _noisy_snapshots(echo: EchoRealization, rng: np.random.Generator,
                     std: float, plane: np.ndarray) -> np.ndarray:
    """echo.snapshots of the noiseless `echo` with its noise drawn from
    rng NOISE_BLOCK_ROWS (N_c*M_s,) rows at a time, real parts first,
    into the first rows of `plane`; the rest of `plane` is not touched."""
    y = echo.snapshots
    rows = y.reshape(len(y), -1)
    for part in (rows.real, rows.imag):
        for i in range(0, len(part), NOISE_BLOCK_ROWS):
            block = part[i:i + NOISE_BLOCK_ROWS]
            block += _fill_echo_noise(rng, plane[:len(block)], std)
    return y


@dataclass(frozen=True)
class CommRealization:
    """Post-beamforming scalar communication samples and true CSI."""

    samples: np.ndarray            # (N_c, M_s) received y_C
    csi: np.ndarray                # (N_c, M_s) true h_C
    symbols: np.ndarray
    labels: np.ndarray


def comm_csi(scenario: Scenario, wave: WaveformConfig, beams: Beamformers,
             reflections: np.ndarray | None = None,
             rng: np.random.Generator | None = None,
             fading: str = "phase",
             c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """True scalar channel h_C[n, m] seen through the aligned beams."""
    nc, ms = wave.n_subcarriers, wave.n_symbols
    lam = wave.wavelength(c)
    n = np.arange(nc)
    m = np.arange(ms)

    p0 = scenario.mue_path
    tau0 = p0.d1 / c
    fd0 = p0.v1 / lam
    h = (comm_los_amplitude(scenario, wave, c) * beams.tx_gains[0]
         * np.outer(np.exp(-2j * np.pi * n * wave.subcarrier_spacing * tau0),
                    np.exp(2j * np.pi * m * wave.symbol_duration * fd0)))

    if scenario.n_paths > 1:
        if reflections is None:
            if rng is None:
                raise ValueError("need reflections or an rng for NLoS paths")
            reflections = draw_reflections(scenario, rng, fading)
        for l in range(1, scenario.n_paths):
            p = scenario.paths[l]
            tau = (p.d1 + p.d2) / c
            fd = (p.v1 + p.v2) / lam
            b = comm_nlos_amplitude(scenario, wave, l, c) * reflections[l]
            h += (b * beams.tx_gains[l]
                  * np.outer(np.exp(-2j * np.pi * n * wave.subcarrier_spacing * tau),
                             np.exp(2j * np.pi * m * wave.symbol_duration * fd)))
    return h


def synthesize_comm(scenario: Scenario, wave: WaveformConfig,
                    beams: Beamformers, noise: NoiseConfig,
                    rng: np.random.Generator,
                    symbols: np.ndarray | None = None,
                    labels: np.ndarray | None = None,
                    reflections: np.ndarray | None = None,
                    fading: str = "phase",
                    c: float = SPEED_OF_LIGHT,
                    noiseless: bool = False) -> CommRealization:
    """Received communication samples y_C at the MUE."""
    nc, ms = wave.n_subcarriers, wave.n_symbols
    if symbols is None:
        symbols, labels = qam.random_symbols((nc, ms), wave.qam_order, rng)
    elif labels is None:
        labels = np.zeros_like(symbols, dtype=int)
    h = comm_csi(scenario, wave, beams, reflections, rng, fading, c)
    if noiseless:
        nse = np.zeros((nc, ms), dtype=complex)
    else:
        std = np.sqrt(noise.total_comm_var / 2.0)
        nse = std * (rng.normal(size=(nc, ms)) + 1j * rng.normal(size=(nc, ms)))
    samples = np.sqrt(wave.tx_power) * symbols * h + nse
    return CommRealization(samples=samples, csi=h, symbols=symbols,
                           labels=labels)
