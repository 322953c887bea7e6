"""OFDM waveform numerology, beamforming, power calibration, and synthesis
of echo and communication snapshots at calibrated SINR."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qam
from .constants import SPEED_OF_LIGHT
from .scenario import Scenario
from .steering import Angle2D, ArrayConfig, spatial_steering


def _check(*rules) -> None:
    """Raise ValueError with the message of the first failing (ok, message)
    rule; each message starts with its field's name."""
    for ok, message in rules:
        if not ok:
            raise ValueError(message)


def db_to_power(db: float) -> float:
    """Linear power 10^(db/10) of a dB value; inf where it overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM numerology, transmit power and the speed of light c."""

    n_subcarriers: int = 256
    n_symbols: int = 64
    subcarrier_spacing: float = 480e3
    guard_interval: float = 0.0
    carrier_freq: float = 63e9
    qam_order: int = 4
    tx_power: float = 1.0
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        # the half-aperture smoothing window of the range and Doppler
        # spectra needs two elements
        _check((self.n_subcarriers >= 4, "n_subcarriers: must be >= 4"),
               (self.n_symbols >= 4, "n_symbols: must be >= 4"),
               (self.subcarrier_spacing > 0, "subcarrier_spacing: must be > 0"),
               (self.guard_interval >= 0, "guard_interval: must be >= 0"),
               (self.carrier_freq > 0, "carrier_freq: must be > 0"),
               (self.qam_order in qam.ORDERS, "qam_order: must be one of "
                + ", ".join(map(str, qam.ORDERS))),
               (self.c > 0, "c: must be > 0"))
        # the bounds square the symbol duration and the bandwidth
        def finite_squares(*xs):
            return all(math.isfinite(x * x) for x in xs)
        _check((finite_squares(1.0 / self.subcarrier_spacing, self.bandwidth),
                "subcarrier_spacing: must give a symbol duration and a "
                "bandwidth with finite squares"),
               (finite_squares(self.symbol_duration), "guard_interval: must "
                "give a symbol duration with a finite square"))

    @property
    def symbol_duration(self) -> float:
        return 1.0 / self.subcarrier_spacing + self.guard_interval

    @property
    def bandwidth(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing

    def wavelength(self) -> float:
        return self.c / self.carrier_freq

    def with_power(self, p: float) -> "WaveformConfig":
        return replace(self, tx_power=p)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise floor and interference levels."""

    noise_var: float = 4.9177e-12
    inr_sense_db: float = 3.0
    inr_comm_db: float = 3.0

    def __post_init__(self):
        _check((self.noise_var > 0, "noise_var: must be > 0"),
               (np.finfo(float).tiny <= self.noise_var < math.inf,
                "noise_var: must be a normal float"),
               *((math.isfinite(db_to_power(getattr(self, key))),
                  f"{key}: must be a dB value with a finite linear power")
                 for key in ("inr_sense_db", "inr_comm_db")))

    @property
    def total_sense_var(self) -> float:
        return self.noise_var + self.noise_var * db_to_power(self.inr_sense_db)

    @property
    def total_comm_var(self) -> float:
        return self.noise_var + self.noise_var * db_to_power(self.inr_comm_db)

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


def echo_amplitude(scenario: Scenario, wave: WaveformConfig, l: int) -> float:
    """Deterministic part of b_S,l: two-way spreading loss, unit reflection."""
    lam = wave.wavelength()
    d = scenario.paths[l].d1
    return float(np.sqrt(lam ** 2 / ((4.0 * np.pi) ** 3 * d ** 4)))


def comm_los_amplitude(scenario: Scenario, wave: WaveformConfig) -> float:
    lam = wave.wavelength()
    return float(lam / (4.0 * np.pi * scenario.mue_path.d1))


def comm_nlos_amplitude(scenario: Scenario, wave: WaveformConfig,
                        l: int) -> float:
    lam = wave.wavelength()
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


def _calibrated_power(gain2: float, var: float, target_sinr_db: float,
                      path: str) -> float:
    """Transmit power that puts a path of power gain gain2 at the target
    SINR over noise-plus-interference power var (in Python floats, which
    overflow to inf without a warning)."""
    _check((gain2 > 0, f"zero {path} gain; cannot calibrate power"))
    power = db_to_power(target_sinr_db) * var / float(gain2)
    _check((math.isfinite(power), f"{path} transmit power for "
            f"{target_sinr_db} dB is not a finite float"))
    return power


def calibrate_power_sense(scenario: Scenario, wave: WaveformConfig,
                          beams: Beamformers, noise: NoiseConfig,
                          target_sinr_db: float) -> float:
    """Transmit power that puts the direct echo at the target S-SINR.

    Inverts sinr = P * |b_S,0 * chi_0|^2 / (P_IS + sigma_N^2) with the
    reflection factor at its RMS magnitude.
    """
    gain = echo_amplitude(scenario, wave, 0) * abs(beams.tx_gains[0])
    return _calibrated_power(gain ** 2 * scenario.mue_path.reflect_var_sense,
                             noise.total_sense_var, target_sinr_db,
                             "echo path")


def calibrate_power_comm(scenario: Scenario, wave: WaveformConfig,
                         beams: Beamformers, noise: NoiseConfig,
                         target_sinr_db: float) -> float:
    """Transmit power that puts the LoS link at the target C-SINR."""
    gain = comm_los_amplitude(scenario, wave) * abs(beams.tx_gains[0])
    return _calibrated_power(gain ** 2, noise.total_comm_var, target_sinr_db,
                             "LoS")


@dataclass(frozen=True)
class EchoRealization:
    """One noiseless echo frame, held as per-path factors.

    Y = sum_l steering[:, l] (x) factors[l].  The echo holds only the
    (PQ, L) steering and the (L, N_c, M_s) factors, never a tensor.
    `beamform` reads one noiseless beam's output from the factors; only
    2-D AoA estimation reads the whole (PQ, N_c, M_s) tensor, which
    `snapshots` builds on every read and `_noisy_snapshots` builds a block
    of rows at a time, with the same arithmetic per row.  The noise is
    added by the fills `_noisy_beam` and `_noisy_snapshots`, both drawing
    it by `_noise_blocks`, so neither holds a (PQ, N_c*M_s) noise plane.
    """

    steering: np.ndarray           # (PQ, L) echo steering matrix
    factors: np.ndarray            # (L, N_c, M_s) sqrt(P) b_l chi_l d * ramp_l
    symbols: np.ndarray            # (N_c, M_s)

    def _build_rows(self, out: np.ndarray, first: int) -> np.ndarray:
        """Rows first .. first + len(out) - 1 of the noiseless tensor,
        written into `out` one antenna row at a time: the paths summed in
        order through one (N_c, M_s) term buffer."""
        f = self.factors
        term = np.empty_like(f[0])
        for row, a in zip(out, self.steering[first:]):
            np.multiply(a[0], f[0], out=row)
            for l in range(1, len(f)):
                row += np.multiply(a[l], f[l], out=term)
        return out

    @property
    def snapshots(self) -> np.ndarray:
        """(PQ, N_c, M_s) noiseless echo tensor."""
        f = self.factors
        return self._build_rows(
            np.empty((len(self.steering),) + f.shape[1:], dtype=f.dtype), 0)

    def beamform(self, w: np.ndarray) -> np.ndarray:
        """Noiseless beam output w^H Y = (w^H A) X, shape (N_c, M_s)."""
        y = (w.conj() @ self.steering) @ self.factors.reshape(
            len(self.factors), -1)
        return y.reshape(self.symbols.shape)


def _ramp(wave: WaveformConfig, tau: float, fd: float) -> np.ndarray:
    """Phase ramp e^{-j2 pi n df tau} e^{+j2 pi m T fd}, (N_c, M_s)."""
    n = np.arange(wave.n_subcarriers)
    m = np.arange(wave.n_symbols)
    return np.outer(np.exp(-2j * np.pi * n * wave.subcarrier_spacing * tau),
                    np.exp(2j * np.pi * m * wave.symbol_duration * fd))


def path_phases(scenario: Scenario, wave: WaveformConfig, l: int) -> np.ndarray:
    """Echo phase ramp of path l: round-trip delay and Doppler."""
    p = scenario.paths[l]
    return _ramp(wave, 2.0 * p.d1 / wave.c, 2.0 * p.v1 / wave.wavelength())


def synthesize_echo(scenario: Scenario, wave: WaveformConfig,
                    tx_array: ArrayConfig, beams: Beamformers,
                    rng: np.random.Generator,
                    reflections: np.ndarray | None = None,
                    fading: str = "phase") -> EchoRealization:
    """Noiseless echo Y_S at the BS across all subcarriers/symbols, held
    as per-path factors (see EchoRealization).

    The generator draws the random symbols, then the reflection factors
    unless they are given, and nothing else: a fill draws the noise from
    where the generator is left."""
    nc, ms = wave.n_subcarriers, wave.n_symbols
    symbols, _ = qam.random_symbols((nc, ms), wave.qam_order, rng)
    if reflections is None:
        reflections = draw_reflections(scenario, rng, fading)

    steering = np.column_stack([spatial_steering(tx_array, p.aoa)
                                for p in scenario.paths])
    factors = np.empty((scenario.n_paths, nc, ms), dtype=complex)
    amp = np.sqrt(wave.tx_power)
    for l in range(scenario.n_paths):
        b = echo_amplitude(scenario, wave, l) * reflections[l]
        gain = b * beams.tx_gains[l]
        np.multiply(amp * gain * symbols, path_phases(scenario, wave, l),
                    out=factors[l])
    return EchoRealization(steering=steering, factors=factors,
                           symbols=symbols)


def _complex_normal(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """CN(0, var) draws of a (rows, cols) shape: the real plane, then the
    imaginary plane, each drawn by `_noise_blocks` into the output, so the
    draw holds only its output and one block."""
    out = np.empty(shape, dtype=complex)
    for imag, rows, block in _noise_blocks(rng, np.sqrt(var / 2.0), *shape):
        (out.imag if imag else out.real)[rows] = block
    return out


# Rows of noise a draw fills at a time, into its own block: 1 MiB for the
# echo at the shipped N_c*M_s = 16 384.
NOISE_BLOCK_ROWS = 8


def _fill_echo_noise(rng: np.random.Generator, out: np.ndarray,
                     std: float) -> np.ndarray:
    """Draw the next `out.size` normals of rng into `out`, scaled by std:
    one block of `_noise_blocks`.  It calls numpy only, so the harness can
    run it on a worker thread; it does for the echo fills, while the
    communication and theory draws run it on the calling thread."""
    rng.standard_normal(out=out)
    out *= std
    return out


def _noise_blocks(rng: np.random.Generator, std: float, rows: int,
                  cols: int):
    """The noise std * (normal + 1j * normal) over (rows, cols), of the
    echo fills and of `_complex_normal` alike, drawn NOISE_BLOCK_ROWS rows
    at a time into one block it allocates: the real plane, then the
    imaginary plane, so the values and the generator's end state are
    those of one draw per plane.  Yields (imag, span, block): 0 for a
    real block and 1 for an imaginary one, its slice of rows, and its
    values, which the next block overwrites."""
    block = np.empty((min(NOISE_BLOCK_ROWS, rows), cols))
    for imag in (0, 1):
        for i in range(0, rows, NOISE_BLOCK_ROWS):
            span = slice(i, min(i + NOISE_BLOCK_ROWS, rows))
            yield imag, span, _fill_echo_noise(
                rng, block[:span.stop - i], std)


def _noisy_beam(echo: EchoRealization, w: np.ndarray,
                rng: np.random.Generator, std: float) -> np.ndarray:
    """echo.beamform(w) of the noiseless `echo` plus w^H N, its noise
    drawn from rng.  w^H N comes from real (2 x rows) products, one per
    noise block, summed per plane, so no (PQ, N_c*M_s) array is formed."""
    y = echo.beamform(w).reshape(-1)
    w2 = np.stack([w.real, w.imag])
    sums = np.zeros((2, 2, y.size))     # w2 @ plane, per plane
    for imag, rows, block in _noise_blocks(rng, std, len(w), y.size):
        acc = sums[imag]
        acc += w2[:, rows] @ block
    nr, ni = sums
    # (wr - j wi)(nr + j ni) = wr nr + wi ni + j (wr ni - wi nr)
    y.real += nr[0] + ni[1]
    y.imag += ni[0] - nr[1]
    return y.reshape(echo.symbols.shape)


def _noisy_snapshots(echo: EchoRealization, rng: np.random.Generator,
                     std: float) -> np.ndarray:
    """echo.snapshots of the noiseless `echo` with its noise drawn from
    rng by `_noise_blocks`.

    Each block of tensor rows is built and takes its real noise while it
    is still in cache, then a second pass adds the imaginary noise.  The
    noise is drawn in the order of one real plane and one imaginary plane
    and added to the rows built as `snapshots` builds them, so the tensor
    is the same bit for bit; only the tensor and one block of noise are
    held."""
    f = echo.factors
    y = np.empty((len(echo.steering),) + f.shape[1:], dtype=f.dtype)
    flat = y.reshape(len(y), -1)
    for imag, rows, block in _noise_blocks(rng, std, *flat.shape):
        if not imag:
            echo._build_rows(y[rows], rows.start)
        part = (flat.imag if imag else flat.real)[rows]
        part += block
    return y


@dataclass(frozen=True)
class CommRealization:
    """Post-beamforming scalar communication samples and true CSI."""

    samples: np.ndarray            # (N_c, M_s) received y_C
    csi: np.ndarray                # (N_c, M_s) true h_C
    symbols: np.ndarray
    labels: np.ndarray


def comm_csi(scenario: Scenario, wave: WaveformConfig, beams: Beamformers,
             reflections: np.ndarray | None = None) -> np.ndarray:
    """True scalar channel h_C[n, m] seen through the aligned beams."""
    c, lam = wave.c, wave.wavelength()
    p0 = scenario.mue_path
    h = (comm_los_amplitude(scenario, wave) * beams.tx_gains[0]
         * _ramp(wave, p0.d1 / c, p0.v1 / lam))
    if scenario.n_paths > 1 and reflections is None:
        raise ValueError("NLoS paths need the frame's reflection factors")
    for l in range(1, scenario.n_paths):
        p = scenario.paths[l]
        b = comm_nlos_amplitude(scenario, wave, l) * reflections[l]
        h += (b * beams.tx_gains[l]
              * _ramp(wave, (p.d1 + p.d2) / c, (p.v1 + p.v2) / lam))
    return h


def synthesize_comm(scenario: Scenario, wave: WaveformConfig,
                    beams: Beamformers, noise: NoiseConfig,
                    rng: np.random.Generator,
                    symbols: np.ndarray | None = None,
                    reflections: np.ndarray | None = None) -> CommRealization:
    """Received communication samples y_C at the MUE.  Given symbols (a
    preamble) carry zero labels; otherwise random symbols are drawn."""
    nc, ms = wave.n_subcarriers, wave.n_symbols
    if symbols is None:
        symbols, labels = qam.random_symbols((nc, ms), wave.qam_order, rng)
    else:
        labels = np.zeros_like(symbols, dtype=int)
    h = comm_csi(scenario, wave, beams, reflections)
    nse = _complex_normal(rng, (nc, ms), noise.total_comm_var)
    samples = np.sqrt(wave.tx_power) * symbols * h + nse
    return CommRealization(samples=samples, csi=h, symbols=symbols,
                           labels=labels)
