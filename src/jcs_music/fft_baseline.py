"""On-grid 2D-FFT range-Doppler periodogram baseline.

Works on the same per-beam symbol-erased channel matrix as the subspace
estimators: an orthonormal IDFT across subcarriers resolves range, an
orthonormal DFT across symbols resolves Doppler.  Estimates are always
read off the unpadded bin grid; zero padding only refines plotted
spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import WaveformConfig
from .constants import SPEED_OF_LIGHT


@dataclass(frozen=True)
class PeriodogramResult:
    magnitude: np.ndarray          # (range bins, doppler bins)
    peak_range_bin: int
    peak_doppler_bin: int
    range_rt: float                # on-grid round-trip range, m
    doppler: float                 # on-grid Doppler, Hz
    distance: float                # range_rt / 2
    range_bin_width: float         # round-trip metres per unpadded bin
    doppler_bin_width: float       # Hz per unpadded bin


def range_bin_width_rt(wave: WaveformConfig, c: float = SPEED_OF_LIGHT) -> float:
    return c / (wave.n_subcarriers * wave.subcarrier_spacing)


def doppler_bin_width(wave: WaveformConfig) -> float:
    return 1.0 / (wave.n_symbols * wave.symbol_duration)


def periodogram_map(h_bar: np.ndarray, pad: int = 1,
                    window: str | None = None) -> np.ndarray:
    """Magnitude of the 2-D transform, shape (N_c*pad, M_s*pad)."""
    x = np.asarray(h_bar, dtype=complex)
    if window == "hann":
        x = x * np.hanning(x.shape[0])[:, None]
        x = x * np.hanning(x.shape[1])[None, :]
    elif window is not None:
        raise ValueError(f"unknown window {window!r}")
    nc, ms = h_bar.shape
    g = np.fft.ifft(x, n=nc * pad, axis=0, norm="ortho")
    g = np.fft.fft(g, n=ms * pad, axis=1, norm="ortho")
    return np.abs(g)


def fft_range_doppler(h_bar: np.ndarray, wave: WaveformConfig,
                      pad: int = 1, window: str | None = None,
                      c: float = SPEED_OF_LIGHT) -> PeriodogramResult:
    """Peak-bin range/Doppler estimate plus the (optionally padded) map."""
    mag = periodogram_map(h_bar, pad=pad, window=window)
    est_mag = mag if pad == 1 else periodogram_map(h_bar, pad=1, window=window)
    kr, kd = np.unravel_index(int(np.argmax(est_mag)), est_mag.shape)
    dr = range_bin_width_rt(wave, c)
    df = doppler_bin_width(wave)
    r_rt = kr * dr
    fd = kd * df
    return PeriodogramResult(magnitude=mag,
                             peak_range_bin=int(kr), peak_doppler_bin=int(kd),
                             range_rt=float(r_rt), doppler=float(fd),
                             distance=float(r_rt / 2.0),
                             range_bin_width=dr, doppler_bin_width=df)


def pslr_db(profile: np.ndarray) -> float:
    """Peak-to-sidelobe ratio of a 1-D power-scale spectrum in dB.

    The profile must be on a power scale (pass |map|^2 for magnitude
    maps).  The main lobe extends from the global peak outward to the
    first local minimum on each side; the strongest value outside it is
    the sidelobe.  The grid is treated as circular (both the DFT bins and
    the steering manifolds are periodic), so a main lobe near an edge
    wraps instead of leaking into the sidelobe region.
    """
    p = np.asarray(profile, dtype=float)
    n = len(p)
    if n < 3:
        raise ValueError("profile too short for PSLR")
    k = int(np.argmax(p))
    in_main = np.zeros(n, dtype=bool)
    in_main[k] = True
    i = k
    for _ in range(n - 1):
        j = (i - 1) % n
        if p[j] >= p[i] or in_main[j]:
            break
        in_main[j] = True
        i = j
    i = k
    for _ in range(n - 1):
        j = (i + 1) % n
        if p[j] >= p[i] or in_main[j]:
            break
        in_main[j] = True
        i = j
    side = p[~in_main]
    if len(side) == 0:
        return float("inf")
    return float(10.0 * np.log10(p[k] / max(side.max(), 1e-300)))
