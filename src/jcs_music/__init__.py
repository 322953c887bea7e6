"""Joint communication and sensing over OFDM: subspace (MUSIC) estimators
with Newton refinement, an on-grid FFT baseline, analytic error predictions
and bounds, Kalman CSI enhancement, and a seeded Monte Carlo harness."""

from .channel import (Beamformers, CommRealization, EchoRealization,
                      NoiseConfig, WaveformConfig, build_beamformers,
                      calibrate_power_comm, calibrate_power_sense,
                      sense_rx_beamformer, synthesize_comm, synthesize_echo)
from .config import RunContext, bind, load_config
from .constants import LEGACY_SPEED_OF_LIGHT, SPEED_OF_LIGHT
from .csi import equalize_and_demodulate, estimate_sigma_p, kalman_enhance, ls_csi
from .fft_baseline import fft_range_doppler, periodogram_map, pslr_db
from .harness import (ResultRow, ResultTable, resolution_constants,
                      run_sweep_ber, run_sweep_mse, spectrum_snapshot,
                      validate_theory)
from .music import music_aoa, music_doppler, music_range
from .scenario import Scenario, generate_scenario
from .steering import Angle2D, ArrayConfig, spatial_steering
from .subspace import covariance, decompose, detect_source_count
from .theory import CrbReport, TheoryReport, crb, perturbation_report

__version__ = "0.1.0"

__all__ = [
    "Angle2D", "ArrayConfig", "Beamformers", "CommRealization", "CrbReport",
    "EchoRealization", "LEGACY_SPEED_OF_LIGHT", "NoiseConfig", "ResultRow",
    "ResultTable", "RunContext", "SPEED_OF_LIGHT", "Scenario", "TheoryReport",
    "WaveformConfig", "bind", "build_beamformers",
    "calibrate_power_comm", "calibrate_power_sense", "covariance", "crb",
    "decompose", "detect_source_count", "equalize_and_demodulate",
    "estimate_sigma_p", "fft_range_doppler", "generate_scenario",
    "kalman_enhance", "load_config", "ls_csi", "music_aoa", "music_doppler",
    "music_range", "periodogram_map", "perturbation_report", "pslr_db",
    "resolution_constants", "run_sweep_ber", "run_sweep_mse",
    "sense_rx_beamformer", "spatial_steering", "spectrum_snapshot",
    "synthesize_comm", "synthesize_echo", "validate_theory",
]
