"""Physical constants shared across the package.

A run's speed of light is `WaveformConfig.c`, which `bind` sets from the
config key `legacy_c`; only the scalar range-steering functions, which
take no waveform, take `c` as an argument."""

SPEED_OF_LIGHT = 299792458.0
"""Speed of light in vacuum, m/s (exact SI value)."""

LEGACY_SPEED_OF_LIGHT = 3.0e8
"""Rounded speed of light used by some published numerology tables.

Selecting this value reproduces resolution figures quoted with c = 3e8
(e.g. a 17.8571 m/s velocity bin) bit-for-bit.
"""


def speed_of_light(legacy: bool = False) -> float:
    """Return the speed of light, optionally the rounded legacy value."""
    return LEGACY_SPEED_OF_LIGHT if legacy else SPEED_OF_LIGHT
