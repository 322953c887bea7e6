"""JSON run configuration: schema, defaults, validation, object binding."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .channel import NoiseConfig, WaveformConfig, db_to_power
from .constants import speed_of_light
from .scenario import MAX_SCATTERERS
from .steering import ArrayConfig

SCHEMA_VERSION = 1

DEFAULTS: dict[str, Any] = {
    "schema": SCHEMA_VERSION,
    "array": {"rows": 8, "cols": 8},
    # the shipped numerology and noise are the objects' field defaults
    "waveform": {f.name: f.default for f in fields(WaveformConfig)
                 if f.name not in ("tx_power", "c")},
    "noise": {f.name: f.default for f in fields(NoiseConfig)},
    "scenario": {
        "n_scatterers": 2,
        "reflect_var": 1.0,
        "fading": "phase",
        "mue_x": None,
    },
    "sweep": {
        "sinr_grid_db": [-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0],
        "trials": 200,
    },
    "legacy_c": False,
}


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending key path."""


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{here}: expected an object")
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = val
    return out


def _is_number(val: Any, integer: bool = False) -> bool:
    """A finite real that is not a bool; with ``integer``, also integral."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        return False
    if isinstance(val, numbers.Integral):
        return True
    return math.isfinite(val) and (not integer or float(val).is_integer())


def _check_types(cfg: dict, base: dict = DEFAULTS, path: str = "") -> None:
    """Every value must have the type of its default: integer defaults take
    integral numbers, float defaults finite numbers, a None default a
    number or null, a list default a list of numbers."""
    for key, default in base.items():
        here = f"{path}.{key}" if path else key
        val = cfg[key]
        if isinstance(default, dict):
            _check_types(val, default, here)
            continue
        if isinstance(default, bool):
            ok, want = isinstance(val, bool), "true or false"
        elif isinstance(default, str):
            ok, want = isinstance(val, str), "a string"
        elif isinstance(default, list):
            ok = isinstance(val, list) and all(_is_number(v) for v in val)
            want = "a list of finite numbers"
        elif isinstance(default, int):
            ok, want = _is_number(val, integer=True), "an integer"
        else:
            ok = (val is None and default is None) or _is_number(val)
            want = "a finite number" + (" or null" if default is None else "")
        if not ok:
            raise ConfigError(f"{here}: expected {want}, got {val!r}")


def _validate(cfg: dict) -> None:
    def require(cond, msg):
        if not cond:
            raise ConfigError(msg)

    _check_types(cfg)
    require(cfg["schema"] == SCHEMA_VERSION,
            f"schema: expected version {SCHEMA_VERSION}")
    _objects(cfg)
    # one row or one column steers along one axis only, so its 2-D AoA is
    # ambiguous; the steering functions still take such arrays
    require(min(cfg["array"]["rows"], cfg["array"]["cols"]) >= 2,
            "array.rows/cols: must be >= 2 each, for a 2-D AoA")
    sc = cfg["scenario"]
    require(0 <= int(sc["n_scatterers"]) <= MAX_SCATTERERS,
            f"scenario.n_scatterers: must be in [0, {MAX_SCATTERERS}], "
            f"got {sc['n_scatterers']}")
    require(sc["reflect_var"] > 0, "scenario.reflect_var: must be > 0")
    require(sc["fading"] in ("phase", "rayleigh"),
            "scenario.fading: must be 'phase' or 'rayleigh'")
    sw = cfg["sweep"]
    require(len(sw["sinr_grid_db"]) >= 1, "sweep.sinr_grid_db: must be nonempty")
    require(all(math.isfinite(db_to_power(v)) for v in sw["sinr_grid_db"]),
            "sweep.sinr_grid_db: must be dB values with finite linear powers")
    require(int(sw["trials"]) >= 1, "sweep.trials: must be >= 1")


def load_config(path: str | Path | None = None,
                overrides: dict | None = None) -> dict:
    """Defaults, optionally overlaid with a JSON file and a dict."""
    cfg = DEFAULTS
    if path is not None:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    _validate(cfg)
    return cfg


@dataclass(frozen=True)
class RunContext:
    """Validated config bound to typed objects."""

    config: dict
    array: ArrayConfig
    wave: WaveformConfig
    noise: NoiseConfig


def _objects(cfg: dict):
    """(ArrayConfig, WaveformConfig, NoiseConfig) of a config, each value
    cast to the type of its default.  The objects check their own fields;
    a failed check is raised as a ConfigError under its section's key."""
    def build(section: str, cls, **extra):
        values = {k: type(DEFAULTS[section][k])(v)
                  for k, v in cfg[section].items()}
        try:
            return cls(**values, **extra)
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from None

    wave = build("waveform", WaveformConfig,
                 c=speed_of_light(cfg["legacy_c"]))
    lam = wave.wavelength()
    array = build("array", ArrayConfig, spacing=lam / 2.0, wavelength=lam)
    return array, wave, build("noise", NoiseConfig)


def bind(cfg: dict) -> RunContext:
    array, wave, noise = _objects(cfg)
    return RunContext(config=cfg, array=array, wave=wave, noise=noise)
