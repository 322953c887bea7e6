"""Ground-truth scene generation: positions, angles, ranges, velocities.

The BS transmit/receive array sits at a fixed site, spun about the
vertical axis and downtilted.  All per-path angles are expressed in the
array's local frame, where the boresight normal is the local z axis, so
they can be fed straight into the spatial steering functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .steering import Angle2D

BS_POSITION = np.array([50.0, 4.75, 7.0])
MUE_HEIGHT = 2.0
MUE_VELOCITY = np.array([-11.11, 0.0, 0.0])
ARRAY_SPIN_DEG = -45.0
ARRAY_DOWNTILT_DEG = 20.0
SCATTER_SPHERE_RADIUS = 100.0

# scene admissibility bounds (rejection sampling); keep every path well
# inside the planar array's unambiguous front half-space and the beams
# separated so per-beam range/Doppler stages see one dominant target
MIN_SCATTER_DISTANCE = 30.0
MIN_ELEVATION_DEG = 5.0
MAX_ELEVATION_DEG = 85.0
MIN_ANGLE_SEPARATION_DEG = 20.0
MIN_VELOCITY_SEPARATION = 5.0
# scatterer closing speeds are drawn from [SCATTER_SPEED_MIN, SCATTER_SPEED_MAX)
SCATTER_SPEED_MIN = 20.0
SCATTER_SPEED_MAX = 60.0
# most scatterers the rejection sampler places reliably under the bounds
# above: over scene seeds 0-49 it gave up (10 000 draws) on 0 of 50 scenes
# at 5 scatterers, 4 at 6, 26 at 7 and 49 at 8
MAX_SCATTERERS = 5


def rotation_matrix() -> np.ndarray:
    """Local-to-global rotation of the BS array frame.

    The local z axis (boresight) starts pointing up; a y-rotation of
    90 deg plus ARRAY_DOWNTILT_DEG lays it toward the horizon and below,
    then the z-spin by ARRAY_SPIN_DEG swings it in azimuth.
    """
    ty = np.deg2rad(90.0 + ARRAY_DOWNTILT_DEG)
    tz = np.deg2rad(ARRAY_SPIN_DEG)
    ry = np.array([[np.cos(ty), 0.0, np.sin(ty)],
                   [0.0, 1.0, 0.0],
                   [-np.sin(ty), 0.0, np.cos(ty)]])
    rz = np.array([[np.cos(tz), -np.sin(tz), 0.0],
                   [np.sin(tz), np.cos(tz), 0.0],
                   [0.0, 0.0, 1.0]])
    return rz @ ry


def direction_to_angles(direction: np.ndarray, rot: np.ndarray) -> Angle2D:
    """Local-frame (azimuth, elevation) of a global unit direction."""
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    loc = rot.T @ u
    elevation = float(np.arccos(np.clip(loc[2], -1.0, 1.0)))
    azimuth = float(np.arctan2(loc[1], loc[0]))
    return Angle2D(azimuth=azimuth, elevation=elevation)


def angles_to_direction(angle: Angle2D, rot: np.ndarray) -> np.ndarray:
    """Global unit direction for local-frame (azimuth, elevation)."""
    se = np.sin(angle.elevation)
    loc = np.array([se * np.cos(angle.azimuth),
                    se * np.sin(angle.azimuth),
                    np.cos(angle.elevation)])
    return rot @ loc


@dataclass(frozen=True)
class PathParams:
    """Per-path truth. l=0 is the direct BS-MUE path; l>0 single-bounce."""

    index: int
    aoa: Angle2D               # BS-frame AoA; echo AoA equals AoD
    d1: float                  # BS to target, m
    v1: float                  # radial closing speed BS-target, m/s
    d2: float = 0.0            # target to MUE, m (0 for l=0)
    v2: float = 0.0            # radial closing speed target-MUE, m/s
    reflect_var_sense: float = 1.0
    position: np.ndarray | None = None


@dataclass(frozen=True)
class Scenario:
    paths: tuple[PathParams, ...]
    rotation: np.ndarray
    bs_position: np.ndarray
    mue_position: np.ndarray
    seed: int

    @property
    def mue_path(self) -> PathParams:
        return self.paths[0]

    @property
    def n_paths(self) -> int:
        return len(self.paths)


def _radial_speed(pos_a, vel_a, pos_b, vel_b) -> float:
    """Closing speed between two points (positive when approaching)."""
    u = np.asarray(pos_b, float) - np.asarray(pos_a, float)
    u = u / np.linalg.norm(u)
    return float(-(np.asarray(vel_b, float) - np.asarray(vel_a, float)) @ u)


def _angular_sep(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.degrees(np.arccos(np.clip(u @ v, -1.0, 1.0))))


def generate_scenario(seed: int, n_scatterers: int = 2,
                      reflect_var: float = 1.0,
                      mue_x: float | None = None) -> Scenario:
    """Draw a random scene: MUE on its road segment plus scatterers.

    Scatterers are drawn uniformly inside a sphere around the BS and
    re-drawn until they satisfy the admissibility bounds (front
    half-space, minimum distance, angular and Doppler separation).
    """
    if not 0 <= n_scatterers <= MAX_SCATTERERS:
        raise ValueError(
            f"n_scatterers={n_scatterers}: must be in [0, {MAX_SCATTERERS}], "
            "the most scatterers the admissibility bounds reliably admit")
    if not 0 < reflect_var < np.inf:
        raise ValueError(f"reflect_var={reflect_var}: must be finite and > 0")
    if mue_x is not None and not np.isfinite(mue_x):
        raise ValueError(f"mue_x={mue_x}: must be finite")
    rng = np.random.default_rng(seed)
    rot = rotation_matrix()

    x = float(rng.uniform(50.0, 155.0)) if mue_x is None else float(mue_x)
    mue = np.array([x, 0.0, MUE_HEIGHT])
    d0 = float(np.linalg.norm(mue - BS_POSITION))
    if d0 < 1.0:
        raise ValueError("MUE degenerate: within 1 m of BS")
    u0 = (mue - BS_POSITION) / d0
    aoa0 = direction_to_angles(u0, rot)
    v0 = _radial_speed(BS_POSITION, np.zeros(3), mue, MUE_VELOCITY)

    paths = [PathParams(index=0, aoa=aoa0, d1=d0, v1=v0,
                        reflect_var_sense=reflect_var,
                        position=mue)]

    directions = [u0]
    speeds = [v0]
    for l in range(1, n_scatterers + 1):
        for _ in range(10_000):
            # uniform in the sphere via radius ~ cbrt(U)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            radius = SCATTER_SPHERE_RADIUS * rng.uniform() ** (1.0 / 3.0)
            pos = BS_POSITION + radius * u
            d1 = float(np.linalg.norm(pos - BS_POSITION))
            if d1 < max(MIN_SCATTER_DISTANCE, 1.0):
                continue
            direction = (pos - BS_POSITION) / d1
            ang = direction_to_angles(direction, rot)
            el_deg = np.degrees(ang.elevation)
            if not (MIN_ELEVATION_DEG <= el_deg <= MAX_ELEVATION_DEG):
                continue
            if any(_angular_sep(direction, d) < MIN_ANGLE_SEPARATION_DEG
                   for d in directions):
                continue
            speed = float(rng.uniform(SCATTER_SPEED_MIN, SCATTER_SPEED_MAX))
            if any(abs(speed - s) < MIN_VELOCITY_SEPARATION for s in speeds):
                continue
            break
        else:
            raise ValueError(
                f"n_scatterers={n_scatterers}: could not place scatterer {l} "
                "satisfying the admissibility bounds in 10000 draws")
        # scatterer moves radially away from BS at `speed` magnitude toward
        # BS (closing); its velocity vector is -speed * direction
        vel = -speed * direction
        d2 = float(np.linalg.norm(mue - pos))
        v2 = _radial_speed(pos, vel, mue, MUE_VELOCITY)
        paths.append(PathParams(index=l, aoa=ang, d1=d1, v1=speed,
                                d2=d2, v2=v2,
                                reflect_var_sense=reflect_var,
                                position=pos))
        directions.append(direction)
        speeds.append(speed)

    return Scenario(paths=tuple(paths), rotation=rot,
                    bs_position=BS_POSITION.copy(), mue_position=mue,
                    seed=seed)
