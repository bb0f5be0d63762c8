"""Initial-data presets for flow runs and identity checks."""

from __future__ import annotations

import numpy as np

from .conformal import ConformalState
from .errors import ConfigurationError
from .geometry import BaseGeometry, _shift

PRESETS = ("constant", "single_mode_y", "single_mode_x", "random_smooth")


def seven_point_smooth(geom: BaseGeometry, f: np.ndarray, passes: int) -> np.ndarray:
    """Average each point with its six lattice neighbors (twisted wraps included)."""
    for _ in range(passes):
        acc = f.copy()
        for axis in range(3):
            acc += _shift(geom, f, axis, 1)
            acc += _shift(geom, f, axis, -1)
        f = acc / 7.0
    return f


def make_initial_state(geom: BaseGeometry, preset: str, *, c: float = 1.0,
                       epsilon: float = 0.1, seed: int = 0, amplitude: float = 0.2,
                       smoothing_passes: int = 2) -> ConformalState:
    """Build the conformal factor for a named preset.

    random_smooth draws seeded uniform noise in [1-amplitude, 1+amplitude]
    (numpy PCG64 via default_rng, so runs are reproducible bit for bit) and
    applies the 7-point average `smoothing_passes` times; an average of values
    at least 1-amplitude is at least 1-amplitude, so the field stays positive.
    """
    if preset not in PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}; choose from {PRESETS}")
    if preset == "constant":
        if not 0.0 < c < np.inf:
            raise ConfigurationError(f"constant preset needs finite c > 0, got {c}")
        u = np.full(geom.shape, float(c))
    elif preset in ("single_mode_y", "single_mode_x"):
        if not (c - abs(epsilon) > 0.0 and c + abs(epsilon) < np.inf):
            raise ConfigurationError(
                f"mode preset needs c - |epsilon| > 0 and c + |epsilon| finite, "
                f"got c={c}, epsilon={epsilon}"
            )
        x, y, _ = geom.coords()
        coord = y if preset == "single_mode_y" else x
        u = c + epsilon * np.sin(2.0 * np.pi * coord) + np.zeros(geom.shape)
    else:
        if not (0.0 < amplitude < 1.0):
            raise ConfigurationError(
                f"random_smooth needs amplitude in (0, 1), got {amplitude}"
            )
        if smoothing_passes < 0:
            raise ConfigurationError("smoothing_passes must be >= 0")
        if seed < 0:
            raise ConfigurationError(f"random_smooth needs seed >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        u = rng.uniform(1.0 - amplitude, 1.0 + amplitude, size=geom.shape)
        u = seven_point_smooth(geom, u, smoothing_passes)
    return ConformalState(geom, u, 0.0)
