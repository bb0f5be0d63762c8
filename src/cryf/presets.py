"""Initial-data presets for flow runs and identity checks."""

from __future__ import annotations

import numpy as np

from .config import InitialDataConfig
from .conformal import ConformalState
from .errors import ConfigurationError
from .geometry import BaseGeometry, _shift


def seven_point_smooth(geom: BaseGeometry, f: np.ndarray, passes: int) -> np.ndarray:
    """Average each point with its six lattice neighbors (twisted wraps included)."""
    for _ in range(passes):
        acc = f.copy()
        for axis in range(3):
            acc += _shift(geom, f, axis, 1)
            acc += _shift(geom, f, axis, -1)
        f = acc / 7.0
    return f


def make_initial_state(geom: BaseGeometry, preset: str, **settings) -> ConformalState:
    """Build the conformal factor of `InitialDataConfig(preset, **settings)`.

    A setting the class rejects raises ConfigurationError with the rule's message.
    random_smooth draws seeded uniform noise in [1-amplitude, 1+amplitude]
    (numpy PCG64 via default_rng, so runs are reproducible bit for bit) and
    applies the 7-point average `smoothing_passes` times; an average of values
    at least 1-amplitude is at least 1-amplitude, so the field stays positive.
    """
    try:
        ini = InitialDataConfig(preset, **settings)
    except (LookupError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from None
    if preset == "constant":
        u = np.full(geom.shape, float(ini.c))
    elif preset in ("single_mode_y", "single_mode_x"):
        x, y, _ = geom.coords()
        coord = y if preset == "single_mode_y" else x
        u = ini.c + ini.epsilon * np.sin(2.0 * np.pi * coord) + np.zeros(geom.shape)
    else:
        rng = np.random.default_rng(ini.seed)
        u = rng.uniform(1.0 - ini.amplitude, 1.0 + ini.amplitude, size=geom.shape)
        u = seven_point_smooth(geom, u, ini.smoothing_passes)
    return ConformalState(geom, u, 0.0)
