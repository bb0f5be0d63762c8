import tracemalloc

import numpy as np
import pytest

from cryf.conformal import ConformalState
from cryf.geometry import GridSpec, build_nilmanifold
from cryf.presets import seven_point_smooth


@pytest.fixture(scope="session")
def geom4():
    return build_nilmanifold(GridSpec(4, 4, 4))


@pytest.fixture(scope="session")
def geom448():
    # twisted grid: N_z / N_y = 2
    return build_nilmanifold(GridSpec(4, 4, 8))


@pytest.fixture(scope="session")
def geom548():
    # non-cubic, prime N_x
    return build_nilmanifold(GridSpec(5, 4, 8))


@pytest.fixture(scope="session")
def geom8():
    return build_nilmanifold(GridSpec(8, 8, 8))


@pytest.fixture(scope="session")
def geom16():
    return build_nilmanifold(GridSpec(16, 16, 16))


def random_field(geom, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    return amplitude * rng.standard_normal(geom.shape)


def random_state(geom, seed, amplitude=0.5, smooth=0):
    rng = np.random.default_rng(seed)
    u = 1.0 + amplitude * (rng.random(geom.shape) - 0.5)
    if smooth:
        u = seven_point_smooth(geom, u, smooth)
    return ConformalState(geom, u, 0.0)


def single_mode_state(geom, epsilon=0.1, coord="y"):
    x, y, _ = geom.coords()
    s = y if coord == "y" else x
    u = 1.0 + epsilon * np.sin(2.0 * np.pi * s) + np.zeros(geom.shape)
    return ConformalState(geom, u, 0.0)


def record_calls(monkeypatch, owner, name, record=lambda *args, **kwargs: None):
    """Patch owner.name to append record(*args, **kwargs) to the list returned
    here, then make the original call; by default the list only counts calls."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def traced_memory(call):
    """(kept, peak): the bytes tracemalloc sees still allocated after call()
    returns and its result is dropped, and the most it saw during the call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
