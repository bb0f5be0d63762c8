"""Conformal contact forms u^(2/n) * theta and their curvature and volume data.

A state holds the positive conformal factor u at one flow time.  The
Webster scalar curvature comes from the conformal transformation law

    -(2 + 2/n) Lap(u) + R_base u = R u^(1 + 2/n)

The conformal sub-Laplacian is kept in divergence form with weight u^2,

    Lap_u f = u^(-(2n+2)/n) * div(u^2 grad f),

never by expanding derivatives of u: that choice makes integration by parts
against the conformal volume element u^((2n+2)/n) exact on the grid (zero
mean and self-adjointness hold to rounding), which is what the downstream
time-derivative identity checks rest on.

The nilmanifold is 3-dimensional, so its CR dimension is n = 1, and the code
evaluates these laws there: on the flat background R = -4 Lap(u) / u^3, the
volume element is u^4 and Lap_u f = u^(-4) div(u^2 grad f).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .geometry import (
    BaseGeometry,
    _check_field,
    pullback_z_shift,
    sub_laplacian_base,
    weighted_div_form,
)

DEFAULT_U_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class ConformalState:
    """Conformal factor u > 0 on a geometry at flow time t."""

    geom: BaseGeometry
    u: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        u = _check_field(self.geom, self.u, "u")
        # a nan propagates into both extremes, an infinity into one of them
        lo, hi = u.min(), u.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("u contains non-finite values")
        if lo <= 0.0:
            raise ValueError(f"u must be positive everywhere (min={lo})")
        object.__setattr__(self, "u", u)


def _check_above_floor(u: np.ndarray, u_floor: float) -> None:
    if u.min() <= u_floor:
        raise PositivityError(f"conformal factor at/below floor: min u = {u.min()} <= {u_floor}")


def _webster_raw(geom: BaseGeometry, u: np.ndarray, u_floor: float) -> np.ndarray:
    _check_above_floor(u, u_floor)
    rhs = sub_laplacian_base(geom, u)
    rhs *= -4.0
    # the flat background's R_base u term is +0.0: adding it only turns a
    # -0.0 into +0.0, which the printed curvatures show
    rhs += 0.0
    rhs /= u
    rhs /= u
    rhs /= u
    return rhs


def webster_curvature(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR) -> np.ndarray:
    """Webster scalar curvature of the conformal contact form.

    Refuses states whose minimum of u is at or below `u_floor` instead of
    returning huge values; the unnormalized flow may legitimately drive u
    toward zero and that must fail loudly.
    """
    return _webster_raw(state.geom, state.u, u_floor)


def conformal_volume_element(state: ConformalState) -> np.ndarray:
    """Pointwise density u^((2n+2)/n) = u^4 of the conformal volume form, as (u u)^2."""
    dv = state.u * state.u
    dv *= dv
    return dv


def conformal_sub_laplacian(state: ConformalState, f: np.ndarray) -> np.ndarray:
    """Sub-Laplacian of the conformal contact form, in divergence form.

    Reduces exactly to the background sub-Laplacian at u = 1, and its
    conformal integral vanishes to rounding for every f because the u powers
    cancel against the volume element.
    """
    u = state.u
    out = weighted_div_form(state.geom, u * u, f)
    out *= u ** -4.0
    return out


def scale_state(state: ConformalState, sigma: float) -> ConformalState:
    """The state of sigma * theta: u -> sigma^(n/2) u = sigma^(1/2) u.

    Pointwise curvature scales by sigma^(-1) and total volume by
    sigma^(n+1) = sigma^2.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    factor = float(sigma) ** 0.5
    return dataclasses.replace(state, u=factor * state.u)


def pullback_state(state: ConformalState, m: int) -> ConformalState:
    """Pull the state back by a central translation of m lattice steps.

    A bijective relabeling: curvature commutes with it exactly and every
    conformal integral is invariant.
    """
    return dataclasses.replace(state, u=pullback_z_shift(state.geom, state.u, m))
