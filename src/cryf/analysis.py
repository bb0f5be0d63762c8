"""Monotone-quantity diagnostics and finite-difference identity checks.

The scalar E = int R dV / (int dV)^(n/(n+1)) is scale- and pullback-
invariant and nonincreasing along the unnormalized flow; its time
derivative equals -n * (int R^2 dV * int dV - (int R dV)^2) / (int dV)^((2n+1)/(n+1)),
nonpositive by Cauchy-Schwarz and zero exactly when the curvature is
constant.  The residual operations verify the underlying time-derivative
identities

    d/dt int dV   = -(n+1) int R dV
    d/dt int R dV = -n  int R^2 dV
    dR/dt         = (n+1) Lap_u R + R^2

by centered differences along high-accuracy reference flow steps; nothing
is assumed symbolically, everything is measured and must converge under
(h, delta) refinement.  `identity_residuals` integrates one probe pair
(t - delta, t + delta) per state, computes the curvature of each of the
three window states once, and hands both to every window residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conformal import (
    DEFAULT_U_FLOOR,
    ConformalState,
    conformal_sub_laplacian,
    conformal_volume_element,
    webster_curvature,
)
from .geometry import integrate_base

MONOTONE_SLACK = 1e-8
DEFAULT_CONSTANCY_TOL = 1e-8


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of flow diagnostics; field order matches the CSV contract."""

    t: float
    E: float
    vol: float
    intR: float
    intR2: float
    var: float
    dEdt_formula: float
    min_u: float
    min_R: float
    max_R: float
    dt: float

    def __post_init__(self) -> None:
        if not self.vol > 0.0:
            raise ValueError(f"volume must be positive, got {self.vol}")
        if self.var < -1e-12 * max(1.0, self.intR2 * self.vol):
            raise ValueError(
                f"Cauchy-Schwarz violated beyond rounding: var={self.var}"
            )

    def as_tuple(self) -> tuple[float, ...]:
        return (self.t, self.E, self.vol, self.intR, self.intR2, self.var,
                self.dEdt_formula, self.min_u, self.min_R, self.max_R, self.dt)


def curvature_moments(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR,
                      r: np.ndarray | None = None):
    """Curvature R, volume element dV and the moments int dV, int R dV, int R^2 dV.

    `r` is the curvature of `state` when the caller has it already.
    """
    geom = state.geom
    if r is None:
        r = webster_curvature(state, u_floor)
    dv = conformal_volume_element(state)
    vol = integrate_base(geom, dv)
    int_r = integrate_base(geom, r * dv)
    int_r2 = integrate_base(geom, r * r * dv)
    return r, dv, vol, int_r, int_r2


def yamabe_from_moments(vol: float, int_r: float, n: int = 1) -> float:
    """E = int R dV / (int dV)^(n/(n+1)) from the moments."""
    return int_r / vol ** (n / (n + 1.0))


def yamabe_quantity(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR) -> float:
    """E = int R dV / (int dV)^(n/(n+1))."""
    return make_record(state, u_floor=u_floor).E


def curvature_variance(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR) -> float:
    """Cauchy-Schwarz discriminant int R^2 dV * int dV - (int R dV)^2.

    Nonnegative up to rounding; zero exactly when R is constant.
    """
    return make_record(state, u_floor=u_floor).var


def dE_dt_formula(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR) -> float:
    """Closed-form dE/dt = -n * variance / vol^((2n+1)/(n+1)); always <= 0."""
    return make_record(state, u_floor=u_floor).dEdt_formula


def dE_dt_from_moments(vol: float, int_r: float, int_r2: float, n: int = 1) -> float:
    """Independent arithmetic path for dE/dt straight from the moment integrals."""
    return (-n * (int_r2 * vol) + n * (int_r * int_r)) / vol ** (n / (n + 1.0) + 1.0)


def make_record(state: ConformalState, dt_used: float = 0.0,
                u_floor: float = DEFAULT_U_FLOOR,
                r: np.ndarray | None = None) -> DiagnosticsRecord:
    """Compute the full diagnostics row for one state (`r` as in `curvature_moments`)."""
    r, _, vol, int_r, int_r2 = curvature_moments(state, u_floor, r)
    n = state.n
    var = int_r2 * vol - int_r * int_r
    return DiagnosticsRecord(
        t=state.t,
        E=yamabe_from_moments(vol, int_r, n),
        vol=vol,
        intR=int_r,
        intR2=int_r2,
        var=var,
        dEdt_formula=-n * var / vol ** ((2.0 * n + 1.0) / (n + 1.0)),
        min_u=float(state.u.min()),
        min_R=float(r.min()),
        max_R=float(r.max()),
        dt=dt_used,
    )


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be positive and finite, got {delta}")


def _probe_pair(state: ConformalState, delta: float, micro_steps: int, u_floor: float):
    """States at t - delta and t + delta from high-accuracy reference steps."""
    from . import flow

    return (flow.integrate_fixed(state, -delta, micro_steps, u_floor),
            flow.integrate_fixed(state, delta, micro_steps, u_floor))


def _window_curvatures(states, u_floor: float, curvatures):
    if curvatures is not None:
        return curvatures
    return tuple(webster_curvature(s, u_floor) for s in states)


def identity_window(state: ConformalState, delta: float, micro_steps: int = 8,
                    u_floor: float = DEFAULT_U_FLOOR, probes=None, curvatures=None):
    """Records at t - delta, t, t + delta via high-accuracy reference steps.

    The reference integration error is far below the O(delta^2) centered
    difference bias, so window residuals measure the identities themselves.
    `probes` is the (t - delta, t + delta) pair and `curvatures` the R
    fields at t - delta, t, t + delta when the caller has them already;
    otherwise they are computed here.
    """
    _check_delta(delta)
    minus, plus = probes if probes is not None else _probe_pair(
        state, delta, micro_steps, u_floor)
    states = (minus, state, plus)
    return tuple(make_record(s, u_floor=u_floor, r=r) for s, r in zip(
        states, _window_curvatures(states, u_floor, curvatures)))


def _window_spacing(window) -> float:
    r0, r1, r2 = window
    d1 = r1.t - r0.t
    d2 = r2.t - r1.t
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("window times must be strictly increasing")
    if abs(d1 - d2) > 1e-9 * max(d1, d2):
        raise ValueError(f"irregular window spacing: {d1} vs {d2}")
    return r2.t - r0.t


def mean_curvature_rate_residual(window, n: int = 1) -> float:
    """Normalized residual of d/dt int R dV = -n int R^2 dV on a record window."""
    span = _window_spacing(window)
    r0, r1, r2 = window
    ddt = (r2.intR - r0.intR) / span
    return abs(ddt + n * r1.intR2) / max(1.0, n * r1.intR2)


def volume_rate_residual(window, n: int = 1) -> float:
    """Normalized residual of d/dt int dV = -(n+1) int R dV on a record window."""
    span = _window_spacing(window)
    r0, r1, r2 = window
    ddt = (r2.vol - r0.vol) / span
    return abs(ddt + (n + 1.0) * r1.intR) / max(1.0, (n + 1.0) * abs(r1.intR))


def dEdt_mismatch(window) -> float:
    """Normalized gap between the centered difference of E and the closed-form dE/dt."""
    span = _window_spacing(window)
    r0, r1, r2 = window
    fd = (r2.E - r0.E) / span
    return abs(fd - r1.dEdt_formula) / max(1.0, abs(r1.dEdt_formula))


def _curvature_rhs(state: ConformalState, r: np.ndarray) -> np.ndarray:
    """Right-hand side (n+1) Lap_u R + R^2 of the curvature evolution law."""
    n = state.n
    return (n + 1.0) * conformal_sub_laplacian(state, r) + r * r


def curvature_evolution_residual(state: ConformalState, delta: float,
                                 micro_steps: int = 8,
                                 u_floor: float = DEFAULT_U_FLOOR,
                                 probes=None, curvatures=None) -> float:
    """Normalized L2 residual of dR/dt = (n+1) Lap_u R + R^2 at one state.

    R at t +/- delta comes from high-accuracy flow steps (`probes` and
    `curvatures`, as in `identity_window`); the norm is L2 with the evolving
    volume weight, normalized by max(1, |rhs|_L2).
    """
    _check_delta(delta)
    minus, plus = probes if probes is not None else _probe_pair(
        state, delta, micro_steps, u_floor)
    geom = state.geom
    r_minus, r0, r_plus = _window_curvatures((minus, state, plus), u_floor, curvatures)
    drdt = (r_plus - r_minus) / (2.0 * delta)
    rhs = _curvature_rhs(state, r0)
    resid = drdt - rhs
    dv = conformal_volume_element(state)
    num = np.sqrt(integrate_base(geom, resid * resid * dv))
    den = max(1.0, np.sqrt(integrate_base(geom, rhs * rhs * dv)))
    return float(num / den)


class IdentityResiduals(NamedTuple):
    """The four time-derivative residuals of one state."""

    volume_rate: float
    mean_curvature_rate: float
    curvature_evolution: float
    dEdt_mismatch: float


def identity_residuals(state: ConformalState, delta: float, micro_steps: int = 8,
                       u_floor: float = DEFAULT_U_FLOOR,
                       r: np.ndarray | None = None) -> IdentityResiduals:
    """Every window residual of one state from a single probe pair.

    The pair is integrated once and the curvature of each window state is
    computed once (`r` is that of `state` when the caller has it); both are
    dropped on return, so callers hold no probe fields afterwards.
    """
    _check_delta(delta)
    minus, plus = _probe_pair(state, delta, micro_steps, u_floor)
    if r is None:
        r = webster_curvature(state, u_floor)
    curvatures = (webster_curvature(minus, u_floor), r, webster_curvature(plus, u_floor))
    window = identity_window(state, delta, micro_steps, u_floor, probes=(minus, plus),
                             curvatures=curvatures)
    return IdentityResiduals(
        volume_rate=volume_rate_residual(window, state.n),
        mean_curvature_rate=mean_curvature_rate_residual(window, state.n),
        curvature_evolution=curvature_evolution_residual(
            state, delta, micro_steps, u_floor, probes=(minus, plus),
            curvatures=curvatures),
        dEdt_mismatch=dEdt_mismatch(window),
    )


def constancy_verdict(state: ConformalState, tol_rel: float = DEFAULT_CONSTANCY_TOL,
                      u_floor: float = DEFAULT_U_FLOOR) -> bool:
    """Scale-calibrated test for constant curvature.

    True iff var/vol^2 <= tol_rel * max(1, (int R dV / vol)^2); the discrete
    stand-in for "R is constant" via the Cauchy-Schwarz equality case.
    """
    rec = make_record(state, u_floor=u_floor)
    return constancy_from_moments(rec.vol, rec.intR, rec.intR2, tol_rel)


def constancy_from_moments(vol: float, int_r: float, int_r2: float,
                           tol_rel: float = DEFAULT_CONSTANCY_TOL) -> bool:
    """The `constancy_verdict` test on already computed moments."""
    var = int_r2 * vol - int_r * int_r
    mean = int_r / vol
    return var / (vol * vol) <= tol_rel * max(1.0, mean * mean)


def monotonicity_audit(records, slack: float = MONOTONE_SLACK):
    """Count record pairs where E increases beyond slack * max(1, |E|).

    Returns (violation_count, worst_violation); the worst violation is the
    largest excess over the slack (0.0 when none).
    """
    count = 0
    worst = 0.0
    for prev, cur in zip(records, records[1:]):
        allowed = prev.E + slack * max(1.0, abs(prev.E))
        if cur.E > allowed:
            count += 1
            worst = max(worst, cur.E - allowed)
    return count, worst
