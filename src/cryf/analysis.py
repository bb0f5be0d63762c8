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
(h, delta) refinement.  The code evaluates these laws at CR dimension n = 1.
Every window residual reads one `ProbeWindow` from `flow.probe_window`: the
probes at t +/- delta and the curvature of each window state, computed once.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .conformal import (
    DEFAULT_U_FLOOR,
    ConformalState,
    conformal_sub_laplacian,
    conformal_volume_element,
    webster_curvature,
)
from .errors import FloatRangeError
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
        return tuple(getattr(self, f.name) for f in fields(self))

    def is_constant(self, tol_rel: float = DEFAULT_CONSTANCY_TOL) -> bool:
        """var/vol^2 <= tol_rel * max(1, (int R dV / vol)^2): the scale-calibrated
        stand-in for "R is constant" via the Cauchy-Schwarz equality case."""
        mean = self.intR / self.vol
        return self.var / (self.vol * self.vol) <= tol_rel * max(1.0, mean * mean)


@contextlib.contextmanager
def float64_range(what: str):
    """Turn a float64 overflow, zero division or invalid operation into FloatRangeError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        raise FloatRangeError(f"{what} leaves the float64 range: {exc}") from None


def curvature_moments(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR,
                      r: np.ndarray | None = None, dt_used: float = 0.0):
    """Curvature R, volume element dV and the record of `state`: its moments and E, var, dE/dt.

    `r` is the curvature of `state` when the caller has it already.  A moment
    or a dE/dt that is not a finite float64 raises FloatRangeError.
    """
    geom = state.geom
    with float64_range("a curvature moment"):
        if r is None:
            r = webster_curvature(state, u_floor)
        dv = conformal_volume_element(state)
        vol = integrate_base(geom, dv)
        int_r = integrate_base(geom, r * dv)
        int_r2 = integrate_base(geom, r * r * dv)
    if not all(map(math.isfinite, (vol, int_r, int_r2))):
        raise FloatRangeError(f"curvature moments are not finite: {vol}, {int_r}, {int_r2}")
    var = int_r2 * vol - int_r * int_r
    with float64_range("dE/dt"):
        dedt = -var / vol ** 1.5
    record = DiagnosticsRecord(
        t=state.t,
        E=int_r / vol ** 0.5,
        vol=vol,
        intR=int_r,
        intR2=int_r2,
        var=var,
        dEdt_formula=dedt,
        min_u=float(state.u.min()),
        min_R=float(r.min()),
        max_R=float(r.max()),
        dt=dt_used,
    )
    return r, dv, record


def yamabe_quantity(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR) -> float:
    """E = int R dV / (int dV)^(1/2)."""
    return make_record(state, u_floor=u_floor).E


def curvature_variance(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR) -> float:
    """Cauchy-Schwarz discriminant int R^2 dV * int dV - (int R dV)^2.

    Nonnegative up to rounding; zero exactly when R is constant.
    """
    return make_record(state, u_floor=u_floor).var


def dE_dt_formula(state: ConformalState, u_floor: float = DEFAULT_U_FLOOR) -> float:
    """Closed-form dE/dt = -variance / vol^(3/2); always <= 0."""
    return make_record(state, u_floor=u_floor).dEdt_formula


def dE_dt_from_moments(vol: float, int_r: float, int_r2: float) -> float:
    """Independent arithmetic path for dE/dt straight from the moment integrals."""
    return (-(int_r2 * vol) + int_r * int_r) / vol ** 1.5


def make_record(state: ConformalState, dt_used: float = 0.0,
                u_floor: float = DEFAULT_U_FLOOR,
                r: np.ndarray | None = None) -> DiagnosticsRecord:
    """The diagnostics row of one state (`r` as in `curvature_moments`)."""
    return curvature_moments(state, u_floor, r, dt_used)[2]


class ProbeWindow(NamedTuple):
    """States at t - delta, t and t + delta, and the curvature R of each."""

    states: tuple[ConformalState, ConformalState, ConformalState]
    curvatures: tuple[np.ndarray, np.ndarray, np.ndarray]
    delta: float


def identity_window(window: ProbeWindow):
    """Records at t - delta, t, t + delta of a probe window."""
    return tuple(make_record(s, r=r) for s, r in zip(window.states, window.curvatures))


def _window_spacing(window) -> float:
    r0, r1, r2 = window
    d1 = r1.t - r0.t
    d2 = r2.t - r1.t
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("window times must be strictly increasing")
    if abs(d1 - d2) > 1e-9 * max(d1, d2):
        raise ValueError(f"irregular window spacing: {d1} vs {d2}")
    return r2.t - r0.t


def mean_curvature_rate_residual(window) -> float:
    """Normalized residual of d/dt int R dV = -int R^2 dV on a record window."""
    span = _window_spacing(window)
    r0, r1, r2 = window
    ddt = (r2.intR - r0.intR) / span
    return abs(ddt + r1.intR2) / max(1.0, r1.intR2)


def volume_rate_residual(window) -> float:
    """Normalized residual of d/dt int dV = -2 int R dV on a record window."""
    span = _window_spacing(window)
    r0, r1, r2 = window
    ddt = (r2.vol - r0.vol) / span
    return abs(ddt + 2.0 * r1.intR) / max(1.0, 2.0 * abs(r1.intR))


def dEdt_mismatch(window) -> float:
    """Normalized gap between the centered difference of E and the closed-form dE/dt."""
    span = _window_spacing(window)
    r0, r1, r2 = window
    fd = (r2.E - r0.E) / span
    return abs(fd - r1.dEdt_formula) / max(1.0, abs(r1.dEdt_formula))


def _curvature_rhs(state: ConformalState, r: np.ndarray) -> np.ndarray:
    """Right-hand side 2 Lap_u R + R^2 of the curvature evolution law."""
    return 2.0 * conformal_sub_laplacian(state, r) + r * r


def curvature_evolution_residual(window: ProbeWindow) -> float:
    """Normalized L2 residual of dR/dt = 2 Lap_u R + R^2 at a window's centre.

    The norm is L2 with the evolving volume weight, normalized by
    max(1, |rhs|_L2).
    """
    state = window.states[1]
    r_minus, r0, r_plus = window.curvatures
    drdt = (r_plus - r_minus) / (2.0 * window.delta)
    rhs = _curvature_rhs(state, r0)
    return relative_l2(state.geom, drdt - rhs, rhs, conformal_volume_element(state))


def relative_l2(geom, resid: np.ndarray, ref: np.ndarray, dv: np.ndarray) -> float:
    """|resid| / max(1, |ref|) in the L2 norm weighted by the volume element dv."""
    num = np.sqrt(integrate_base(geom, resid * resid * dv))
    den = max(1.0, np.sqrt(integrate_base(geom, ref * ref * dv)))
    return float(num / den)


class IdentityResiduals(NamedTuple):
    """The four time-derivative residuals of one state."""

    volume_rate: float
    mean_curvature_rate: float
    curvature_evolution: float
    dEdt_mismatch: float


def identity_residuals(window: ProbeWindow) -> IdentityResiduals:
    """Every window residual of the centre state of one probe window."""
    records = identity_window(window)
    return IdentityResiduals(
        volume_rate=volume_rate_residual(records),
        mean_curvature_rate=mean_curvature_rate_residual(records),
        curvature_evolution=curvature_evolution_residual(window),
        dEdt_mismatch=dEdt_mismatch(records),
    )


def constancy_verdict(state: ConformalState, tol_rel: float = DEFAULT_CONSTANCY_TOL,
                      u_floor: float = DEFAULT_U_FLOOR) -> bool:
    """`DiagnosticsRecord.is_constant` on the record of `state`."""
    return make_record(state, u_floor=u_floor).is_constant(tol_rel)


def monotonicity_audit(records, slack: float = MONOTONE_SLACK):
    """Count record pairs where E increases beyond slack * max(1, |E|) or is nan.

    Returns (violation_count, worst_violation); the worst violation is the
    largest excess over the slack (0.0 when none, nan when an E is nan).
    """
    count = 0
    worst = 0.0
    for prev, cur in zip(records, records[1:]):
        allowed = prev.E + slack * max(1.0, abs(prev.E))
        # a nan E is no decrease: it counts, and a nan excess stays the worst
        if not cur.E <= allowed:
            count += 1
            worst = float(np.maximum(worst, cur.E - allowed))
    return count, worst
