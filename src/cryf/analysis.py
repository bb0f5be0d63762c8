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
centre's R and dV, the centred rate of R and the three records, made once.
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

    def is_constant(self, tol_rel: float) -> bool:
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
                      dt_used: float = 0.0):
    """Curvature R, volume element dV and the record of `state`: its moments and E, var, dE/dt.

    A moment or a dE/dt that is not a finite float64 raises FloatRangeError.
    """
    geom = state.geom
    with float64_range("a curvature moment"):
        r = webster_curvature(state, u_floor)
        dv = conformal_volume_element(state)
        vol = integrate_base(geom, dv)
        # one work field: r dv, then (r r) dv in the same buffer
        work = r * dv
        int_r = integrate_base(geom, work)
        np.multiply(r, r, out=work)
        work *= dv
        int_r2 = integrate_base(geom, work)
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


def make_record(state: ConformalState, dt_used: float = 0.0,
                u_floor: float = DEFAULT_U_FLOOR) -> DiagnosticsRecord:
    """The diagnostics row of one state."""
    return curvature_moments(state, u_floor, dt_used)[2]


class ProbeWindow(NamedTuple):
    """A state, its curvature R and volume element dV, the centred rate
    (R(t + delta) - R(t - delta)) / (2 delta) and the records at t - delta, t, t + delta."""

    state: ConformalState
    curvature: np.ndarray
    volume_element: np.ndarray
    curvature_rate: np.ndarray
    records: tuple[DiagnosticsRecord, DiagnosticsRecord, DiagnosticsRecord]


def identity_window(window: ProbeWindow):
    """Records at t - delta, t, t + delta of a probe window."""
    return window.records


def _window_spacing(window) -> float:
    r0, r1, r2 = window
    d1 = r1.t - r0.t
    d2 = r2.t - r1.t
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("window times must be strictly increasing")
    if abs(d1 - d2) > 1e-9 * max(d1, d2):
        raise ValueError(f"irregular window spacing: {d1} vs {d2}")
    return r2.t - r0.t


def _rate_residual(window, name: str, rate: float) -> float:
    """|centred difference of the field `name` - rate| / max(1, |rate|) on a record window."""
    span = _window_spacing(window)
    ddt = (getattr(window[2], name) - getattr(window[0], name)) / span
    return abs(ddt - rate) / max(1.0, abs(rate))


def mean_curvature_rate_residual(window) -> float:
    """Normalized residual of d/dt int R dV = -int R^2 dV on a record window."""
    return _rate_residual(window, "intR", -window[1].intR2)


def volume_rate_residual(window) -> float:
    """Normalized residual of d/dt int dV = -2 int R dV on a record window."""
    return _rate_residual(window, "vol", -2.0 * window[1].intR)


def dEdt_mismatch(window) -> float:
    """Normalized gap between the centered difference of E and the closed-form dE/dt."""
    return _rate_residual(window, "E", window[1].dEdt_formula)


def _curvature_rhs(state: ConformalState, r: np.ndarray) -> np.ndarray:
    """Right-hand side 2 Lap_u R + R^2 of the curvature evolution law."""
    rhs = conformal_sub_laplacian(state, r)
    rhs *= 2.0
    rhs += r * r
    return rhs


def curvature_evolution_residual(window: ProbeWindow) -> float:
    """Normalized L2 residual of dR/dt = 2 Lap_u R + R^2 at a window's centre.

    The norm is L2 with the evolving volume weight, normalized by
    max(1, |rhs|_L2).
    """
    geom, dv = window.state.geom, window.volume_element
    rhs = _curvature_rhs(window.state, window.curvature)
    # |rhs| first, so that the residual is built in rhs's own array
    den = max(1.0, _weighted_l2(geom, rhs, dv))
    np.subtract(window.curvature_rate, rhs, out=rhs)
    return float(_weighted_l2(geom, rhs, dv) / den)


def _weighted_l2(geom, f: np.ndarray, dv: np.ndarray):
    """L2 norm of f weighted by the volume element dv, in one work field."""
    work = f * f
    work *= dv
    return np.sqrt(integrate_base(geom, work))


def relative_l2(geom, resid: np.ndarray, ref: np.ndarray, dv: np.ndarray) -> float:
    """|resid| / max(1, |ref|) in the L2 norm weighted by the volume element dv."""
    num = _weighted_l2(geom, resid, dv)
    return float(num / max(1.0, _weighted_l2(geom, ref, dv)))


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


def constancy_verdict(state: ConformalState, tol_rel: float,
                      u_floor: float = DEFAULT_U_FLOOR) -> bool:
    """`DiagnosticsRecord.is_constant` on the record of `state`."""
    return make_record(state, u_floor=u_floor).is_constant(tol_rel)


def monotonicity_audit(records):
    """Count record pairs where E increases beyond MONOTONE_SLACK * max(1, |E|) or is nan.

    Returns (violation_count, worst_violation); the worst violation is the
    largest excess over the slack (0.0 when none, nan when an E is nan).
    """
    count = 0
    worst = 0.0
    for prev, cur in zip(records, records[1:]):
        allowed = prev.E + MONOTONE_SLACK * max(1.0, abs(prev.E))
        # a nan E is no decrease: it counts, and a nan excess stays the worst
        if not cur.E <= allowed:
            count += 1
            worst = float(np.maximum(worst, cur.E - allowed))
    return count, worst
