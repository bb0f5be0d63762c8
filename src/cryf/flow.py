"""Unnormalized curvature flow of the conformal factor, du/dt = -(n/2) R u.

Classical four-stage explicit stepping with step-doubling error control:
one full step against two half steps, accepted when the relative L-infinity
discrepancy meets err_tol, with the next step scaled by
safety * (err_tol/err)^(1/5).  An explicit scheme keeps the time error a
clean high-order term for the identity checks; stiffness (the sub-parabolic
CFL ~ h^2) is handled by dt_max and adaptivity at desk-scale grids.

Positivity of u is guarded at every stage.  Hitting the floor is a
first-class termination (the unnormalized flow can collapse volume), not an
error; only error-control underflow is anomalous.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analysis import DiagnosticsRecord, make_record
from .conformal import DEFAULT_U_FLOOR, ConformalState, _webster_raw
from .errors import (
    PositivityFloorError,
    StepPositivityError,
    StepUnderflowError,
)

_GROWTH_CAP = 5.0
_SHRINK_FLOOR = 0.1


class FlowTermination(str, Enum):
    REACHED_T_END = "reached_t_end"
    POSITIVITY_FLOOR = "positivity_floor"
    STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class FlowConfig:
    t_end: float = 0.02
    dt_init: float = 1e-6
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    safety: float = 0.9
    err_tol: float = 1e-8
    u_floor: float = DEFAULT_U_FLOOR
    record_every: int = 1
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        for name in ("t_end", "dt_init", "dt_min", "dt_max", "safety", "err_tol", "u_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError(
                f"need 0 < dt_min <= dt_init <= dt_max, got "
                f"({self.dt_min}, {self.dt_init}, {self.dt_max})"
            )
        if not self.err_tol > 0.0:
            raise ValueError("err_tol must be positive")
        if not self.u_floor > 0.0:
            raise ValueError("u_floor must be positive")
        if not (0.0 < self.safety <= 1.0):
            raise ValueError("safety must lie in (0, 1]")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")


@dataclass
class Trajectory:
    records: list[DiagnosticsRecord]
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    termination: FlowTermination = FlowTermination.REACHED_T_END


def _du_dt(geom, u: np.ndarray, u_floor: float) -> np.ndarray:
    """Right-hand side -(n/2) R u of the conformal-factor flow."""
    r = _webster_raw(geom, u, u_floor)
    r *= -0.5 * geom.n
    r *= u
    return r


def _check_floor(u: np.ndarray, u_floor: float) -> None:
    m = u.min()
    if m <= u_floor:
        raise StepPositivityError(f"stage value hit the floor: min u = {m} <= {u_floor}")


def _rk4_any(state: ConformalState, dt: float, u_floor: float) -> ConformalState:
    """One four-stage step of either sign; StepPositivityError if a stage hits the floor."""
    geom, u = state.geom, state.u
    k1 = _du_dt(geom, u, u_floor)
    u2 = u + (0.5 * dt) * k1
    _check_floor(u2, u_floor)
    k2 = _du_dt(geom, u2, u_floor)
    u3 = u + (0.5 * dt) * k2
    _check_floor(u3, u_floor)
    k3 = _du_dt(geom, u3, u_floor)
    u4 = u + dt * k3
    _check_floor(u4, u_floor)
    k4 = _du_dt(geom, u4, u_floor)
    u_new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_floor(u_new, u_floor)
    return ConformalState(geom, u_new, state.t + dt)


def integrate_fixed(state: ConformalState, t_offset: float, n_steps: int = 8,
                    u_floor: float = DEFAULT_U_FLOOR) -> ConformalState:
    """Advance by t_offset (either sign) with n_steps fixed reference steps.

    Used by the identity checks for high-accuracy probes at t +/- delta; the
    final time is pinned to exactly t + t_offset so probe windows are
    equispaced to the bit.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if t_offset == 0.0:
        return state
    dt = t_offset / n_steps
    cur = state
    for _ in range(n_steps):
        cur = _rk4_any(cur, dt, u_floor)
    return dataclasses.replace(cur, t=state.t + t_offset)


def step_adaptive(state: ConformalState, dt_try: float, config: FlowConfig):
    """One accepted step under step-doubling control.

    Returns (new_state, dt_used, dt_next, err_est).  Raises
    StepUnderflowError when error control would push dt below dt_min, and
    PositivityFloorError when positivity retries do.
    """
    if not dt_try > 0.0:
        raise ValueError(f"dt_try must be positive, got {dt_try}")
    dt = min(dt_try, config.dt_max)
    while True:
        try:
            full = _rk4_any(state, dt, config.u_floor)
            half = _rk4_any(state, 0.5 * dt, config.u_floor)
            half = _rk4_any(half, 0.5 * dt, config.u_floor)
        except StepPositivityError:
            dt_new = 0.5 * dt
            if dt_new < config.dt_min:
                raise PositivityFloorError(
                    f"positivity retries pushed dt below dt_min={config.dt_min}"
                ) from None
            dt = dt_new
            continue
        scale = float(np.abs(half.u).max())
        err = float(np.abs(full.u - half.u).max()) / max(scale, 1e-300)
        if err <= config.err_tol:
            if err == 0.0:
                dt_next = min(config.dt_max, _GROWTH_CAP * dt)
            else:
                grow = config.safety * (config.err_tol / err) ** 0.2
                dt_next = dt * min(_GROWTH_CAP, grow)
                dt_next = min(config.dt_max, max(config.dt_min, dt_next))
            accepted = ConformalState(state.geom, half.u, state.t + dt)
            if accepted.u.min() <= config.u_floor:
                raise PositivityFloorError(
                    f"accepted state at/below u_floor={config.u_floor}"
                )
            return accepted, dt, dt_next, err
        shrink = config.safety * (config.err_tol / err) ** 0.2
        dt_new = dt * max(_SHRINK_FLOOR, shrink)
        if dt_new < config.dt_min:
            raise StepUnderflowError(
                f"error control pushed dt below dt_min={config.dt_min} (err={err})"
            )
        dt = dt_new


def run_flow(state0: ConformalState, config: FlowConfig) -> Trajectory:
    """Integrate to t_end, recording diagnostics at the configured cadence.

    Every accepted state satisfies min u > u_floor, and the monotone
    quantity E is nonincreasing record to record up to the audit slack.
    Termination reasons are recorded, never silent.
    """
    records = [make_record(state0, 0.0, config.u_floor)]
    snapshots: list[tuple[float, np.ndarray]] = []
    if config.snapshot_every > 0:
        snapshots.append((state0.t, state0.u.copy()))
    state = state0
    dt_next = config.dt_init
    dt_used = 0.0
    accepted = 0
    termination = FlowTermination.REACHED_T_END
    t_end = config.t_end
    eps_t = 1e-12 * max(1.0, abs(t_end))
    while t_end - state.t > eps_t:
        dt_try = min(dt_next, t_end - state.t)
        try:
            state, dt_used, dt_next, _ = step_adaptive(state, dt_try, config)
        except StepUnderflowError:
            termination = FlowTermination.STEP_UNDERFLOW
            break
        except PositivityFloorError:
            termination = FlowTermination.POSITIVITY_FLOOR
            break
        accepted += 1
        if accepted % config.record_every == 0:
            records.append(make_record(state, dt_used, config.u_floor))
        if config.snapshot_every > 0 and accepted % config.snapshot_every == 0:
            snapshots.append((state.t, state.u.copy()))
    if state.t > records[-1].t:
        records.append(make_record(state, dt_used, config.u_floor))
    return Trajectory(records=records, snapshots=snapshots, termination=termination)
