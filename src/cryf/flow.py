"""Unnormalized curvature flow of the conformal factor, du/dt = -(n/2) R u.

The right-hand side is taken directly as (n+1) Lap(u) u^(-2/n), without
building R; the code evaluates it at the nilmanifold's CR dimension n = 1,
where it is 2 Lap(u) / u^2.  Classical four-stage explicit steps under
step-doubling error control: one full step against two half steps, accepted
when the relative L-infinity discrepancy meets err_tol, with the next step
scaled by 0.9 (err_tol/err)^(1/5).  A step makes its own stage field
and sums the slopes into k2 as they come; the error estimate is formed
inside the full step's array.  An attempt runs both half steps before the
full step and a rejected one is dropped before the retry, so an adaptive
step holds five fields: the state, one half step, the stage, k2 and one
slope.  `run_flow` frees the initial state after the first accepted step
unless a snapshot keeps it.
An explicit scheme keeps the time error a clean high-order term for the
identity checks; stiffness (the sub-parabolic CFL ~ h^2) is handled by
dt_max and adaptivity.

Positivity of u is guarded with one check per field: the input when
`integrate_fixed` or `step_adaptive` is entered, each stage, and each step's
result.  The steps map arrays to arrays, so each call builds one state: the
accepted one, or the probe at its final time.  The next step size always lies
in [dt_min, dt_max]; a retry below dt_min is the one way a run stops early,
a FlowStop that carries its FlowTermination to `run_flow`.  Hitting the floor
is a first-class termination (the unnormalized flow can collapse volume), not
an error; only error-control underflow is anomalous.  `probe_window` keeps of
the fixed-step probes only their records and the centred rate of R, and
computes the centre's R, dV and record last; the residuals that read them live
in `analysis`.
The step controls, `FlowConfig`, are the `[flow]` section of `config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analysis import DiagnosticsRecord, ProbeWindow, curvature_moments, make_record
from .conformal import DEFAULT_U_FLOOR, ConformalState, _check_above_floor
from .config import FlowConfig
from .errors import StepPositivityError
from .geometry import sub_laplacian_base

_SAFETY = 0.9
_GROWTH_CAP = 5.0
_SHRINK_FLOOR = 0.1
# fixed RK4 steps per probe: their error is far below the centered differences' O(delta^2) bias
PROBE_MICRO_STEPS = 8


class FlowTermination(str, Enum):
    REACHED_T_END = "reached_t_end"
    POSITIVITY_FLOOR = "positivity_floor"
    STEP_UNDERFLOW = "step_underflow"


class FlowStop(RuntimeError):
    """A step would fall below dt_min; `termination` says which control pushed it there."""

    def __init__(self, termination: FlowTermination, message: str) -> None:
        super().__init__(message)
        self.termination = termination


@dataclass
class Trajectory:
    records: list[DiagnosticsRecord]
    snapshots: list[ConformalState] = field(default_factory=list)
    termination: FlowTermination = FlowTermination.REACHED_T_END


def _du_dt(geom, u: np.ndarray) -> np.ndarray:
    """Right-hand side -(1/2) R u = 2 Lap(u) / u^2 of the conformal-factor flow.

    Requires u > u_floor, which the caller has checked.  Computed as
    2 Lap(u) / u / u, in place on the kernel's result with no power and no
    temporary field.
    """
    r = sub_laplacian_base(geom, u)
    r *= 2.0
    r /= u
    r /= u
    return r


def _check_floor(u: np.ndarray, u_floor: float) -> None:
    m = u.min()
    if m <= u_floor:
        raise StepPositivityError(f"stage value hit the floor: min u = {m} <= {u_floor}")


def _rk4_any(geom, u: np.ndarray, dt: float, u_floor: float) -> np.ndarray:
    """One four-stage step of either sign from u > u_floor to a new array.

    StepPositivityError if a stage or the result hits the floor; an overflow
    is such a stage too.  Every stage is built in one stage field made per
    call, and each slope is folded into k2 and freed as soon as the next
    stage has been built from it, so u + (dt/6)(k1 + 2 k2 + 2 k3 + k4) is
    built in k2 with that expression's operations and groupings, bit for
    bit, and the step holds at most three fields at once: the stage, k2 and
    one other slope.
    """
    stage = np.empty_like(u)
    try:
        with np.errstate(over="raise"):
            k1 = _du_dt(geom, u)
            np.multiply(k1, 0.5 * dt, out=stage)
            stage += u
            _check_floor(stage, u_floor)
            k2 = _du_dt(geom, stage)
            np.multiply(k2, 0.5 * dt, out=stage)
            stage += u
            _check_floor(stage, u_floor)
            k2 *= 2.0
            k2 += k1
            del k1
            k3 = _du_dt(geom, stage)
            np.multiply(k3, dt, out=stage)
            stage += u
            _check_floor(stage, u_floor)
            k3 *= 2.0
            k2 += k3
            del k3
            k2 += _du_dt(geom, stage)
            k2 *= dt / 6.0
            k2 += u
    except FloatingPointError as exc:
        raise StepPositivityError(f"stage value overflowed: {exc}") from None
    _check_floor(k2, u_floor)
    return k2


def integrate_fixed(state: ConformalState, t_offset: float,
                    n_steps: int = PROBE_MICRO_STEPS,
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
    _check_above_floor(state.u, u_floor)
    dt = t_offset / n_steps
    u = state.u
    for _ in range(n_steps):
        u = _rk4_any(state.geom, u, dt, u_floor)
    return ConformalState(state.geom, u, state.t + t_offset)


def probe_window(state: ConformalState, delta: float) -> ProbeWindow:
    """The identity window of `state`, from probes at t +/- delta by high-accuracy reference steps.

    The rate is built in R(t + delta)'s array, and the centre comes last, so
    its R and dV are not held while a probe is integrated."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    # [::2] keeps a probe's R and record and drops its dV before the next probe
    (r_minus, rec_minus), (rate, rec_plus) = (
        curvature_moments(integrate_fixed(state, offset))[::2] for offset in (-delta, delta))
    rate -= r_minus
    rate /= 2.0 * delta
    del r_minus
    r, dv, record = curvature_moments(state)
    return ProbeWindow(state, r, dv, rate, (rec_minus, record, rec_plus))


def step_adaptive(state: ConformalState, dt_try: float, config: FlowConfig):
    """One accepted step under step-doubling control.

    Returns (new_state, dt_used, dt_next, err_est) with dt_next in
    [dt_min, dt_max].  A rejected attempt retries at a smaller dt: half of it
    when a stage hits the floor, the error-controlled size otherwise.  When
    that dt is below dt_min the step raises FlowStop, carrying
    POSITIVITY_FLOOR or STEP_UNDERFLOW after the rejection that set it.

    Each attempt runs the two half steps, then the full step, and frees a
    rejected attempt's results before the retry, so beside the state the
    step holds one half step and the four-stage step's stage, k2 and one
    slope.  A full step that hits the floor is thus found after both half
    steps: a positivity rejection can cost up to 8 more evaluations than
    with the full step first.
    """
    if not dt_try > 0.0:
        raise ValueError(f"dt_try must be positive, got {dt_try}")
    geom, u = state.geom, state.u
    _check_above_floor(u, config.u_floor)
    dt = min(dt_try, config.dt_max)
    while True:
        try:
            # half steps first: the first half is freed once the second is
            # built, so the full step is built beside one half-step result
            half = _rk4_any(geom, u, 0.5 * dt, config.u_floor)
            half = _rk4_any(geom, half, 0.5 * dt, config.u_floor)
            full = _rk4_any(geom, u, dt, config.u_floor)
        except StepPositivityError:
            dt_new, stop = 0.5 * dt, FlowTermination.POSITIVITY_FLOOR
        else:
            # half > u_floor > 0, so its maximum is its L-infinity norm
            np.subtract(full, half, out=full)
            err = float(np.abs(full, out=full).max()) / max(float(half.max()), 1e-300)
            factor = _GROWTH_CAP if err == 0.0 else _SAFETY * (config.err_tol / err) ** 0.2
            if err <= config.err_tol:
                dt_next = min(config.dt_max, max(config.dt_min, dt * min(_GROWTH_CAP, factor)))
                return ConformalState(geom, half, state.t + dt), dt, dt_next, err
            dt_new, stop = dt * max(_SHRINK_FLOOR, factor), FlowTermination.STEP_UNDERFLOW
        full = half = None  # a rejected attempt's fields go before the retry's first step
        if dt_new < config.dt_min:
            raise FlowStop(stop, f"{stop.value}: dt {dt_new} is below dt_min={config.dt_min}")
        dt = dt_new


def run_flow(state0: ConformalState, config: FlowConfig) -> Trajectory:
    """Integrate to t_end, recording diagnostics at the configured cadence.

    Every accepted state satisfies min u > u_floor, and the monotone
    quantity E is nonincreasing record to record up to the audit slack.
    Termination reasons are recorded, never silent.  Snapshots are the
    states themselves: nothing mutates a state's u, so none is copied.
    The loop holds the only reference run_flow keeps to state0, so a caller
    that keeps none has it freed after the first accepted step, unless it
    is snapshots[0].
    """
    records = [make_record(state0, 0.0, config.u_floor)]
    snapshots = [state0] if config.snapshot_every > 0 else []
    state = state0
    del state0  # unless a snapshot keeps it, the first accepted step frees it
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
        except FlowStop as stop:
            termination = stop.termination
            break
        accepted += 1
        if accepted % config.record_every == 0:
            records.append(make_record(state, dt_used, config.u_floor))
        if config.snapshot_every > 0 and accepted % config.snapshot_every == 0:
            snapshots.append(state)
    if state.t > records[-1].t:
        records.append(make_record(state, dt_used, config.u_floor))
    return Trajectory(records=records, snapshots=snapshots, termination=termination)
