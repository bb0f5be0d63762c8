"""Self-similar trajectories sigma(t) * psi_t^*(theta) and the constancy harness.

The scale is affine, sigma(t) = 1 + sigma_slope * t, as it is for a soliton
of the unnormalized flow.  The one-parameter automorphisms psi_t are central
(Reeb-direction) translations by whole lattice steps, exact relabelings.  A
spectral z-shift between grid points commutes with the kernel to rounding,
but moves E where u^4 aliases (1.7e-4 at z-frequency N_z/4, percents on grid
noise), beyond the 1e-12 invariance test.  Along every grid-aligned family E
is constant by pure scaling/relabeling algebra, while along every genuine
flow trajectory with nonconstant curvature E strictly decreases.  The
harness turns those two facts into a decision procedure: a family that is
E-invariant *and* actually solves the flow must have constant curvature; on
the flat geometry the only realizable such families are the static ones
(R = 0), and a "THEOREM VIOLATION" verdict is never expected for any input.

`scan_family` makes one pass over the sampled times and computes one
curvature per distinct state.  A sample is fixed by the central shift mod N_z
and the scale of its three states (t and t +/- delta), so times with equal
keys (a static family's, or times one psi-period apart) share one evaluation;
E of the base is read from the sample whose state is the base field bit for
bit, when one is sampled.  Each new sample builds its state once (one shifted
copy of the base field, scaled in place), reads the fields at t +/- delta only
inside one subtraction, and keeps only that state's `DiagnosticsRecord` (the
source of E and the constancy test) and its flow residual: the values the
harness compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .analysis import (
    DiagnosticsRecord,
    _relative_l2,
    curvature_moments,
    float64_range,
)
from .config import SolitonConfig
from .conformal import ConformalState
from .errors import FloatRangeError, PositivityError, ShiftAlignmentError
from .geometry import pullback_z_shift

_ALIGN_TOL = 1e-9


class Verdict(str, Enum):
    CONSTANT_CURVATURE = "constant curvature"
    NOT_A_FLOW_SOLUTION = "not a flow solution"
    THEOREM_VIOLATION = "THEOREM VIOLATION"
    NOT_INVARIANT = "not soliton-invariant"


@dataclass(frozen=True)
class SolitonFamily:
    """Base state, slope of the scale sigma(t) = 1 + sigma_slope * t, and Reeb speed.

    psi_t translates the central direction by psi_rate * t (one full period
    per 1/psi_rate time units); the corresponding lattice shift is
    psi_rate * t * N_z and must land on an integer.
    """

    base: ConformalState
    sigma_slope: float
    psi_rate: float


def shift_steps(family: SolitonFamily, t: float) -> int:
    """Lattice shift psi_rate * t * N_z; ShiftAlignmentError unless it is an integer."""
    exact = family.psi_rate * t * family.base.geom.spec.nz
    if not math.isfinite(exact):
        raise ShiftAlignmentError(f"central shift {exact} at t={t} is not finite")
    m = round(exact)
    if abs(exact - m) > _ALIGN_TOL * max(1.0, abs(exact)):
        raise ShiftAlignmentError(
            f"central shift {exact} at t={t} is not grid-aligned "
            "(psi_rate * t * N_z must be an integer)"
        )
    return int(m)


def _sigma(family: SolitonFamily, t: float) -> float:
    return 1.0 + family.sigma_slope * t


def soliton_state(family: SolitonFamily, t: float) -> ConformalState:
    """State sigma(t) * psi_t^*(theta) at time t.

    PositivityError unless sigma(t) > 0, FloatRangeError unless it is finite.
    """
    sig = _sigma(family, t)
    if not sig > 0.0:
        raise PositivityError(f"sigma({t}) = {sig} is not positive")
    if not math.isfinite(sig):
        raise FloatRangeError(f"sigma({t}) = {sig} is not finite")
    u = pullback_z_shift(family.base.geom, family.base.u, shift_steps(family, t))
    u *= sig ** 0.5
    return ConformalState(family.base.geom, u, t)


class FamilyScan(NamedTuple):
    """One pass over a family's sampled times: E of the base, the record of each
    sampled state, max |E(t) - E(0)| and the largest flow residual."""

    e0: float
    records: tuple[DiagnosticsRecord, ...]
    e_deviation: float
    flow_residual: float


def _sample(family: SolitonFamily, t: float, delta: float) -> tuple[DiagnosticsRecord, float]:
    """The record of the state at t and its flow residual, `_relative_l2` of the
    centred difference of u (the t - delta field subtracted inside the t + delta
    one) against the flow's du/dt = -R u / 2, built in r."""
    s0 = soliton_state(family, t)
    r, dv, record = curvature_moments(s0)
    rate = soliton_state(family, t + delta).u
    rate -= soliton_state(family, t - delta).u
    rate /= 2.0 * delta
    r *= -0.5
    r *= s0.u
    return record, _relative_l2(s0.geom, rate, r, dv)


def scan_family(family: SolitonFamily, times: Sequence[float]) -> FamilyScan:
    """Diagnostics record and flow residual at every sampled time, one curvature
    per distinct state.

    Times whose states at t and t +/- delta have the same central shifts mod
    N_z and the same scales build the same fields bit for bit, so they share
    one `_sample`; each time still gets its own record, with its own t.  E of
    the base is read from a state at shift 0 mod N_z and scale 1, the base
    field itself; the base's own curvature is computed only when no time has
    that state.  The residual's time step is one lattice step of
    central shift, or 1e-4 for a static relabeling; E(t) - E(0) is zero up to
    rounding for every exactly representable family.  A family whose fields,
    moments or dE/dt leave the float64 range raises FloatRangeError, and no
    times raise ValueError.
    """
    if len(times) == 0:
        raise ValueError("times must list at least one time")
    delta = _residual_delta(family)
    nz = family.base.geom.spec.nz
    samples = {}
    e0 = None
    records, residuals = [], []
    with float64_range("soliton family"):
        try:
            for t in times:
                key = tuple((shift_steps(family, s) % nz, _sigma(family, s))
                            for s in (t, t + delta, t - delta))
                if key not in samples:
                    samples[key] = _sample(family, t, delta)
                record, residual = samples[key]
                if e0 is None and key[0] == (0, 1.0):
                    e0 = record.E
                records.append(replace(record, t=t))
                residuals.append(residual)
            if e0 is None:
                e0 = curvature_moments(family.base)[2].E
        except (ValueError, ArithmeticError):
            # every step that fails above is one the plain order (the base, then
            # each time's `_sample`) also takes: replayed, that order raises
            # the error it meets first
            curvature_moments(family.base)
            for t in times:
                _sample(family, t, delta)
            raise
    return FamilyScan(e0, tuple(records), max(0.0, *(abs(rec.E - e0) for rec in records)),
                      max(0.0, *residuals))


def _residual_delta(family: SolitonFamily) -> float:
    # one lattice step of central shift keeps t +/- delta grid-aligned
    if family.psi_rate != 0.0:
        step = 1.0 / (abs(family.psi_rate) * family.base.geom.spec.nz)
        if not 0.0 < step < np.inf:
            raise ShiftAlignmentError(f"psi_rate {family.psi_rate} has no finite lattice step")
        return step
    return 1e-4


def soliton_theorem_harness(scan: FamilyScan, flow_tol: float = SolitonConfig.flow_tol,
                            var_tol: float = SolitonConfig.var_tol) -> Verdict:
    """Decision procedure for the constancy theorem: three comparisons on one scan.

    (a) E must be constant along the family (always true for genuine
    families, up to 1e-12).  (b) If the family additionally solves the flow
    (residual <= flow_tol at every sampled time), its curvature must pass
    the constancy test at every sampled time -- otherwise the monotonicity
    and invariance facts would contradict each other and the harness returns
    THEOREM_VIOLATION, which no input is expected to produce.
    """
    if scan.e_deviation > 1e-12 * max(1.0, abs(scan.e0)):
        return Verdict.NOT_INVARIANT
    if scan.flow_residual > flow_tol:
        return Verdict.NOT_A_FLOW_SOLUTION
    if not all(rec.is_constant(var_tol) for rec in scan.records):
        return Verdict.THEOREM_VIOLATION
    return Verdict.CONSTANT_CURVATURE
