"""Self-similar trajectories sigma(t) * psi_t^*(theta) and the constancy harness.

The scale is affine, sigma(t) = 1 + sigma_slope * t, as it is for a soliton
of the unnormalized flow.  The one-parameter automorphisms psi_t are central
(Reeb-direction) translations, the exact grid-aligned symmetries of this
geometry; anything richer would need interpolation and contaminate the
1e-12 invariance claims.  Along every such family the monotone quantity E is constant by
pure scaling/relabeling algebra, while along every genuine flow trajectory
with nonconstant curvature E strictly decreases.  The harness turns those
two facts into a decision procedure: a family that is E-invariant *and*
actually solves the flow must have constant curvature; on the flat
geometry the only realizable such families are the static ones (R = 0), and
a "THEOREM VIOLATION" verdict is never expected for any input.

`scan_family` makes one pass over the sampled times: it builds each state
once (one shifted copy of the base field, scaled in place), computes its
curvature once (plus one for the base), reads the fields at t +/- delta
only inside one subtraction, and keeps across times only each state's flow
residual and `DiagnosticsRecord`, the source of E and the constancy test.
The harness and the invariance check take that `FamilyScan` as their
argument, so a caller that needs both scans once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .analysis import (
    DiagnosticsRecord,
    curvature_moments,
    float64_range,
    relative_l2,
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


def soliton_state(family: SolitonFamily, t: float) -> ConformalState:
    """State sigma(t) * psi_t^*(theta) at time t.

    PositivityError unless sigma(t) > 0, FloatRangeError unless it is finite.
    """
    sig = 1.0 + family.sigma_slope * t
    if not sig > 0.0:
        raise PositivityError(f"sigma({t}) = {sig} is not positive")
    if not math.isfinite(sig):
        raise FloatRangeError(f"sigma({t}) = {sig} is not finite")
    u = pullback_z_shift(family.base.geom, family.base.u, shift_steps(family, t))
    u *= sig ** 0.5
    return ConformalState(family.base.geom, u, t)


class FamilySample(NamedTuple):
    """One sampled time: the state's diagnostics record and its flow residual."""

    record: DiagnosticsRecord
    flow_residual: float


class FamilyScan(NamedTuple):
    """One pass over a family's sampled times: E of the base, one sample per time."""

    e0: float
    samples: tuple[FamilySample, ...]


def _sample(family: SolitonFamily, t: float, delta: float) -> FamilySample:
    s0 = soliton_state(family, t)
    r, dv, record = curvature_moments(s0)
    # du/dt + R u / 2, which vanishes on a flow solution; the t - delta field
    # is subtracted inside the t + delta one, and the drift R u / 2 is built in r
    resid = soliton_state(family, t + delta).u
    resid -= soliton_state(family, t - delta).u
    resid /= 2.0 * delta
    r *= 0.5
    r *= s0.u
    resid += r
    return FamilySample(record, relative_l2(s0.geom, resid, r, dv))


def scan_family(family: SolitonFamily, times: Sequence[float]) -> FamilyScan:
    """Diagnostics record and flow residual at every sampled time, one state each.

    The residual's time step is one lattice step of central shift, or 1e-4
    for a static relabeling.  A family whose fields, moments or dE/dt leave
    the float64 range raises FloatRangeError, and no times raise ValueError.
    """
    if len(times) == 0:
        raise ValueError("times must list at least one time")
    delta = _residual_delta(family)
    with float64_range("soliton family"):
        e0 = curvature_moments(family.base)[2].E
        samples = tuple(_sample(family, t, delta) for t in times)
    return FamilyScan(e0, samples)


def soliton_invariance_check(scan: FamilyScan) -> float:
    """max over sampled times of |E(t) - E(0)|; zero up to rounding by the
    scaling/relabeling algebra for every exactly representable family."""
    dev = 0.0
    for sample in scan.samples:
        dev = max(dev, abs(sample.record.E - scan.e0))
    return dev


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
    """Decision procedure for the constancy theorem on one scanned family.

    (a) E must be constant along the family (always true for genuine
    families, up to 1e-12).  (b) If the family additionally solves the flow
    (residual <= flow_tol at every sampled time), its curvature must pass
    the constancy test at every sampled time -- otherwise the monotonicity
    and invariance facts would contradict each other and the harness returns
    THEOREM_VIOLATION, which no input is expected to produce.
    """
    if soliton_invariance_check(scan) > 1e-12 * max(1.0, abs(scan.e0)):
        return Verdict.NOT_INVARIANT
    worst = 0.0
    for sample in scan.samples:
        worst = max(worst, sample.flow_residual)
    if worst > flow_tol:
        return Verdict.NOT_A_FLOW_SOLUTION
    for sample in scan.samples:
        if not sample.record.is_constant(var_tol):
            return Verdict.THEOREM_VIOLATION
    return Verdict.CONSTANT_CURVATURE
