"""Self-similar trajectories sigma(t) * psi_t^*(theta) and the constancy harness.

The one-parameter automorphisms psi_t are central (Reeb-direction)
translations, the exact grid-aligned symmetries of this geometry; anything
richer would need interpolation and contaminate the 1e-12 invariance
claims.  Along every such family the monotone quantity E is constant by
pure scaling/relabeling algebra, while along every genuine flow trajectory
with nonconstant curvature E strictly decreases.  The harness turns those
two facts into a decision procedure: a family that is E-invariant *and*
actually solves the flow must have constant curvature; on the flat
geometry the only realizable such families are the static ones (R = 0), and
a "THEOREM VIOLATION" verdict is never expected for any input.

`scan_family` makes one pass over the sampled times: it builds each state
once, computes its curvature once (plus one for the base), and keeps only
scalars across times.  The harness and the invariance check both read
that pass, and a caller that needs both passes the same scan to each.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analysis import constancy_from_moments, curvature_moments, yamabe_from_moments
from .conformal import (
    ConformalState,
    conformal_volume_element,
    pullback_state,
    scale_state,
    webster_curvature,
)
from .errors import ShiftAlignmentError
from .geometry import integrate_base

_ALIGN_TOL = 1e-9


class Verdict(str, Enum):
    CONSTANT_CURVATURE = "constant curvature"
    NOT_A_FLOW_SOLUTION = "not a flow solution"
    THEOREM_VIOLATION = "THEOREM VIOLATION"
    NOT_INVARIANT = "not soliton-invariant"


@dataclass(frozen=True)
class SolitonFamily:
    """Base state, scaling function sigma with sigma(0) = 1, and Reeb speed.

    psi_t translates the central direction by psi_rate * t (one full period
    per 1/psi_rate time units); the corresponding lattice shift is
    psi_rate * t * N_z and must land on integers unless snapping is enabled.
    """

    base: ConformalState
    sigma: Callable[[float], float]
    psi_rate: float = 0.0
    allow_snapping: bool = False

    def __post_init__(self) -> None:
        s0 = float(self.sigma(0.0))
        if abs(s0 - 1.0) > 1e-12:
            raise ValueError(f"sigma(0) must equal 1, got {s0}")


def shift_steps(family: SolitonFamily, t: float) -> tuple[int, bool]:
    """Lattice shift round(psi_rate * t * N_z) and whether snapping occurred."""
    exact = family.psi_rate * t * family.base.geom.spec.nz
    m = round(exact)
    off = abs(exact - m)
    if off > _ALIGN_TOL * max(1.0, abs(exact)):
        if not family.allow_snapping:
            raise ShiftAlignmentError(
                f"central shift {exact} at t={t} is not grid-aligned "
                "(enable snapping to round to the nearest lattice step)"
            )
        return int(m), True
    return int(m), False


def soliton_state(family: SolitonFamily, t: float) -> ConformalState:
    """State sigma(t) * psi_t^*(theta) at time t."""
    sig = float(family.sigma(t))
    if not sig > 0.0:
        raise ValueError(f"sigma({t}) = {sig} is not positive")
    m, _ = shift_steps(family, t)
    state = scale_state(pullback_state(family.base, m), sig)
    return ConformalState(state.geom, state.u, t)


class FamilySample(NamedTuple):
    """Scalars of one sampled time: E, the moments and the flow residual."""

    E: float
    vol: float
    intR: float
    intR2: float
    flow_residual: float


class FamilyScan(NamedTuple):
    """One pass over a family's sampled times, one sample per time; holds no fields."""

    family: SolitonFamily
    times: tuple[float, ...]
    delta: float
    e0: float
    samples: tuple[FamilySample, ...]


def _flow_residual(family: SolitonFamily, s0: ConformalState, r: np.ndarray,
                   dv: np.ndarray, delta: float) -> float:
    s_plus = soliton_state(family, s0.t + delta)
    s_minus = soliton_state(family, s0.t - delta)
    dudt = (s_plus.u - s_minus.u) / (2.0 * delta)
    drift = 0.5 * s0.n * r * s0.u
    resid = dudt + drift
    geom = s0.geom
    num = np.sqrt(integrate_base(geom, resid * resid * dv))
    den = max(1.0, np.sqrt(integrate_base(geom, drift * drift * dv)))
    return float(num / den)


def _sample(family: SolitonFamily, t: float, delta: float) -> FamilySample:
    s0 = soliton_state(family, t)
    r, dv, vol, int_r, int_r2 = curvature_moments(s0)
    return FamilySample(yamabe_from_moments(vol, int_r, s0.n), vol, int_r, int_r2,
                        _flow_residual(family, s0, r, dv, delta))


def scan_family(family: SolitonFamily, times: Sequence[float],
                delta: float | None = None) -> FamilyScan:
    """E, moments and flow residual at every sampled time, one state each.

    `delta` is the residual's time step (default: one lattice step of
    central shift, or 1e-4 for a static relabeling).
    """
    d = delta if delta is not None else _residual_delta(family)
    if not d > 0.0:
        raise ValueError("delta must be positive")
    _, _, vol, int_r, _ = curvature_moments(family.base)
    e0 = yamabe_from_moments(vol, int_r, family.base.n)
    return FamilyScan(family, tuple(times), d, e0,
                      tuple(_sample(family, t, d) for t in times))


def _scan_for(family: SolitonFamily, times: Sequence[float], delta: float | None,
              scan: FamilyScan | None) -> FamilyScan:
    # a delta of None skips the delta comparison: the caller reads no residuals
    if scan is None:
        return scan_family(family, times, delta)
    if (scan.family is not family or scan.times != tuple(times)
            or (delta is not None and scan.delta != delta)):
        raise ValueError("scan was made for another family, times or delta")
    return scan


def soliton_invariance_check(family: SolitonFamily, times: Sequence[float],
                             scan: FamilyScan | None = None) -> float:
    """max over sampled times of |E(t) - E(0)|; zero up to rounding by the
    scaling/relabeling algebra for every exactly representable family."""
    scan = _scan_for(family, times, None, scan)
    dev = 0.0
    for sample in scan.samples:
        dev = max(dev, abs(sample.E - scan.e0))
    return dev


def flow_residual_of_family(family: SolitonFamily, t: float, delta: float) -> float:
    """Normalized L2 norm of du/dt + (n/2) R u sampled from the family itself.

    Small only when the family genuinely solves the flow; on the flat
    geometry that forces sigma' = 0 and a static state.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    s0 = soliton_state(family, t)
    return _flow_residual(family, s0, webster_curvature(s0),
                          conformal_volume_element(s0), delta)


def _residual_delta(family: SolitonFamily) -> float:
    # one lattice step of central shift keeps t +/- delta grid-aligned
    if family.psi_rate != 0.0:
        return 1.0 / (abs(family.psi_rate) * family.base.geom.spec.nz)
    return 1e-4


def soliton_theorem_harness(family: SolitonFamily, times: Sequence[float],
                            flow_tol: float = 1e-8, var_tol: float = 1e-6,
                            delta: float | None = None,
                            scan: FamilyScan | None = None) -> Verdict:
    """Decision procedure for the constancy theorem on one family.

    (a) E must be constant along the family (always true for genuine
    families, up to 1e-12).  (b) If the family additionally solves the flow
    (residual <= flow_tol at every sampled time), its curvature must pass
    the constancy test at every sampled time -- otherwise the monotonicity
    and invariance facts would contradict each other and the harness returns
    THEOREM_VIOLATION, which no input is expected to produce.  `scan`, when
    given, must come from `scan_family(family, times, delta)`.
    """
    d = delta if delta is not None else _residual_delta(family)
    scan = _scan_for(family, times, d, scan)
    if soliton_invariance_check(family, times, scan) > 1e-12 * max(1.0, abs(scan.e0)):
        return Verdict.NOT_INVARIANT
    worst = 0.0
    for sample in scan.samples:
        worst = max(worst, sample.flow_residual)
    if worst > flow_tol:
        return Verdict.NOT_A_FLOW_SOLUTION
    for sample in scan.samples:
        if not constancy_from_moments(sample.vol, sample.intR, sample.intR2, var_tol):
            return Verdict.THEOREM_VIOLATION
    return Verdict.CONSTANT_CURVATURE
