import dataclasses
import itertools

import numpy as np
import pytest

import cryf.conformal
import cryf.soliton
from cryf.analysis import (
    DiagnosticsRecord,
    constancy_verdict,
    curvature_moments,
    make_record,
    yamabe_quantity,
)
from cryf.conformal import ConformalState, pullback_state, scale_state
from cryf.errors import FloatRangeError, ShiftAlignmentError
from cryf.geometry import GridSpec, build_nilmanifold, integrate_base
from cryf.soliton import (
    FamilyScan,
    SolitonFamily,
    Verdict,
    _residual_delta,
    scan_family,
    shift_steps,
    soliton_state,
    soliton_theorem_harness,
)

from conftest import random_state, record_calls, single_mode_state, traced_memory

TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


def flow_residual(fam, t):
    return scan_family(fam, (t,)).flow_residual


def constant_family(geom, c=1.0, rate=0.0, slope=0.0):
    base = ConformalState(geom, np.full(geom.shape, c))
    return SolitonFamily(base, slope, rate)


class TestFamilyConstruction:
    def test_nonpositive_sigma_rejected_at_evaluation(self, geom448):
        fam = constant_family(geom448, slope=-2.0)
        with pytest.raises(ValueError, match="positive"):
            soliton_state(fam, 1.0)


class TestSolitonState:
    def test_t0_is_base_exactly(self, geom448):
        fam = constant_family(geom448, c=1.5, rate=1.0, slope=0.5)
        st = soliton_state(fam, 0.0)
        assert np.array_equal(st.u, fam.base.u)
        assert st.t == 0.0

    def test_sigma_is_affine_in_its_slope(self, geom16):
        base = single_mode_state(geom16, 0.1)
        st = soliton_state(SolitonFamily(base, 0.5, 0.0), 1.0)
        assert np.array_equal(st.u, 1.5 ** 0.5 * base.u)

    def test_static_family_constant_trajectory(self, geom16):
        fam = SolitonFamily(single_mode_state(geom16, 0.1), 0.0, 0.0)
        for t in TIMES:
            assert np.array_equal(soliton_state(fam, t).u, fam.base.u)

    def test_invariance_for_scaled_shifted_family(self, geom16):
        base = single_mode_state(geom16, 0.1)
        fam = SolitonFamily(base, 1.0, 2.0)
        dev = scan_family(fam, TIMES).e_deviation
        assert dev <= 1e-12 * max(1.0, abs(yamabe_quantity(base)))

    @pytest.mark.parametrize("shape", [(4, 4, 8), (16, 16, 16), (8, 4, 12)])
    def test_bitwise_equal_to_scaled_pullback(self, shape):
        # the public transforms are the reference, at each sampled time and
        # one residual step (one lattice shift) either side of it
        geom = build_nilmanifold(GridSpec(*shape))
        fam = SolitonFamily(random_state(geom, 7, smooth=1), 0.5, 1.0)
        delta = 1.0 / geom.spec.nz
        for t in TIMES:
            for s in (t - delta, t, t + delta):
                st = soliton_state(fam, s)
                ref = scale_state(pullback_state(fam.base, shift_steps(fam, s)), 1.0 + 0.5 * s)
                assert st.u.tobytes() == ref.u.tobytes()
                assert st.t == s and st.geom is geom

    def test_peak_memory_one_field_plus_checks(self, geom16):
        # the shifted copy is the only field; validation adds a boolean mask
        fam = SolitonFamily(random_state(geom16, 7), 0.5, 1.0)
        soliton_state(fam, 0.25)
        peak = traced_memory(lambda: soliton_state(fam, 0.25))[1]
        assert peak <= 1.5 * fam.base.u.nbytes

    def test_state_shares_no_memory_with_base(self, geom448):
        # soliton_state scales the pulled-back field in place, the base never
        fam = constant_family(geom448, c=1.5, rate=1.0, slope=0.5)
        for t in TIMES:
            st = soliton_state(fam, t)
            assert not np.may_share_memory(st.u, fam.base.u)
        assert np.all(fam.base.u == 1.5)

    def test_alignment_guard(self, geom16):
        fam = SolitonFamily(single_mode_state(geom16, 0.1), 0.0, 0.3)
        with pytest.raises(ShiftAlignmentError, match="not grid-aligned"):
            soliton_state(fam, 0.1)
        with pytest.raises(ShiftAlignmentError, match="not grid-aligned"):
            shift_steps(fam, 0.1)

    def test_grid_aligned_shift_not_snapped(self, geom16):
        fam = SolitonFamily(single_mode_state(geom16, 0.1), 0.0, 1.0)
        assert shift_steps(fam, 0.25) == 4
        assert type(shift_steps(fam, -0.5)) is int and shift_steps(fam, -0.5) == -8

    def test_overflowing_shift_rejected(self, geom448):
        # 2e225 * 1.1e83 * N_z overflows to inf
        fam = constant_family(geom448, rate=2e225)
        with pytest.raises(ShiftAlignmentError, match="not finite"):
            shift_steps(fam, 1.1e83)

    def test_infinite_sigma_rejected(self, geom448):
        fam = constant_family(geom448, slope=1e308)
        with pytest.raises(FloatRangeError, match="not finite"):
            soliton_state(fam, 2.0)

    def test_overflowing_family_rejected_by_scan(self, geom448):
        # sigma(1) = 1e160 is finite, but the volume element sigma^2 u^4 is not
        fam = constant_family(geom448, slope=1e160)
        with pytest.raises(FloatRangeError, match="float64 range"):
            scan_family(fam, (1.0,))

    def test_overflowing_dEdt_rejected_by_scan(self, geom448):
        # finite moments, but vol^(3/2) in the record's closed-form dE/dt overflows
        fam = constant_family(geom448, c=1e70)
        with pytest.raises(FloatRangeError, match="dE/dt leaves the float64 range"):
            scan_family(fam, (1.0,))


class TestInvarianceCheck:
    def test_constant_family_zero(self, geom448):
        assert scan_family(constant_family(geom448), TIMES).e_deviation == 0.0

    def test_corrupted_base_detected(self, geom16):
        # replacing the base mid-stream breaks the invariance claim
        fam_a = SolitonFamily(single_mode_state(geom16, 0.1), 0.0, 0.0)
        fam_b = dataclasses.replace(fam_a, base=single_mode_state(geom16, 0.2))
        e_a = yamabe_quantity(fam_a.base)
        dev = max(abs(yamabe_quantity(soliton_state(fam_b, t)) - e_a) for t in TIMES)
        assert dev > 1e-3


class TestFlowResidual:
    def test_static_constant_base_zero(self, geom448):
        fam = constant_family(geom448, c=2.0)
        assert flow_residual(fam, 0.5) == 0.0

    def test_shifted_constant_base_still_zero(self, geom16):
        # relabeling commutes with everything; sigma = 1 - R0 t with R0 = 0
        fam = constant_family(geom16, c=1.0, rate=2.0)
        assert flow_residual(fam, 0.5) <= 1e-10

    def test_linear_sigma_is_not_a_flow_solution(self, geom448):
        fam = constant_family(geom448, c=1.0, slope=1.0)
        assert flow_residual(fam, 0.0) >= 0.1


class TestHarness:
    def test_constant_base_constant_curvature(self, geom448):
        assert soliton_theorem_harness(scan_family(constant_family(geom448), TIMES)) \
            == Verdict.CONSTANT_CURVATURE

    def test_reeb_translated_constant_base(self, geom16):
        for rate in (0.0, 1.0, 2.0):
            fam = constant_family(geom16, c=0.5, rate=rate)
            assert soliton_theorem_harness(scan_family(fam, TIMES)) == Verdict.CONSTANT_CURVATURE

    def test_mode_base_not_a_flow_solution(self, geom16):
        fam = SolitonFamily(single_mode_state(geom16, 0.1), 0.0, 0.0)
        assert soliton_theorem_harness(scan_family(fam, TIMES)) == Verdict.NOT_A_FLOW_SOLUTION

    def test_linear_sigma_not_a_flow_solution(self, geom448):
        fam = constant_family(geom448, slope=1.0)
        assert soliton_theorem_harness(scan_family(fam, TIMES)) == Verdict.NOT_A_FLOW_SOLUTION

    def test_verdicts_invariant_under_base_rescaling(self, geom16):
        for sigma in (0.5, 2.0, 7.3):
            fam = constant_family(geom16, rate=1.0)
            scaled = dataclasses.replace(fam, base=scale_state(fam.base, sigma))
            assert soliton_theorem_harness(scan_family(scaled, TIMES)) == Verdict.CONSTANT_CURVATURE
        mode = SolitonFamily(single_mode_state(geom16, 0.1), 0.0, 0.0)
        scaled = dataclasses.replace(mode, base=scale_state(mode.base, 7.3))
        assert soliton_theorem_harness(scan_family(scaled, TIMES)) == Verdict.NOT_A_FLOW_SOLUTION

    def test_never_theorem_violation_over_sweep(self, geom16):
        for c in (0.5, 1.0, 2.0):
            for rate in (0.0, 1.0, 2.0):
                for slope in (0.0, 1.0):
                    fam = constant_family(geom16, c=c, rate=rate, slope=slope)
                    verdict = soliton_theorem_harness(scan_family(fam, TIMES))
                    assert verdict != Verdict.THEOREM_VIOLATION


def plain_record(var):
    # vol 1 and mean curvature 0, so the record is constant when var <= var_tol
    return DiagnosticsRecord(t=0.0, E=2.0, vol=1.0, intR=0.0, intR2=var, var=var,
                             dEdt_formula=0.0, min_u=1.0, min_R=0.0, max_R=0.0, dt=0.0)


class TestHandBuiltScan:
    # each row breaks every test from its own on, so a verdict shows only when
    # every test before it passes: the order of precedence
    @pytest.mark.parametrize("e_deviation, flow_residual, var, verdict", [
        (3e-12, 1.0, 1.0, Verdict.NOT_INVARIANT),
        (2e-12, 1e-7, 1.0, Verdict.NOT_A_FLOW_SOLUTION),
        (0.0, 0.0, 1.1e-6, Verdict.THEOREM_VIOLATION),
        (2e-12, 1e-8, 1e-6, Verdict.CONSTANT_CURVATURE),
    ], ids=["not_invariant", "not_a_flow_solution", "theorem_violation", "constant_curvature"])
    def test_verdict_from_plain_values(self, e_deviation, flow_residual, var, verdict):
        # E(0) = 2 sets the invariance bound 2e-12; the bounds themselves pass
        records = (plain_record(0.0), plain_record(var), plain_record(0.0))
        scan = FamilyScan(2.0, records, e_deviation, flow_residual)
        assert soliton_theorem_harness(scan, flow_tol=1e-8, var_tol=1e-6) == verdict


def separate_verdict(fam, times, flow_tol=1e-8, var_tol=1e-6):
    """The harness's decision from per-time quantities computed one call each."""
    e0 = yamabe_quantity(fam.base)
    dev = 0.0
    for t in times:
        dev = max(dev, abs(yamabe_quantity(soliton_state(fam, t)) - e0))
    if dev > 1e-12 * max(1.0, abs(e0)):
        return Verdict.NOT_INVARIANT, dev
    if max(flow_residual(fam, t) for t in times) > flow_tol:
        return Verdict.NOT_A_FLOW_SOLUTION, dev
    for t in times:
        if not constancy_verdict(soliton_state(fam, t), var_tol):
            return Verdict.THEOREM_VIOLATION, dev
    return Verdict.CONSTANT_CURVATURE, dev


def sweep_and_controls(geom):
    fams = [constant_family(geom, c=c, rate=rate)
            for c in (0.5, 1.0, 2.0) for rate in (0.0, 1.0, 2.0)]
    fams.append(SolitonFamily(single_mode_state(geom, 0.1), 0.0, 0.0))
    fams.append(constant_family(geom, c=1.0, slope=1.0))
    return fams


class TestFamilyScan:
    def test_matches_separate_quantities(self, geom16):
        verdicts = []
        for fam in sweep_and_controls(geom16):
            scan = scan_family(fam, TIMES)
            verdict, dev = separate_verdict(fam, TIMES)
            assert soliton_theorem_harness(scan) == verdict
            assert scan.e_deviation == dev
            assert scan.flow_residual == max(flow_residual(fam, t) for t in TIMES)
            verdicts.append(verdict)
        assert verdicts == [Verdict.CONSTANT_CURVATURE] * 9 + [Verdict.NOT_A_FLOW_SOLUTION] * 2

    def test_samples_hold_scalars_only(self, geom448):
        scan = scan_family(constant_family(geom448, rate=1.0, slope=0.5), TIMES)
        assert len(scan.records) == len(TIMES)
        for record in scan.records:
            assert all(type(v) is float for v in record.as_tuple())
        assert type(scan.e_deviation) is float and type(scan.flow_residual) is float

    @pytest.mark.parametrize("shape", [(16, 16, 16), (8, 4, 12)])
    def test_records_equal_make_record(self, shape):
        # the record of each sample is the flow's record of that state, bit for bit
        geom = build_nilmanifold(GridSpec(*shape))
        for fam in sweep_and_controls(geom):
            scan = scan_family(fam, TIMES)
            assert scan.e0.hex() == make_record(fam.base).E.hex()
            for t, record in zip(TIMES, scan.records):
                ref = make_record(soliton_state(fam, t))
                assert [v.hex() for v in record.as_tuple()] == \
                    [v.hex() for v in ref.as_tuple()]

    def test_one_curvature_per_sampled_time(self, geom448, monkeypatch):
        calls = record_calls(monkeypatch, cryf.conformal, "_webster_raw")
        fam = constant_family(geom448, rate=1.0)
        soliton_theorem_harness(scan_family(fam, TIMES))
        assert len(calls) == 1 + len(TIMES)

    def test_no_times_rejected(self, geom448):
        # a scan with no sample would pass the harness vacuously
        with pytest.raises(ValueError, match="times must list at least one time"):
            scan_family(constant_family(geom448), ())

    @pytest.mark.parametrize("shape", [(16, 16, 16), (8, 4, 12)])
    def test_flow_residual_bitwise_equal_to_plain_expression(self, shape):
        # against a test-local copy of the residual built with a new field
        # per operation; float.hex compares every bit.  The scan leaves the
        # base field as it was.
        geom = build_nilmanifold(GridSpec(*shape))
        for seed, t in itertools.product(range(4), (0.0, 0.25, 0.5)):
            fam = SolitonFamily(random_state(geom, seed, amplitude=0.3, smooth=2), 0.5, 1.0)
            base = fam.base.u.tobytes()
            delta = _residual_delta(fam)
            s0 = soliton_state(fam, t)
            r, dv, _ = curvature_moments(s0)
            resid = np.subtract(soliton_state(fam, t + delta).u,
                                soliton_state(fam, t - delta).u)
            resid /= 2.0 * delta
            drift = 0.5 * r * s0.u
            resid += drift
            num = np.sqrt(integrate_base(geom, resid * resid * dv))
            den = max(1.0, np.sqrt(integrate_base(geom, drift * drift * dv)))
            assert flow_residual(fam, t).hex() == float(num / den).hex()
            assert fam.base.u.tobytes() == base
