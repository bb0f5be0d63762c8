import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryf.analysis import (
    DiagnosticsRecord,
    _curvature_rhs,
    _relative_l2,
    constancy_verdict,
    curvature_evolution_residual,
    curvature_moments,
    curvature_variance,
    dE_dt_formula,
    dEdt_mismatch,
    identity_residuals,
    identity_window,
    make_record,
    mean_curvature_rate_residual,
    monotonicity_audit,
    volume_rate_residual,
    yamabe_quantity,
)
from cryf.conformal import (
    ConformalState,
    conformal_sub_laplacian,
    conformal_volume_element,
    scale_state,
    pullback_state,
    webster_curvature,
)
import cryf.analysis
import cryf.flow
from cryf.errors import FloatRangeError
from cryf.flow import FlowConfig, integrate_fixed, probe_window, run_flow
from cryf.geometry import GridSpec, build_nilmanifold, integrate_base, weighted_div_form

from conftest import random_state, record_calls, single_mode_state, traced_memory
from reference import REFERENCE_GRIDS, dE_dt_from_moments, integrate_conformal


def closed_form_E(n, eps):
    """Exact discrete value of E for u = 1 + eps sin(2 pi y) on an n^3 grid."""
    int_r = 8.0 * eps**2 * n * n * np.sin(np.pi / n) ** 2
    vol = 1.0 + 3.0 * eps**2 + 0.375 * eps**4
    return int_r / np.sqrt(vol)


class TestYamabeQuantity:
    def test_constant_zero(self, geom448):
        state = ConformalState(geom448, np.full(geom448.shape, 2.0))
        assert yamabe_quantity(state) == 0.0

    def test_single_mode_closed_form(self, geom16):
        got = yamabe_quantity(single_mode_state(geom16, 0.1))
        assert got == pytest.approx(closed_form_E(16, 0.1), rel=1e-12)

    def test_converges_to_continuum_value(self):
        eps = 0.1
        limit = 8.0 * np.pi**2 * eps**2 / np.sqrt(1.0 + 3.0 * eps**2 + 0.375 * eps**4)
        for n in (16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            got = yamabe_quantity(single_mode_state(geom, eps))
            band = 1.05 * np.pi**2 / (3.0 * n * n)
            assert abs(got / limit - 1.0) <= band

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, seed):
        geom = build_nilmanifold(GridSpec(4, 4, 8))
        state = random_state(geom, seed)
        rng = np.random.default_rng(seed + 1)
        sigma = float(rng.uniform(0.25, 7.3))
        e0 = yamabe_quantity(state)
        e1 = yamabe_quantity(scale_state(state, sigma))
        assert abs(e1 - e0) <= 1e-12 * max(1.0, abs(e0))

    def test_pullback_invariance(self, geom448):
        state = random_state(geom448, 9)
        e0 = yamabe_quantity(state)
        assert abs(yamabe_quantity(pullback_state(state, 3)) - e0) <= 1e-12 * max(1.0, abs(e0))


class TestCurvatureMoments:
    def test_overflow_raises_float_range_error(self, geom448):
        # the volume element u^4 of u = 1e100 overflows float64
        state = ConformalState(geom448, np.full(geom448.shape, 1e100))
        with pytest.raises(FloatRangeError, match="float64 range"):
            curvature_moments(state)
        with pytest.raises(FloatRangeError, match="float64 range"):
            make_record(state)
        # finite moments, but vol^(3/2) in the closed-form dE/dt overflows
        state = ConformalState(geom448, np.full(geom448.shape, 1e70))
        with pytest.raises(FloatRangeError, match="dE/dt leaves the float64 range"):
            make_record(state)

    @pytest.mark.parametrize("c", [1e-70, 1e-90])
    def test_underflowing_volume_raises_float_range_error(self, geom448, c):
        # vol^(3/2) underflows to 0 at c = 1e-70, and vol itself at c = 1e-90
        state = ConformalState(geom448, np.full(geom448.shape, c))
        with pytest.raises(FloatRangeError,
                           match="dE/dt leaves the float64 range: float division by zero"):
            make_record(state, u_floor=1e-300)

    def test_nonfinite_curvature_rejected(self, geom448, monkeypatch):
        # an infinite R overflows nothing in the moments, so only their finite check sees it
        state = ConformalState(geom448, np.ones(geom448.shape))
        monkeypatch.setattr(cryf.analysis, "webster_curvature",
                            lambda s, u_floor: np.full(s.geom.shape, np.inf))
        with pytest.raises(FloatRangeError,
                           match=r"^curvature moments are not finite: 1\.0, inf, inf$"):
            curvature_moments(state)


class TestCurvatureVariance:
    def test_constant_zero(self, geom448):
        state = ConformalState(geom448, np.full(geom448.shape, 0.7))
        assert curvature_variance(state) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cauchy_schwarz(self, seed):
        geom = build_nilmanifold(GridSpec(4, 4, 8))
        state = random_state(geom, seed)
        var = curvature_variance(state)
        r = webster_curvature(state)
        dv = conformal_volume_element(state)
        scale = integrate_base(geom, r * r * dv) * integrate_base(geom, dv)
        assert var >= -1e-12 * max(1.0, scale)

    def test_matches_direct_variance_quadrature(self, geom16):
        state = single_mode_state(geom16, 0.1)
        var = curvature_variance(state)
        r = webster_curvature(state)
        vol = integrate_conformal(state, np.ones(geom16.shape))
        mean = integrate_conformal(state, r) / vol
        direct = vol * integrate_conformal(state, (r - mean) ** 2)
        assert var == pytest.approx(direct, rel=1e-10)
        assert var > 0.0


class TestDEdtFormula:
    def test_constant_zero(self, geom448):
        state = ConformalState(geom448, np.full(geom448.shape, 1.3))
        assert dE_dt_formula(state) == 0.0

    def test_sign_and_two_paths(self, geom448):
        for seed in range(20):
            state = random_state(geom448, seed)
            val = dE_dt_formula(state)
            assert val <= 1e-12 * max(1.0, abs(val))
            rec = make_record(state)
            alt = dE_dt_from_moments(rec.vol, rec.intR, rec.intR2)
            assert abs(val - alt) <= 1e-13 * max(1.0, abs(val))

    def test_matches_finite_difference(self, geom16):
        state = single_mode_state(geom16, 0.1)
        window = identity_window(probe_window(state, 1e-4))
        r0, r1, r2 = window
        fd = (r2.E - r0.E) / (r2.t - r0.t)
        assert abs(fd - r1.dEdt_formula) <= 0.01 * abs(r1.dEdt_formula)


class TestRateResiduals:
    def test_constant_state_zero(self, geom448):
        state = ConformalState(geom448, np.full(geom448.shape, 1.0))
        window = identity_window(probe_window(state, 1e-4))
        assert mean_curvature_rate_residual(window) == 0.0
        assert volume_rate_residual(window) == 0.0

    def test_single_mode_small_and_delta_squared(self, geom16):
        state = single_mode_state(geom16, 0.1)
        w1 = identity_window(probe_window(state, 1e-4))
        w2 = identity_window(probe_window(state, 5e-5))
        m1, m2 = mean_curvature_rate_residual(w1), mean_curvature_rate_residual(w2)
        v1, v2 = volume_rate_residual(w1), volume_rate_residual(w2)
        assert m1 <= 2e-4 and v1 <= 2e-4
        assert m2 < 0.5 * m1 and v2 < 0.5 * v1

    def test_irregular_spacing_rejected(self, geom448):
        state = ConformalState(geom448, np.full(geom448.shape, 1.0))
        r = make_record(state)
        shifted = dataclasses.replace(r, t=1.0)
        off = dataclasses.replace(r, t=2.5)
        with pytest.raises(ValueError, match="spacing"):
            mean_curvature_rate_residual((r, shifted, off))
        with pytest.raises(ValueError, match="increasing"):
            volume_rate_residual((off, shifted, r))


def old_rate_residuals(window):
    """The three window rates as separate expressions, each with its own arithmetic."""
    r0, r1, r2 = window
    span = r2.t - r0.t
    mean = abs((r2.intR - r0.intR) / span + r1.intR2) / max(1.0, r1.intR2)
    vol = abs((r2.vol - r0.vol) / span + 2.0 * r1.intR) / max(1.0, 2.0 * abs(r1.intR))
    fd = (r2.E - r0.E) / span
    dedt = abs(fd - r1.dEdt_formula) / max(1.0, abs(r1.dEdt_formula))
    return mean, vol, dedt


def record_window(rng, scale):
    """Three records at t = 0, 0.25, 0.5 with random moments of magnitude `scale`."""
    window = []
    for t in (0.0, 0.25, 0.5):
        vol = scale * rng.uniform(0.5, 2.0)
        int_r = scale * rng.standard_normal()
        int_r2 = int_r * int_r / vol * rng.uniform(1.0, 3.0)
        window.append(DiagnosticsRecord(
            t=t, E=scale * rng.standard_normal(), vol=vol, intR=int_r, intR2=int_r2,
            var=int_r2 * vol - int_r * int_r, dEdt_formula=-scale * rng.uniform(),
            min_u=1.0, min_R=0.0, max_R=0.0, dt=0.0))
    return tuple(window)


class TestRateResidualsBitwise:
    def test_equal_to_separate_expressions(self, geom448, geom16):
        rng = np.random.default_rng(15)
        windows = [record_window(rng, scale) for scale in (1e-3, 0.1, 1.0, 3.0, 1e3, 1e6)]
        # a centre with zero int R^2 (so zero int R) and one with negative int R
        zero = dataclasses.replace(windows[2][1], intR=0.0, intR2=0.0, var=0.0)
        windows.append((windows[2][0], zero, windows[2][2]))
        negative = dataclasses.replace(windows[3][1], intR=-abs(windows[3][1].intR))
        windows.append((windows[3][0], negative, windows[3][2]))
        windows.append(identity_window(probe_window(ConformalState(
            geom448, np.full(geom448.shape, 1.0)), 1e-4)))
        windows.append(identity_window(probe_window(single_mode_state(geom16, 0.1), 1e-4)))
        assert any(w[1].intR2 == 0.0 for w in windows)
        assert any(w[1].intR < 0.0 for w in windows)
        for window in windows:
            got = (mean_curvature_rate_residual(window), volume_rate_residual(window),
                   dEdt_mismatch(window))
            assert [g.hex() for g in got] == [w.hex() for w in old_rate_residuals(window)]


class TestCurvatureEvolutionResidual:
    def test_constant_state_zero(self, geom448):
        state = ConformalState(geom448, np.full(geom448.shape, 2.0))
        assert curvature_evolution_residual(probe_window(state, 1e-4)) == 0.0

    def test_single_mode_magnitude(self, geom16):
        state = single_mode_state(geom16, 0.1)
        assert curvature_evolution_residual(probe_window(state, 1e-4)) <= 2e-3

    def test_peak_memory(self):
        # rhs and one work field: |rhs| is taken first and the residual built in
        # rhs's array
        for n in (16, 32):
            window = probe_window(single_mode_state(build_nilmanifold(GridSpec(n, n, n)), 0.1),
                                  1e-4)
            peak = traced_memory(lambda: curvature_evolution_residual(window))[1]
            assert peak <= 2.5 * window.state.u.nbytes

    def test_decreases_under_grid_refinement(self):
        vals = []
        for n in (8, 16):
            geom = build_nilmanifold(GridSpec(n, n, n))
            window = probe_window(single_mode_state(geom, 0.1), 1e-4)
            vals.append(curvature_evolution_residual(window))
        assert vals[1] < vals[0]


def old_relative_l2(geom, resid, ref, dv):
    # |resid| / max(1, |ref|) with a new field per operation, the reference for _relative_l2
    num = np.sqrt(integrate_base(geom, resid * resid * dv))
    den = max(1.0, np.sqrt(integrate_base(geom, ref * ref * dv)))
    return float(num / den)


GRIDS_16 = [(16, 16, 16), (8, 4, 12)]


def states(shape, seeds):
    geom = build_nilmanifold(GridSpec(*shape))
    return [random_state(geom, seed, amplitude=0.3, smooth=2) for seed in seeds]


class TestInPlaceArithmetic:
    """Bit for bit, through float.hex, against test-local copies of the
    expressions that allocated a field per operation.  A grid sum absorbs
    most single-entry rounding changes, so each test runs over several
    states."""

    @pytest.mark.parametrize("shape", GRIDS_16)
    def test_curvature_moments(self, shape):
        for state in states(shape, range(8)):
            geom = state.geom
            r = webster_curvature(state)
            dv = conformal_volume_element(state)
            got_r, got_dv, record = curvature_moments(state)
            assert np.array_equal(got_r, r) and np.array_equal(got_dv, dv)
            got = [record.vol, record.intR, record.intR2]
            want = [integrate_base(geom, dv), integrate_base(geom, r * dv),
                    integrate_base(geom, r * r * dv)]
            assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("shape", GRIDS_16)
    def test_relative_l2(self, shape):
        rng = np.random.default_rng(3)
        for state in states(shape, range(8)):
            geom = state.geom
            dv = conformal_volume_element(state)
            for scale in (1e-3, 1.0, 1e3):
                rate, ref = scale * rng.standard_normal((2, *geom.shape))
                want = old_relative_l2(geom, rate - ref, ref, dv)
                assert _relative_l2(geom, rate, ref, dv).hex() == want.hex()

    @pytest.mark.parametrize("shape", GRIDS_16)
    def test_curvature_rhs_and_residual(self, shape):
        for state in states(shape, range(3)):
            window = probe_window(state, 1e-4)
            geom, u = state.geom, state.u
            r_minus, r0, r_plus = (webster_curvature(integrate_fixed(state, t))
                                   for t in (-1e-4, 0.0, 1e-4))
            lap = u ** -4.0 * weighted_div_form(geom, u * u, r0)
            rhs = 2.0 * lap + r0 * r0
            drdt = (r_plus - r_minus) / (2.0 * 1e-4)
            assert window.curvature_rate.tobytes() == drdt.tobytes()
            assert np.array_equal(conformal_sub_laplacian(state, r0), lap)
            assert np.array_equal(_curvature_rhs(state, r0), rhs)
            want = old_relative_l2(geom, drdt - rhs, rhs, conformal_volume_element(state))
            assert curvature_evolution_residual(window).hex() == want.hex()


class TestOutFields:
    @pytest.mark.parametrize("shape", REFERENCE_GRIDS)
    def test_bitwise_equal_to_allocating_path(self, shape):
        # curvature_moments hands out the fields of the separate calls, bit for
        # bit, in new memory; the grids include two the kernel cuts in slabs
        geom = build_nilmanifold(GridSpec(*shape))
        state = random_state(geom, 9, amplitude=0.3, smooth=1)
        u = state.u.tobytes()
        r, dv, record = curvature_moments(state)
        assert r.tobytes() == webster_curvature(state).tobytes()
        assert dv.tobytes() == conformal_volume_element(state).tobytes()
        assert not np.may_share_memory(r, dv)
        assert not any(np.may_share_memory(a, state.u) for a in (r, dv))
        assert state.u.tobytes() == u
        sums = [integrate_base(geom, f) for f in (dv, r * dv, r * r * dv)]
        assert [record.vol.hex(), record.intR.hex(), record.intR2.hex()] == [v.hex() for v in sums]
        want = make_record(state)
        assert [v.hex() for v in record.as_tuple()] == [v.hex() for v in want.as_tuple()]
        rate, ref = np.random.default_rng(10).standard_normal((2, *shape))
        keep = rate.tobytes(), dv.tobytes()
        want = old_relative_l2(geom, rate - ref, ref, dv)
        assert _relative_l2(geom, rate, ref, dv).hex() == want.hex()
        assert (rate.tobytes(), dv.tobytes()) == keep

    @pytest.mark.parametrize("n", [16, 32])
    def test_relative_l2_writes_only_into_ref(self, n):
        # ref ends as rate - ref, rate and dv as they were, and the call holds
        # one work field at a time
        geom = build_nilmanifold(GridSpec(n, n, n))
        rate, ref, dv = np.random.default_rng(n).standard_normal((3, n, n, n))
        dv = 1.0 + dv * dv
        _relative_l2(geom, rate, ref.copy(), dv)  # warm-up
        want, keep = rate - ref, (rate.tobytes(), dv.tobytes())
        peak = traced_memory(lambda: _relative_l2(geom, rate, ref, dv))[1]
        assert ref.tobytes() == want.tobytes() and (rate.tobytes(), dv.tobytes()) == keep
        assert peak <= dv.nbytes + 4096


class TestIdentityResiduals:
    def test_equals_separate_calls(self, geom16):
        probes = probe_window(single_mode_state(geom16, 0.1), 1e-4)
        res = identity_residuals(probes)
        window = identity_window(probes)
        r0, r1, r2 = window
        fd = (r2.E - r0.E) / (r2.t - r0.t)
        assert res.volume_rate == volume_rate_residual(window)
        assert res.mean_curvature_rate == mean_curvature_rate_residual(window)
        assert res.curvature_evolution == curvature_evolution_residual(probes)
        assert res.dEdt_mismatch == dEdt_mismatch(window) \
            == abs(fd - r1.dEdt_formula) / max(1.0, abs(r1.dEdt_formula))

    def test_one_probe_pair_per_state(self, geom448, monkeypatch):
        calls = record_calls(monkeypatch, cryf.flow, "integrate_fixed",
                             lambda state, t_offset, *args: t_offset)
        state = random_state(geom448, 5, smooth=2)
        window = probe_window(state, 1e-4)
        assert calls == [-1e-4, 1e-4]
        identity_residuals(window)
        assert len(calls) == 2
        assert window.state is state
        assert [rec.t for rec in window.records] == [-1e-4, 0.0, 1e-4]

    @pytest.mark.parametrize("shape", [(16, 16, 16), (8, 4, 12)])
    def test_window_records_equal_make_record(self, shape):
        for state in states(shape, range(2)):
            window = probe_window(state, 1e-4)
            assert identity_window(window) is window.records
            probes = [integrate_fixed(state, t) for t in (-1e-4, 0.0, 1e-4)]
            for s, rec in zip(probes, window.records):
                want = make_record(s).as_tuple()
                assert [v.hex() for v in rec.as_tuple()] == [v.hex() for v in want]
            assert np.array_equal(window.curvature, webster_curvature(state))
            assert np.array_equal(window.volume_element, conformal_volume_element(state))

    def test_window_holds_three_fields_beyond_the_state(self):
        # the window keeps R, dV and the rate of R at t, and no probe state or
        # R(t +/- delta); the residual's fields come and go on top of those three
        state = single_mode_state(build_nilmanifold(GridSpec(32, 32, 32)), 0.1)
        tracemalloc.start()
        try:
            window = probe_window(state, 1e-4)
            kept = tracemalloc.get_traced_memory()[0]
            identity_residuals(window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept <= 3.25 * state.u.nbytes and peak <= 6.5 * state.u.nbytes

    @pytest.mark.parametrize("delta", [0.0, -1e-4, float("nan"), float("inf")])
    def test_bad_delta_rejected(self, geom448, delta):
        state = random_state(geom448, 5)
        with pytest.raises(ValueError, match="delta must be positive"):
            probe_window(state, delta)


class TestConstancyVerdict:
    def test_constant_true(self, geom448):
        state = ConformalState(geom448, np.full(geom448.shape, 5.0))
        assert constancy_verdict(state, 1e-12)

    def test_single_mode_false(self, geom16):
        assert not constancy_verdict(single_mode_state(geom16, 0.1), 1e-6)

    def test_scale_invariant_verdicts(self, geom448):
        for seed in range(5):
            state = random_state(geom448, seed)
            v = constancy_verdict(state, 1e-6)
            assert constancy_verdict(scale_state(state, 7.3), 1e-6) == v
        const = ConformalState(geom448, np.full(geom448.shape, 1.0))
        assert constancy_verdict(scale_state(const, 7.3), 1e-12)


def constancy_from_moments(vol, int_r, int_r2, tol_rel):
    """The constancy test as once written on bare moments, kept as a reference."""
    var = int_r2 * vol - int_r * int_r
    mean = int_r / vol
    return var / (vol * vol) <= tol_rel * max(1.0, mean * mean)


class TestRecordIsConstant:
    def test_matches_moment_formula_on_scaled_states(self, geom448, geom16):
        states = [random_state(geom448, seed) for seed in range(3)]
        states += [single_mode_state(geom16, 0.1),
                   ConformalState(geom448, np.full(geom448.shape, 1.0))]
        for state in states:
            for sigma in (1.0, 0.5, 7.3, 1e-3):
                rec = make_record(scale_state(state, sigma))
                for tol in (1e-12, 1e-8, 1e-6, 1e-2):
                    assert rec.is_constant(tol) == constancy_from_moments(
                        rec.vol, rec.intR, rec.intR2, tol)

    def test_matches_moment_formula_at_the_boundary(self, geom448):
        rec = make_record(random_state(geom448, 3))
        mean = rec.intR / rec.vol
        q = rec.var / (rec.vol * rec.vol) / max(1.0, mean * mean)
        tols = (np.nextafter(q, 0.0), q, np.nextafter(q, 1.0),
                q * (1.0 - 1e-15), q * (1.0 + 1e-15))
        outcomes = [rec.is_constant(float(tol)) for tol in tols]
        assert outcomes == [constancy_from_moments(rec.vol, rec.intR, rec.intR2, float(tol))
                            for tol in tols]
        # the tolerances straddle the boundary
        assert True in outcomes and False in outcomes


class TestMonotonicityAudit:
    def test_constant_trajectory_clean(self, geom448):
        state = ConformalState(geom448, np.ones(geom448.shape))
        traj = run_flow(state, FlowConfig(t_end=0.5, dt_max=1e-1))
        assert monotonicity_audit(traj.records) == (0, 0.0)

    def test_flow_trajectory_clean(self, geom16):
        traj = run_flow(single_mode_state(geom16, 0.2),
                        FlowConfig(t_end=0.01, err_tol=1e-8, record_every=2))
        count, worst = monotonicity_audit(traj.records)
        assert count == 0 and worst == 0.0

    def test_nan_E_flagged(self, geom448):
        rec = make_record(ConformalState(geom448, np.ones(geom448.shape)))
        nan = dataclasses.replace(rec, E=float("nan"))
        assert monotonicity_audit([rec, nan])[0] == 1
        assert monotonicity_audit([nan, rec])[0] == 1
        count, worst = monotonicity_audit([rec, nan, rec, rec])
        assert count == 2 and np.isnan(worst)

    def test_reversed_trajectory_flagged(self, geom16):
        traj = run_flow(single_mode_state(geom16, 0.2),
                        FlowConfig(t_end=0.01, err_tol=1e-8, record_every=2))
        count, worst = monotonicity_audit(list(reversed(traj.records)))
        assert count > 0 and worst > 0.0


class TestDiagnosticsRecord:
    def test_rejects_bad_volume(self):
        with pytest.raises(ValueError, match="volume"):
            DiagnosticsRecord(t=0, E=0, vol=0.0, intR=0, intR2=0, var=0,
                              dEdt_formula=0, min_u=1, min_R=0, max_R=0, dt=0)

    def test_rejects_cs_violation(self):
        with pytest.raises(ValueError, match="Cauchy"):
            DiagnosticsRecord(t=0, E=0, vol=1.0, intR=0, intR2=1.0, var=-1.0,
                              dEdt_formula=0, min_u=1, min_R=0, max_R=0, dt=0)

    def test_csv_roundtrip_format(self, geom448):
        rec = make_record(random_state(geom448, 77))
        text = ",".join(f"{v:.17g}" for v in rec.as_tuple())
        parsed = [float(tok) for tok in text.split(",")]
        assert tuple(parsed) == rec.as_tuple()
