import re
import tracemalloc
import weakref

import numpy as np
import pytest

from cryf import flow
from cryf.analysis import monotonicity_audit
from cryf.conformal import DEFAULT_U_FLOOR, ConformalState, webster_curvature
from cryf.errors import PositivityError, StepPositivityError
from cryf.flow import (
    FlowConfig,
    FlowStop,
    FlowTermination,
    _du_dt,
    integrate_fixed,
    run_flow,
    step_adaptive,
)
from cryf.geometry import GridSpec, build_nilmanifold, sub_laplacian_base
from conftest import random_state, single_mode_state
from reference import REFERENCE_GRIDS

# frozen regression value: final/initial E for single_mode_y epsilon=0.2 on
# 16^3 integrated to t_end=0.05 at err_tol=1e-8 (reference run)
FROZEN_DECAY_RATIO = 5.233e-4


def time_derivative(state):
    return _du_dt(state.geom, state.u)


class TestFlowConfig:
    def test_bad_dt_ordering(self):
        with pytest.raises(ValueError):
            FlowConfig(dt_init=1e-3, dt_min=1e-2, dt_max=1e-1)

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            FlowConfig(err_tol=0.0)
        with pytest.raises(ValueError):
            FlowConfig(u_floor=-1.0)
        with pytest.raises(ValueError):
            FlowConfig(record_every=0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("name", ["t_end", "dt_init", "dt_min", "dt_max", "err_tol",
                                      "u_floor"])
    def test_nonfinite_rejected(self, name, value):
        rule = "non-negative" if name == "t_end" else "positive"
        with pytest.raises(ValueError) as err:
            FlowConfig(**{name: value})
        assert str(err.value) == f"{name} must be {rule} and finite, got {value}"


class TestTimeDerivative:
    @pytest.mark.parametrize("c", [1.0, 3.0])
    def test_constant_is_fixed_point(self, geom448, c):
        state = ConformalState(geom448, np.full(geom448.shape, c))
        assert np.all(time_derivative(state) == 0.0)

    def test_results_owned_by_caller(self, geom448):
        s1 = random_state(geom448, 1)
        s2 = random_state(geom448, 2)
        for fn in (time_derivative, webster_curvature):
            first = fn(s1)
            kept = first.copy()
            second = fn(s2)
            assert np.array_equal(first, kept)
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, s1.u)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("make", [
        lambda g: random_state(g, 4),
        lambda g: random_state(g, 5, amplitude=0.8, smooth=1),
        lambda g: single_mode_state(g, 0.2),
        lambda g: single_mode_state(g, 0.3, coord="x"),
    ], ids=["random", "random_smooth", "mode_y", "mode_x"])
    def test_matches_curvature_form(self, n, make):
        state = make(build_nilmanifold(GridSpec(n, n, n)))
        got = time_derivative(state)
        want = -0.5 * webster_curvature(state) * state.u
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * scale

    def test_out_is_bit_identical_and_returned(self):
        # the in-place 2 Lap(u) / u / u is the allocating expression bit for
        # bit, and the field returned is new; two grids are cut in slabs
        for shape in REFERENCE_GRIDS:
            state = random_state(build_nilmanifold(GridSpec(*shape)), 7, amplitude=0.4)
            keep = state.u.tobytes()
            f = _du_dt(state.geom, state.u)
            want = 2.0 * sub_laplacian_base(state.geom, state.u) / state.u / state.u
            assert f.tobytes() == want.tobytes()
            assert not np.may_share_memory(f, state.u)
            assert state.u.tobytes() == keep

    def test_floor_raises_positivity_error(self, geom448):
        # the steps check their input on entry; _du_dt trusts its caller
        for low in (1e-7, DEFAULT_U_FLOOR):
            u = np.ones(geom448.shape)
            u[1, 2, 3] = low
            state = ConformalState(geom448, u)
            message = f"conformal factor at/below floor: min u = {low} <= {DEFAULT_U_FLOOR}"
            with pytest.raises(PositivityError, match=f"^{re.escape(message)}$"):
                integrate_fixed(state, 1e-6, 1)
            with pytest.raises(PositivityError, match=f"^{re.escape(message)}$"):
                step_adaptive(state, 1e-6, FlowConfig())

    def test_linearization(self, geom16):
        # du/dt ~ -(1/2) R u ~ -2*lambda_h*eps*sin(2 pi y) for the discrete
        # mode rate lambda_h = 4 N^2 sin^2(pi/N); the continuum rate 8 pi^2
        # is approached at O(h^2)
        n = geom16.spec.ny
        eps = 1e-5
        state = single_mode_state(geom16, eps)
        got = time_derivative(state)
        _, y, _ = geom16.coords()
        s = np.sin(2 * np.pi * y) + np.zeros(geom16.shape)
        rate = 4.0 * n * n * np.sin(np.pi / n) ** 2
        discrete = -2.0 * rate * eps * s
        continuum = -8.0 * np.pi**2 * eps * s
        assert np.abs(got - discrete).max() <= 1e-3 * np.abs(discrete).max()
        assert np.abs(got - continuum).max() <= 0.02 * np.abs(continuum).max()


class TestStepRK4:
    def test_constant_unchanged_bitwise(self, geom448):
        state = ConformalState(geom448, np.full(geom448.shape, 1.0))
        stepped = integrate_fixed(state, 0.37, 1)
        assert np.array_equal(stepped.u, state.u)
        assert stepped.t == pytest.approx(0.37)

    def test_against_euler_microsteps(self, geom16):
        state = single_mode_state(geom16, 0.1)
        dt = 1e-4
        rk = integrate_fixed(state, dt, 1)
        u = state.u.copy()
        for _ in range(100):
            r = webster_curvature(ConformalState(geom16, u))
            u = u + (dt / 100.0) * (-0.5 * r * u)
        assert np.abs(rk.u - u).max() <= 1e-6

    def test_stage_positivity_guard(self, geom16):
        # a large step on a strongly curved state overshoots the floor
        state = single_mode_state(geom16, 0.3)
        with pytest.raises(StepPositivityError):
            integrate_fixed(state, 0.05, 1, u_floor=0.5)


class TestStepAdaptive:
    def test_flat_state_accepts_dt_max(self, geom448):
        state = ConformalState(geom448, np.ones(geom448.shape))
        cfg = FlowConfig(t_end=1.0, dt_max=1e-2)
        new, dt_used, dt_next, err = step_adaptive(state, 1e-2, cfg)
        assert dt_used == 1e-2 and dt_next == 1e-2 and err == 0.0
        assert np.array_equal(new.u, state.u)

    def test_stiff_state_shrinks(self, geom16):
        state = random_state(geom16, 2, amplitude=0.4)
        cfg = FlowConfig(t_end=1.0, dt_init=1e-6, dt_max=1e-2, err_tol=1e-8)
        _, dt_used, _, err = step_adaptive(state, 1e-2, cfg)
        assert dt_used < 1e-2
        assert err <= cfg.err_tol

    def test_error_estimate_fifth_order(self, geom16):
        state = single_mode_state(geom16, 0.1)
        cfg = FlowConfig(t_end=1.0, dt_max=1.0, err_tol=1e9)
        dts = [1e-4, 2e-4, 4e-4]
        errs = [step_adaptive(state, dt, cfg)[3] for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 5.0) <= 0.5

    def test_dt_next_within_bounds_for_exact_step(self, geom4):
        # an exact step far below dt_min: growth by the cap alone would leave dt_next < dt_min
        state = ConformalState(geom4, np.full(geom4.shape, 1.5))
        cfg = FlowConfig()
        _, dt_used, dt_next, err = step_adaptive(state, 1e-13, cfg)
        assert err == 0.0 and dt_used == 1e-13
        assert cfg.dt_min <= dt_next <= cfg.dt_max


def peak_of(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepAllocations:
    """A four-stage step makes its own stage field, and the geometry holds only
    the kernel's slab scratch.  While the kernel builds a slope, the step
    holds one earlier slope: k1, then the slope sum k2, which it returns.  So
    beyond the kernel's own peak (its result and numpy's buffers) a step holds
    its stage field and the arrays it returns or still reads; each test's
    name counts the latter."""

    @pytest.fixture()
    def warm(self, geom16):
        state = single_mode_state(geom16, 0.2)
        integrate_fixed(state, 1e-4, 1)  # warm-up
        return state, state.u.nbytes, peak_of(lambda: _du_dt(geom16, state.u))

    def test_rk4_holds_one_field(self, geom16, warm):
        # the slope sum, which becomes the result
        state, field_bytes, kernel = warm
        peak = peak_of(lambda: flow._rk4_any(geom16, state.u, 1e-4, DEFAULT_U_FLOOR))
        assert peak <= 2.2 * field_bytes + kernel

    def test_integrate_fixed_holds_two_fields(self, geom16, warm):
        # the previous step's result and the current slope sum
        state, field_bytes, kernel = warm
        peak = peak_of(lambda: integrate_fixed(state, 1e-4, 8))
        assert peak <= 3.2 * field_bytes + kernel

    def test_rejecting_step_holds_two_fields(self, geom16, warm, monkeypatch):
        # one half-step result and the slope sum of the step under way: the
        # half steps run before the full step, and the rejected attempt's
        # full and half are freed before the retry
        state, field_bytes, kernel = warm
        cfg = FlowConfig(t_end=1.0, dt_max=1.0, err_tol=1e-8)
        real = flow._rk4_any
        completed = []

        def counting(*args):
            out = real(*args)
            completed.append(args[2])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(flow, "_rk4_any", counting)
            step_adaptive(state, 3e-4, cfg)
        # two completed attempts: the first is rejected by error control
        assert len(completed) == 6
        peak = peak_of(lambda: step_adaptive(state, 3e-4, cfg))
        assert peak <= 3.2 * field_bytes + kernel

    def test_results_share_no_memory(self, geom16):
        state = random_state(geom16, 6, amplitude=0.4, smooth=2)
        cfg = FlowConfig(t_end=3e-4, dt_init=1e-4, dt_max=1e-4, snapshot_every=1)
        results = [
            flow._rk4_any(geom16, state.u, 1e-4, DEFAULT_U_FLOOR),
            flow._rk4_any(geom16, state.u, -1e-4, DEFAULT_U_FLOOR),
            integrate_fixed(state, 1e-4, 1).u,
            integrate_fixed(state, 1e-4, 2).u,
            step_adaptive(state, 1e-4, cfg)[0].u,
            step_adaptive(state, 2e-4, cfg)[0].u,
        ]
        kept = [a.copy() for a in results]
        snapshots = run_flow(state, cfg).snapshots
        assert len(snapshots) >= 3 and snapshots[0] is state
        results += [s.u for s in snapshots[1:]]
        work = list(geom16._scratch)
        for i, a in enumerate(results):
            assert not any(np.shares_memory(a, w) for w in work)
            assert not np.shares_memory(a, state.u)
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)
        # later steps overwrite the work fields, never an earlier result
        assert all(np.array_equal(a, b) for a, b in zip(results, kept))


class TestCheckCounts:
    """Each field is checked against the floor once, and each call builds one state."""

    @staticmethod
    def count(monkeypatch):
        counts = {"above": 0, "floor": 0, "states": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(flow, "_check_above_floor",
                            counting("above", flow._check_above_floor))
        monkeypatch.setattr(flow, "_check_floor", counting("floor", flow._check_floor))
        monkeypatch.setattr(ConformalState, "__post_init__",
                            counting("states", ConformalState.__post_init__))
        return counts

    def test_integrate_fixed(self, geom448, monkeypatch):
        state = random_state(geom448, 3, amplitude=0.1, smooth=2)
        counts = self.count(monkeypatch)
        integrate_fixed(state, 1e-4, 8)
        # the input; three stages and the result of each of 8 steps; the final state
        assert counts == {"above": 1, "floor": 32, "states": 1}

    def test_step_adaptive_accepted_first_attempt(self, geom448, monkeypatch):
        state = random_state(geom448, 3, amplitude=0.1, smooth=2)
        cfg = FlowConfig(t_end=1.0, dt_max=1.0, err_tol=1e9)
        counts = self.count(monkeypatch)
        step_adaptive(state, 1e-4, cfg)
        # the input; the full step and two half steps; the accepted state
        assert counts == {"above": 1, "floor": 12, "states": 1}


def assert_classical_rk4(geom, state, t_offset):
    # integrate_fixed matches the textbook four-stage expression bit for bit
    u0 = state.u.copy()
    dt = t_offset / 3

    def rhs(u):
        return _du_dt(geom, u)

    u = state.u
    for _ in range(3):
        k1 = rhs(u)
        k2 = rhs(u + (0.5 * dt) * k1)
        k3 = rhs(u + (0.5 * dt) * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(integrate_fixed(state, t_offset, 3).u, u)
    steps = [state]
    for _ in range(3):
        steps.append(integrate_fixed(steps[-1], dt, 1))
    assert np.array_equal(steps[-1].u, u)
    for i, a in enumerate(steps):
        for b in steps[i + 1:]:
            assert not np.shares_memory(a.u, b.u)
    assert np.array_equal(state.u, u0)


class TestIntegrateFixed:
    def test_bitwise_classical_rk4(self, geom16):
        # dt * |lambda_max| is about 1, so every stage's rounding reaches u
        state = random_state(geom16, 6, amplitude=0.4, smooth=2)
        assert_classical_rk4(geom16, state, 3e-4)

    def test_bitwise_classical_rk4_twisted(self):
        # N_x != N_y and twist 3: the x-wrap shear reaches every stage
        geom = build_nilmanifold(GridSpec(6, 4, 12))
        state = random_state(geom, 6, amplitude=0.4, smooth=2)
        assert_classical_rk4(geom, state, 3e-3)

    def test_time_bookkeeping_exact(self, geom448):
        state = random_state(geom448, 3, amplitude=0.1, smooth=2)
        delta = 1e-4
        plus = integrate_fixed(state, delta, 8)
        minus = integrate_fixed(state, -delta, 8)
        assert plus.t == delta and minus.t == -delta

    def test_forward_backward_consistency(self, geom16):
        state = single_mode_state(geom16, 0.1)
        there = integrate_fixed(state, 1e-4, 8)
        back = integrate_fixed(there, -1e-4, 8)
        assert np.abs(back.u - state.u).max() <= 1e-12


class TestRunFlow:
    def test_flat_trajectory(self, geom448):
        state = ConformalState(geom448, np.ones(geom448.shape))
        traj = run_flow(state, FlowConfig(t_end=1.0, dt_max=1e-1))
        assert traj.termination == FlowTermination.REACHED_T_END
        assert all(r.E == 0.0 for r in traj.records)
        assert all(r.vol == pytest.approx(1.0, abs=1e-14) for r in traj.records)
        assert traj.records[-1].t == pytest.approx(1.0, rel=1e-12)

    def test_single_mode_monotone_decay(self, geom16):
        state = single_mode_state(geom16, 0.2)
        traj = run_flow(state, FlowConfig(t_end=0.05, err_tol=1e-8, record_every=5))
        assert traj.termination == FlowTermination.REACHED_T_END
        es = [r.E for r in traj.records]
        vols = [r.vol for r in traj.records]
        assert all(a > b for a, b in zip(es, es[1:]))
        assert all(a > b for a, b in zip(vols, vols[1:]))
        ratio = es[-1] / es[0]
        assert ratio <= 0.01
        assert ratio == pytest.approx(FROZEN_DECAY_RATIO, rel=0.25)
        violations, worst = monotonicity_audit(traj.records)
        assert violations == 0 and worst == 0.0
        assert all(r.min_u > 1e-6 for r in traj.records)

    def test_record_times_strictly_increasing(self, geom16):
        state = single_mode_state(geom16, 0.1)
        traj = run_flow(state, FlowConfig(t_end=0.01, record_every=3))
        times = [r.t for r in traj.records]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[0] == 0.0

    def test_tightening_err_tol_improves_accuracy(self, geom16):
        state = single_mode_state(geom16, 0.2)
        reference = integrate_fixed(state, 0.01, 2000)
        devs = []
        for tol in (1e-6, 1e-7, 1e-8):
            traj = run_flow(state, FlowConfig(t_end=0.01, err_tol=tol, record_every=10**6))
            # reconstruct the final state deviation via the recorded moments
            devs.append(abs(traj.records[-1].E - _yamabe(reference)))
        assert devs[2] <= devs[1] * 1.05 + 1e-15
        assert devs[1] <= devs[0] * 1.05 + 1e-15

    def test_positivity_floor_termination(self, geom16):
        state = single_mode_state(geom16, 0.3)
        cfg = FlowConfig(t_end=1.0, dt_init=0.05, dt_min=0.05, dt_max=0.05, err_tol=1e9)
        traj = run_flow(state, cfg)
        assert traj.termination == FlowTermination.POSITIVITY_FLOOR

    def test_step_underflow_termination(self, geom16):
        state = single_mode_state(geom16, 0.1)
        cfg = FlowConfig(t_end=1.0, dt_init=1e-4, dt_min=1e-4, dt_max=1e-4, err_tol=1e-13)
        traj = run_flow(state, cfg)
        assert traj.termination == FlowTermination.STEP_UNDERFLOW

    @pytest.mark.parametrize("eps, cfg, termination", [
        (0.3, FlowConfig(t_end=1.0, dt_init=0.05, dt_min=0.05, dt_max=0.05, err_tol=1e9),
         FlowTermination.POSITIVITY_FLOOR),
        (0.1, FlowConfig(t_end=1.0, dt_init=1e-4, dt_min=1e-4, dt_max=1e-4, err_tol=1e-13),
         FlowTermination.STEP_UNDERFLOW),
    ], ids=["positivity_floor", "step_underflow"])
    def test_step_adaptive_stops_with_its_termination(self, geom16, eps, cfg, termination):
        # the configs of the two termination tests above, one step each
        state = single_mode_state(geom16, eps)
        with pytest.raises(FlowStop) as stop:
            step_adaptive(state, cfg.dt_init, cfg)
        assert stop.value.termination is termination

    def test_snapshots_recorded(self, geom448):
        state = random_state(geom448, 4, amplitude=0.1, smooth=2)
        cfg = FlowConfig(t_end=1e-3, dt_init=1e-4, dt_max=1e-4, snapshot_every=2)
        traj = run_flow(state, cfg)
        assert len(traj.snapshots) >= 2
        assert traj.snapshots[0] is state

    @pytest.mark.parametrize("snapshot_every", [0, 2])
    def test_initial_state_freed_after_the_first_step(self, geom16, monkeypatch,
                                                      snapshot_every):
        # run_flow holds the initial state until its first accepted step,
        # and longer only as snapshots[0]
        states = [single_mode_state(geom16, 0.2)]
        initial = weakref.ref(states[0])
        alive = []
        real = flow.step_adaptive

        def watching(*args):
            alive.append(initial() is not None)
            return real(*args)

        monkeypatch.setattr(flow, "step_adaptive", watching)
        cfg = FlowConfig(t_end=1e-4, dt_init=2e-5, dt_max=2e-5, snapshot_every=snapshot_every)
        traj = run_flow(states.pop(), cfg)
        assert len(alive) >= 3
        if snapshot_every:
            assert all(alive) and traj.snapshots[0] is initial()
        else:
            assert alive == [True] + [False] * (len(alive) - 1)


class TestDecayRateFit:
    def test_mode_amplitude_decays_at_linearized_rate(self, geom16):
        # perturbation amplitude of the 2*pi*y mode decays like exp(-8 pi^2 t)
        eps0 = 1e-3
        state = single_mode_state(geom16, eps0)
        _, y, _ = geom16.coords()
        mode = 2.0 * np.sin(2 * np.pi * y) + np.zeros(geom16.shape)
        from cryf.geometry import integrate_base

        ts, amps = [], []
        cur = state
        for k in range(500):
            cur = integrate_fixed(cur, 2e-5, 1)
            if k % 25 == 24:
                ts.append(cur.t)
                amps.append(integrate_base(geom16, cur.u * mode))
        rate = -np.polyfit(ts, np.log(np.abs(amps)), 1)[0]
        assert rate == pytest.approx(8.0 * np.pi**2, rel=0.02)


def _yamabe(state):
    from cryf.analysis import yamabe_quantity

    return yamabe_quantity(state)
