import numpy as np
import pytest

from cryf.analysis import monotonicity_audit
from cryf.conformal import DEFAULT_U_FLOOR, ConformalState, webster_curvature
from cryf.errors import StepPositivityError
from cryf.flow import (
    FlowConfig,
    FlowTermination,
    _du_dt,
    integrate_fixed,
    run_flow,
    step_adaptive,
)
from conftest import random_state, single_mode_state

# frozen regression value: final/initial E for single_mode_y epsilon=0.2 on
# 16^3 integrated to t_end=0.05 at err_tol=1e-8 (reference run)
FROZEN_DECAY_RATIO = 5.233e-4


def time_derivative(state):
    return _du_dt(state.geom, state.u, DEFAULT_U_FLOOR)


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
            FlowConfig(safety=1.5)
        with pytest.raises(ValueError):
            FlowConfig(record_every=0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("name", ["t_end", "dt_init", "dt_min", "dt_max", "safety",
                                      "err_tol", "u_floor"])
    def test_nonfinite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FlowConfig(**{name: value})


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


class TestIntegrateFixed:
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

    def test_snapshots_recorded(self, geom448):
        state = random_state(geom448, 4, amplitude=0.1, smooth=2)
        cfg = FlowConfig(t_end=1e-3, dt_init=1e-4, dt_max=1e-4, snapshot_every=2)
        traj = run_flow(state, cfg)
        assert len(traj.snapshots) >= 2
        t0, u0 = traj.snapshots[0]
        assert t0 == 0.0 and np.array_equal(u0, state.u)


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
