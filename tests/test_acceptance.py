"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred.
"""

import contextlib

import numpy as np
import pytest

from cryf.analysis import (
    MONOTONE_SLACK,
    curvature_evolution_residual,
    dE_dt_formula,
    identity_window,
    make_record,
    mean_curvature_rate_residual,
    monotonicity_audit,
    volume_rate_residual,
    yamabe_quantity,
)
from cryf.cli import main
from cryf.conformal import (
    ConformalState,
    conformal_sub_laplacian,
    conformal_volume_element,
    pullback_state,
    scale_state,
    webster_curvature,
)
from cryf.flow import FlowConfig, FlowTermination, integrate_fixed, probe_window, run_flow
from cryf.geometry import (
    GridSpec,
    build_nilmanifold,
    integrate_base,
    pullback_z_shift,
    sub_laplacian_base,
    weighted_div_form,
)
from cryf import manufactured as mfg
from cryf.presets import make_initial_state
from cryf.snapshot import read_snapshot, write_snapshot
from cryf.soliton import SolitonFamily, Verdict, scan_family, soliton_theorem_harness

from conftest import random_state, single_mode_state
from reference import dE_dt_from_moments, frame_derivative, frame_derivative_adjoint, grid_inner

EIGHT_PI_SQ = 8.0 * np.pi**2


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def geom16s():
    return build_nilmanifold(GridSpec(16, 16, 16))


def test_c01_monotonicity_random_seeds(geom16s):
    with criterion("criterion 1: monotone E over 10 random seeds (slack 1e-8)"):
        assert MONOTONE_SLACK == 1e-8
        cfg = FlowConfig(t_end=0.005, err_tol=1e-8, record_every=5)
        for seed in range(10):
            state = make_initial_state(geom16s, "random_smooth", seed=seed,
                                       amplitude=0.2, smoothing_passes=2)
            traj = run_flow(state, cfg)
            assert traj.termination == FlowTermination.REACHED_T_END
            assert len(traj.records) >= 3
            count, worst = monotonicity_audit(traj.records)
            assert (count, worst) == (0, 0.0), f"seed {seed}"


def test_c02_dEdt_identity(geom16s):
    with criterion("criterion 2: dE/dt matches the variance formula within 1%"):
        state = single_mode_state(geom16s, 0.1)

        def mismatch(delta):
            r0, r1, r2 = identity_window(probe_window(state, delta))
            fd = (r2.E - r0.E) / (r2.t - r0.t)
            return abs(fd - r1.dEdt_formula) / abs(r1.dEdt_formula)

        m1 = mismatch(1e-4)
        m2 = mismatch(5e-5)
        assert m1 <= 0.01
        assert m2 < m1


def test_c03_variance_form_two_paths():
    with criterion("criterion 3: two dE/dt code paths agree to 1e-13 on 1000 states"):
        geom = build_nilmanifold(GridSpec(4, 4, 8))
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            u = 0.5 + rng.random(geom.shape)
            state = ConformalState(geom, u)
            a = dE_dt_formula(state)
            rec = make_record(state)
            b = dE_dt_from_moments(rec.vol, rec.intR, rec.intR2)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))
            assert a <= 0.0 or abs(a) <= 1e-12
            assert rec.var >= -1e-12 * max(1.0, rec.intR2 * rec.vol)


def test_c04_scaling_invariance():
    with criterion("criterion 4: E scale-invariant and R ~ 1/sigma on 100 pairs"):
        geoms = [build_nilmanifold(GridSpec(4, 4, 8)),
                 build_nilmanifold(GridSpec(5, 4, 8))]
        rng = np.random.default_rng(7)
        for k in range(100):
            state = random_state(geoms[k % 2], seed=k)
            sigma = float(rng.uniform(0.2, 8.0))
            e0 = yamabe_quantity(state)
            scaled = scale_state(state, sigma)
            assert abs(yamabe_quantity(scaled) - e0) <= 1e-12 * max(1.0, abs(e0))
            r = webster_curvature(state)
            r_s = webster_curvature(scaled)
            assert np.abs(r_s - r / sigma).max() <= 1e-12 * np.abs(r).max()


def test_c05_pullback_invariance():
    with criterion("criterion 5: moments invariant and curvature commutes under pullback"):
        geom = build_nilmanifold(GridSpec(4, 4, 8))
        rng = np.random.default_rng(11)
        for k in range(50):
            state = random_state(geom, seed=1000 + k)
            m = int(rng.integers(-12, 12))
            rec = make_record(state)
            rec_p = make_record(pullback_state(state, m))
            for name in ("E", "vol", "intR", "intR2"):
                a, b = getattr(rec, name), getattr(rec_p, name)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), name
            r = webster_curvature(state)
            lhs = webster_curvature(pullback_state(state, m))
            rhs = pullback_z_shift(geom, r, m)
            assert np.abs(lhs - rhs).max() <= 1e-15 * max(1.0, np.abs(r).max())


def test_c06_volume_and_mean_curvature_rates():
    with criterion("criterion 6: volume/mean-curvature rate residuals <= 2%, halving"):
        resids = []
        for n, delta in ((8, 2e-4), (16, 1e-4), (32, 5e-5)):
            geom = build_nilmanifold(GridSpec(n, n, n))
            window = identity_window(probe_window(single_mode_state(geom, 0.1), delta))
            resids.append((volume_rate_residual(window),
                           mean_curvature_rate_residual(window)))
        # frozen single-grid bounds (16^3, delta=1e-4): calibrated defaults
        assert resids[1][0] <= 2e-3 and resids[1][1] <= 2e-3
        assert resids[1][0] <= 0.02 and resids[1][1] <= 0.02
        for (v0, m0), (v1, m1) in zip(resids, resids[1:]):
            assert v1 <= 0.5 * v0 and m1 <= 0.5 * m0


def test_c07_curvature_evolution(geom16s):
    with criterion("criterion 7: curvature evolution residual (order >= 1) and "
                   "linearized rate within 2%"):
        vals = []
        for n in (8, 16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            vals.append(curvature_evolution_residual(probe_window(single_mode_state(geom, 0.1), 1e-4)))
        assert vals[0] > vals[1] > vals[2]
        assert np.log2(vals[0] / vals[1]) >= 1.0
        assert np.log2(vals[1] / vals[2]) >= 1.0

        eps = 1e-3
        state = single_mode_state(geom16s, eps)
        delta = 1e-4
        plus = integrate_fixed(state, delta, 8)
        minus = integrate_fixed(state, -delta, 8)
        r0 = webster_curvature(state)
        drdt = (webster_curvature(plus) - webster_curvature(minus)) / (2 * delta)
        dv = conformal_volume_element(state)
        denom = integrate_base(geom16s, r0 * r0 * dv)
        rate_fd = integrate_base(geom16s, drdt * r0 * dv) / denom
        lap_term = 2.0 * conformal_sub_laplacian(state, r0) + r0 * r0
        rate_lap = integrate_base(geom16s, lap_term * r0 * dv) / denom
        assert abs(rate_fd + EIGHT_PI_SQ) <= 0.02 * EIGHT_PI_SQ
        assert abs(rate_fd - rate_lap) <= 0.02 * EIGHT_PI_SQ


def test_c08_linearized_decay(geom16s):
    with criterion("criterion 8: mode amplitude decays at 8 pi^2 within 2%"):
        state = single_mode_state(geom16s, 1e-3)
        _, y, _ = geom16s.coords()
        mode = 2.0 * np.sin(2 * np.pi * y) + np.zeros(geom16s.shape)
        cur, ts, amps = state, [], []
        for k in range(500):
            cur = integrate_fixed(cur, 2e-5, 1)
            if k % 25 == 24:
                ts.append(cur.t)
                amps.append(integrate_base(geom16s, cur.u * mode))
        rate = -np.polyfit(ts, np.log(np.abs(amps)), 1)[0]
        assert abs(rate - EIGHT_PI_SQ) <= 0.02 * EIGHT_PI_SQ


def test_c09_theorem_harness(geom16s):
    with criterion("criterion 9: soliton sweep clean; flow trajectories decay "
                   "at >= 0.5x the predicted rate"):
        times = (0.0, 0.25, 0.5, 0.75, 1.0)
        families = []
        for c in (0.5, 1.0, 2.0):
            base = ConformalState(geom16s, np.full(geom16s.shape, c))
            for rate in (0.0, 1.0, 2.0):
                for slope in (0.0, -0.0):
                    families.append(SolitonFamily(base, slope, rate))
        controls = [
            SolitonFamily(single_mode_state(geom16s, 0.1), 0.0, 0.0),
            SolitonFamily(ConformalState(geom16s, np.ones(geom16s.shape)),
                          1.0, 0.0),
        ]
        for fam in families + controls:
            e0 = yamabe_quantity(fam.base)
            assert scan_family(fam, times).e_deviation <= 1e-12 * max(1.0, abs(e0))
            verdict = soliton_theorem_harness(scan_family(fam, times))
            assert verdict != Verdict.THEOREM_VIOLATION
        for fam in families:
            assert soliton_theorem_harness(scan_family(fam, times)) == Verdict.CONSTANT_CURVATURE
        for fam in controls:
            assert soliton_theorem_harness(scan_family(fam, times)) == Verdict.NOT_A_FLOW_SOLUTION

        cfg = FlowConfig(t_end=0.004, err_tol=1e-8, record_every=5)
        trajectories = [run_flow(single_mode_state(geom16s, eps), cfg)
                        for eps in (0.1, 0.2)]
        trajectories += [
            run_flow(make_initial_state(geom16s, "random_smooth", seed=seed,
                                        amplitude=0.2, smoothing_passes=2), cfg)
            for seed in (0, 1, 2)
        ]
        for traj in trajectories:
            e0 = abs(traj.records[0].E)
            assert all(r.dEdt_formula < 0.0 for r in traj.records)
            checked = 0
            for a, b in zip(traj.records, traj.records[1:]):
                predicted = 0.5 * (a.dEdt_formula + b.dEdt_formula)
                if abs(predicted) < 1e-10 * max(1.0, e0):
                    continue
                measured = (b.E - a.E) / (b.t - a.t)
                assert measured < 0.0
                assert abs(measured) >= 0.5 * abs(predicted)
                checked += 1
            assert checked >= 2


def test_c10_discretization_quality():
    with criterion("criterion 10: convergence orders and operator invariants"):
        for _, field, lam, twisted in mfg.EIGENPAIRS:
            errs = []
            for n in (16, 32):
                geom = build_nilmanifold(GridSpec(n, n, n))
                f = field(geom)
                diff = sub_laplacian_base(geom, f) + lam * f
                errs.append(np.sqrt(integrate_base(geom, diff * diff)))
            assert np.log2(errs[0] / errs[1]) >= (0.9 if twisted else 1.8)

        rng = np.random.default_rng(5)
        for spec in (GridSpec(4, 4, 4), GridSpec(4, 4, 8),
                     GridSpec(5, 4, 8), GridSpec(6, 6, 12)):
            geom = build_nilmanifold(spec)
            f = rng.standard_normal(geom.shape)
            g = rng.standard_normal(geom.shape)
            w = 0.5 + rng.random(geom.shape)
            for which in ("X", "Y"):
                lhs = grid_inner(geom, frame_derivative(geom, f, which, "forward"), g)
                rhs = grid_inner(geom, f, frame_derivative_adjoint(geom, g, which))
                scale = np.sqrt(grid_inner(geom, f, f) * grid_inner(geom, g, g))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)
            lf = weighted_div_form(geom, w, f)
            assert abs(integrate_base(geom, lf)) \
                <= 1e-12 * max(1.0, integrate_base(geom, np.abs(lf)))
            lg = weighted_div_form(geom, w, g)
            sym = grid_inner(geom, g, lf) - grid_inner(geom, f, lg)
            assert abs(sym) <= 1e-12 * max(1.0, abs(grid_inner(geom, g, lf)))
            quad = grid_inner(geom, f, lf)
            assert quad <= 1e-12 * max(1.0, abs(quad))


def test_c11_analytic_value_regression():
    with criterion("criterion 11: E matches the closed form within the O(h^2) "
                   "band; Richardson within 0.1%"):
        eps = 0.1
        limit = EIGHT_PI_SQ * eps**2 / np.sqrt(1.0 + 3.0 * eps**2 + 0.375 * eps**4)
        es = {}
        for n in (16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            es[n] = yamabe_quantity(single_mode_state(geom, eps))
            band = 1.05 * np.pi**2 / (3.0 * n * n)
            assert abs(es[n] / limit - 1.0) <= band
        richardson = (4.0 * es[32] - es[16]) / 3.0
        assert abs(richardson / limit - 1.0) <= 1e-3


def test_c12_determinism_and_io(tmp_path):
    with criterion("criterion 12: deterministic CSV, bit-exact snapshots, "
                   "exit-code contract"):
        cfg_text = (
            "[geometry]\nN_x = 16\nN_y = 16\nN_z = 16\n"
            "[initial_data]\npreset = random_smooth\nseed = 5\n"
            "[flow]\nt_end = 0.003\nerr_tol = 1e-8\nrecord_every = 5\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run-flow", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run-flow", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()
        assert main(["run-flow", "--config", str(cfg), "--out", str(out1)]) == 2

        geom = build_nilmanifold(GridSpec(5, 4, 8))
        state = random_state(geom, 123)
        snap = tmp_path / "state.cryf"
        write_snapshot(snap, state)
        back = read_snapshot(snap)
        assert np.array_equal(back.u, state.u) and back.t == state.t

        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg_text.replace("N_z = 16", "N_z = 12"))
        assert main(["run-flow", "--config", str(bad), "--out", str(tmp_path / "c")]) == 2

        strict = tmp_path / "strict.cfg"
        strict.write_text(
            "[geometry]\nN_x = 8\nN_y = 8\nN_z = 8\n"
            "[initial_data]\npreset = single_mode_y\nepsilon = 0.1\n"
            "[analysis]\nmax_curvature_evolution = 0.0\n"
        )
        assert main(["check-identities", "--config", str(strict),
                     "--out", str(tmp_path / "d")]) == 1
