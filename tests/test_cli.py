import contextlib
import io
import pathlib
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryf.analysis
import cryf.conformal
import cryf.flow
from cryf.cli import CSV_HEADER, main

BASE_CFG = """
[geometry]
N_x = 16
N_y = 16
N_z = 16

[initial_data]
preset = {preset}
{extra}
[flow]
t_end = 0.01
err_tol = 1e-8
record_every = 5
"""


def write_cfg(tmp_path, preset="constant", extra="", name="run.cfg", body=None):
    path = tmp_path / name
    path.write_text(body if body is not None else
                    BASE_CFG.format(preset=preset, extra=extra))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [[float(tok) for tok in line.split(",")] for line in lines[1:]]


class TestRunFlow:
    def test_constant_preset_zero_E(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "flow.csv")
        assert all(row[1] == 0.0 for row in rows)
        report = (out / "report.txt").read_text()
        assert "termination: reached_t_end" in report
        assert "monotonicity_violations: 0" in report

    def test_single_mode_strictly_decreasing(self, tmp_path):
        cfg = write_cfg(tmp_path, "single_mode_y", "epsilon = 0.2\n")
        out = tmp_path / "out"
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 0
        es = [row[1] for row in read_csv(out / "flow.csv")]
        assert len(es) > 3
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_snapshots_written(self, tmp_path):
        body = BASE_CFG.format(preset="constant", extra="") + "snapshot_every = 50\n"
        cfg = write_cfg(tmp_path, body=body)
        out = tmp_path / "out"
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "snap_0000.cryf").exists()

    def test_overwrite_contract(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 0
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 2
        assert main(["run-flow", "--config", cfg, "--out", str(out), "--overwrite"]) == 0

    def test_unwritable_output(self, tmp_path):
        cfg = write_cfg(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["run-flow", "--config", cfg, "--out", str(blocker / "sub")])
        assert rc == 2

    def test_missing_config(self, tmp_path):
        rc = main(["run-flow", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, body="[geometry]\nN_x = 8\nN_y = 8\nN_z = 12\n"
                                       "[initial_data]\npreset = constant\n")
        rc = main(["run-flow", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_deterministic_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "random_smooth", "seed = 3\namplitude = 0.2\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run-flow", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run-flow", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()

    def test_csv_roundtrip_is_lossless(self, tmp_path):
        cfg = write_cfg(tmp_path, "single_mode_y", "epsilon = 0.1\n")
        out = tmp_path / "out"
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "flow.csv")
        text = (out / "flow.csv").read_text().splitlines()[1:]
        for row, line in zip(rows, text):
            assert ",".join(f"{v:.17g}" for v in row) == line


class TestCheckIdentities:
    def test_single_mode_passes_default_bounds(self, tmp_path):
        cfg = write_cfg(tmp_path, "single_mode_y", "epsilon = 0.1\n")
        out = tmp_path / "out"
        assert main(["check-identities", "--config", cfg, "--out", str(out)]) == 0
        table = (out / "residuals.txt").read_text()
        assert "status: PASS" in table
        for name in ("volume_rate", "mean_curvature_rate", "curvature_evolution",
                     "dEdt_vs_finite_difference", "scaling_invariance",
                     "pullback_invariance"):
            assert name in table

    def test_constant_preset_tiny_residuals(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["check-identities", "--config", cfg, "--out", str(out)]) == 0
        for line in (out / "residuals.txt").read_text().splitlines()[1:7]:
            value = float(line.split()[1])
            assert value <= 1e-10

    def test_sabotaged_evolution_law_fails(self, tmp_path, monkeypatch):
        # negative control: flip the sign of the diffusion term in the
        # curvature evolution right-hand side
        from cryf.conformal import conformal_sub_laplacian

        def wrong_rhs(state, r):
            n = state.n
            return -(n + 1.0) * conformal_sub_laplacian(state, r) + r * r

        monkeypatch.setattr(cryf.analysis, "_curvature_rhs", wrong_rhs)
        cfg = write_cfg(tmp_path, "single_mode_y", "epsilon = 0.1\n")
        out = tmp_path / "out"
        rc = main(["check-identities", "--config", cfg, "--out", str(out)])
        assert rc == 1
        table = (out / "residuals.txt").read_text()
        assert "curvature_evolution" in table and "FAIL" in table

    def test_impossible_bound_fails(self, tmp_path):
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[analysis]\nmax_curvature_evolution = 0.0\n"
        cfg = write_cfg(tmp_path, body=body)
        rc = main(["check-identities", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1


    def test_integrates_one_probe_pair(self, tmp_path, monkeypatch):
        calls = []
        real = cryf.flow.integrate_fixed

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(cryf.flow, "integrate_fixed", counting)
        cfg = write_cfg(tmp_path, "single_mode_y", "epsilon = 0.1\n")
        assert main(["check-identities", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == [-1e-4, 1e-4]

    def test_curvature_evaluations_outside_rhs(self, tmp_path, monkeypatch):
        # curvatures outside the flow right-hand side: R at t - delta, t and
        # t + delta, shared by the window, the evolution residual and the
        # invariance rows (3), plus the scaled and pulled-back states (2)
        calls = []
        real = cryf.conformal._webster_raw

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cryf.conformal, "_webster_raw", counting)
        cfg = write_cfg(tmp_path, "single_mode_y", "epsilon = 0.1\n")
        assert main(["check-identities", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 5

    def test_bad_delta_exit_2(self, tmp_path, capsys):
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[analysis]\ndelta = 0\n"
        cfg = write_cfg(tmp_path, body=body)
        rc = main(["check-identities", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "delta must be positive" in capsys.readouterr().err


# 8^3 inputs that once ended in a false verdict or a false PASS: each must exit 2
@pytest.mark.parametrize("command, preset, extra, message", [
    ("soliton-check", "constant", "[soliton]\nvar_tol = nan\n",
     "[soliton]: var_tol must be positive and finite, got nan"),
    ("soliton-check", "constant", "[soliton]\nflow_tol = nan\n",
     "[soliton]: flow_tol must be positive and finite, got nan"),
    ("check-identities", "single_mode_y", "[analysis]\nmax_volume_rate = nan\n",
     "[analysis]: max_volume_rate must be non-negative and finite, got nan"),
    ("run-flow", "constant", "c = 1e100\n", "a curvature moment leaves the float64 range"),
    ("check-identities", "single_mode_y", "c = 1e70\n", "dE/dt leaves the float64 range"),
    ("run-flow", "constant", "[flow]\nt_end = inf\n", "[flow]: t_end must be finite, got inf"),
], ids=["var_tol_nan", "flow_tol_nan", "max_volume_rate_nan", "c_1e100", "c_1e70", "t_end_inf"])
def test_out_of_range_input_exit_2_without_traceback(tmp_path, capsys, command, preset,
                                                     extra, message):
    cfg = write_cfg(tmp_path, body="[geometry]\nN_x = 8\nN_y = 8\nN_z = 8\n"
                                   f"[initial_data]\npreset = {preset}\n{extra}")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


# an 8^3 rough field on which a delta = 1e-3 identity probe leaves the positive cone
PROBE_FAILURE_CFG = """
[geometry]
N_x = 8
N_y = 8
N_z = 8

[initial_data]
preset = random_smooth
seed = 3
amplitude = 0.9
smoothing_passes = 0

[analysis]
delta = 1e-3
grids = 8,16
"""


@pytest.mark.parametrize("command", ["check-identities", "convergence-study"])
def test_probe_failure_exit_2_without_traceback(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, body=PROBE_FAILURE_CFG)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("identity probe failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestConvergenceStudy:
    def test_two_grid_study_passes(self, tmp_path):
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[analysis]\ngrids = 8,16\n"
        cfg = write_cfg(tmp_path, body=body)
        out = tmp_path / "out"
        assert main(["convergence-study", "--config", cfg, "--out", str(out)]) == 0
        table = (out / "orders.txt").read_text()
        assert "laplacian_theta_twisted" in table
        assert "status: PASS" in table

    def test_single_grid_is_config_error(self, tmp_path):
        body = BASE_CFG.format(preset="constant", extra="") + "\n[analysis]\ngrids = 16\n"
        cfg = write_cfg(tmp_path, body=body)
        assert main(["convergence-study", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_unsorted_grids_rejected(self, tmp_path):
        body = BASE_CFG.format(preset="constant", extra="") + "\n[analysis]\ngrids = 16,8\n"
        cfg = write_cfg(tmp_path, body=body)
        assert main(["convergence-study", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


class TestSolitonCheck:
    def test_sweep_no_violations(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["soliton-check", "--config", cfg, "--out", str(out)]) == 0
        table = (out / "verdicts.txt").read_text()
        assert 'verdict="constant curvature"' in table
        assert 'verdict="not a flow solution"' in table
        assert "theorem_violations: 0" in table
        assert "THEOREM VIOLATION" not in table

    def test_one_curvature_per_sampled_time(self, tmp_path, monkeypatch):
        calls = []
        real = cryf.conformal._webster_raw

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cryf.conformal, "_webster_raw", counting)
        cfg = write_cfg(tmp_path, body=BASE_CFG.format(preset="constant", extra="").replace(
            "= 16", "= 8"))
        out = tmp_path / "out"
        assert main(["soliton-check", "--config", cfg, "--out", str(out)]) == 0
        # 3 x 3 sweep families plus 2 controls, 5 default times and the base
        assert "families: 11" in (out / "verdicts.txt").read_text()
        assert len(calls) <= 11 * (1 + 5)

    def test_configured_family_mode(self, tmp_path):
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[soliton]\nsweep = false\npsi_rate = 0.0\n" \
            "include_negative_controls = false\n"
        cfg = write_cfg(tmp_path, body=body)
        out = tmp_path / "out"
        assert main(["soliton-check", "--config", cfg, "--out", str(out)]) == 0
        table = (out / "verdicts.txt").read_text()
        assert 'verdict="not a flow solution"' in table

    def test_misaligned_family_is_config_error(self, tmp_path):
        body = BASE_CFG.format(preset="constant", extra="") + \
            "\n[soliton]\nsweep = false\npsi_rate = 0.3\n" \
            "include_negative_controls = false\n"
        cfg = write_cfg(tmp_path, body=body)
        assert main(["soliton-check", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_nonpositive_sigma_exit_2_without_traceback(self, tmp_path, capsys):
        # sigma(t) = 1 - 2t vanishes at the sampled time 0.5
        cfg = write_cfg(tmp_path, body=SOLITON_FAMILY_CFG.format(
            sigma_slope=-2.0, psi_rate=0.0, times="0.0,0.25,0.5,0.75,1.0"))
        assert main(["soliton-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: sigma(0.5) = 0.0 is not positive\n"


SOLITON_FAMILY_CFG = """
[geometry]
N_x = 8
N_y = 8
N_z = 8

[initial_data]
preset = constant

[soliton]
sweep = false
sigma_slope = {sigma_slope!r}
psi_rate = {psi_rate!r}
times = {times}
"""

# grid-aligned values (multiples of 1/N_z) alongside arbitrary floats, infinities
# and nan included, so that aligned families, misaligned shifts and overflows
# are all drawn
_soliton_values = st.one_of(st.integers(-16, 16).map(lambda k: k / 8.0), st.floats())


@given(sigma_slope=_soliton_values, psi_rate=_soliton_values,
       times=st.lists(_soliton_values, min_size=1, max_size=4))
@example(sigma_slope=0.125, psi_rate=5e-324, times=[0.0])  # lattice step overflows
@example(sigma_slope=float("inf"), psi_rate=0.0, times=[0.0])  # sigma(t) = inf
@example(sigma_slope=0.0, psi_rate=2e225, times=[1.1e82])  # central shift near float max
@example(sigma_slope=0.0, psi_rate=2e225, times=[1.1e83])  # central shift overflows
@settings(max_examples=25, deadline=None)
def test_soliton_check_fuzz_ends_on_an_exit_code(sigma_slope, psi_rate, times):
    body = SOLITON_FAMILY_CFG.format(sigma_slope=sigma_slope, psi_rate=psi_rate,
                                     times=",".join(repr(t) for t in times))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(pathlib.Path(tmp), body=body)
        with contextlib.redirect_stderr(err):
            rc = main(["soliton-check", "--config", cfg, "--out", f"{tmp}/o"])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
