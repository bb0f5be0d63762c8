import contextlib
import io
import pathlib
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryf.analysis
import cryf.cli
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


OUTPUT_8_CFG = "[geometry]\nN_x = 8\nN_y = 8\nN_z = 8\n\n[initial_data]\npreset = constant\n\n"


def count_geometries(monkeypatch):
    """Record the grid of every geometry the CLI builds from now on."""
    specs = []
    real = cryf.cli.build_nilmanifold

    def counting(spec):
        specs.append(spec)
        return real(spec)

    monkeypatch.setattr(cryf.cli, "build_nilmanifold", counting)
    return specs


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

    def test_existing_snapshot_stops_before_any_write(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 1e-3\nsnapshot_every = 1\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "snap_0002.cryf").write_text("kept")
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: output file {out / 'snap_0002.cryf'} exists")
        assert sorted(p.name for p in out.iterdir()) == ["snap_0002.cryf"]
        assert (out / "snap_0002.cryf").read_text() == "kept"

    @pytest.mark.parametrize("output, clash", [
        ("csv = out.txt\nreport = out.txt\n", "out.txt"),
        ("csv = a.csv\nreport = ./a.csv\n", "a.csv"),
        ("csv = snap_0000.cryf\n", "snap_0000.cryf"),
    ], ids=["csv_report", "normalized", "csv_snapshot"])
    def test_outputs_sharing_a_path_rejected(self, tmp_path, capsys, monkeypatch, output, clash):
        geometries = count_geometries(monkeypatch)
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nsnapshot_every = 1\n\n"
                        "[output]\n" + output)
        out = tmp_path / "out"
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: two run-flow outputs are the same file ")
        assert err.rstrip("\n").endswith(clash)
        assert geometries == [] and list(out.iterdir()) == []

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

    def test_csv_header_is_the_output_contract(self):
        # the header is read from the record's fields, so a renamed field shows here
        assert CSV_HEADER == "t,E,vol,intR,intR2,var,dEdt_formula,min_u,min_R,max_R,dt"

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
            return -2.0 * conformal_sub_laplacian(state, r) + r * r

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


# 8^3 inputs that once ended in a false verdict, a false PASS or a traceback:
# each must exit 2
@pytest.mark.parametrize("command, preset, extra, message", [
    ("soliton-check", "constant", "[soliton]\nvar_tol = nan\n",
     "[soliton]: var_tol must be positive and finite, got nan"),
    ("soliton-check", "constant", "[soliton]\nflow_tol = nan\n",
     "[soliton]: flow_tol must be positive and finite, got nan"),
    ("check-identities", "single_mode_y", "[analysis]\nmax_volume_rate = nan\n",
     "[analysis]: max_volume_rate must be non-negative and finite, got nan"),
    ("run-flow", "constant", "c = 1e100\n", "a curvature moment leaves the float64 range"),
    ("check-identities", "single_mode_y", "c = 1e70\n", "dE/dt leaves the float64 range"),
    ("soliton-check", "constant", "c = 1e70\n[soliton]\nsweep = false\n",
     "dE/dt leaves the float64 range"),
    ("run-flow", "constant", "c = 1e-70\n[flow]\nu_floor = 1e-300\n",
     "dE/dt leaves the float64 range: float division by zero"),
    ("run-flow", "constant", "[flow]\nt_end = inf\n", "[flow]: t_end must be finite, got inf"),
    ("run-flow", "random_smooth", "seed = -1\n", "random_smooth needs seed >= 0, got -1"),
    ("run-flow", "constant", "c = inf\n", "constant preset needs finite c > 0, got inf"),
    ("check-identities", "single_mode_x", "c = 1.5e308\nepsilon = 1e308\n",
     "mode preset needs c - |epsilon| > 0 and c + |epsilon| finite"),
], ids=["var_tol_nan", "flow_tol_nan", "max_volume_rate_nan", "c_1e100", "c_1e70",
        "soliton_c_1e70", "volume_underflows", "t_end_inf",
        "seed_negative", "c_inf", "mode_overflows"])
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


@pytest.mark.parametrize("command", ["check-identities", "convergence-study"])
def test_probe_overflow_exit_2_without_traceback(tmp_path, capsys, command):
    # a probe step of delta / 8 = 1.25e306 overflows its first stage
    cfg = write_cfg(tmp_path, body=PROBE_FAILURE_CFG.replace("delta = 1e-3", "delta = 1e307"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("identity probe failed: stage value overflowed: ")
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

    def test_one_geometry_per_grid(self, tmp_path, monkeypatch):
        geometries = count_geometries(monkeypatch)
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[analysis]\ngrids = 4,8\n"
        cfg = write_cfg(tmp_path, body=body)
        assert main(["convergence-study", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert [spec.nx for spec in geometries] == [4, 8]

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

    def test_configured_family_builds_one_geometry(self, tmp_path, monkeypatch):
        geometries = count_geometries(monkeypatch)
        cfg = write_cfg(tmp_path, body=SOLITON_FAMILY_CFG.format(
            sigma_slope=0.5, psi_rate=1.0, times="0.0,0.5"))
        assert main(["soliton-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(geometries) == 1

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

    @pytest.mark.parametrize("sample, message", [
        ("times =\n", "times must list at least one value"),
        ("sweep_base_constants =\ninclude_negative_controls = false\n",
         "sweep_base_constants must list at least one value"),
        ("sweep_psi_rates =\n", "sweep_psi_rates must list at least one value"),
    ], ids=["times", "sweep_base_constants", "sweep_psi_rates"])
    def test_empty_sample_exit_2_without_traceback(self, tmp_path, capsys, sample, message):
        # an empty sample would report PASS with no family checked at any time
        body = BASE_CFG.format(preset="constant", extra="").replace("= 16", "= 8") + \
            "\n[soliton]\n" + sample
        cfg = write_cfg(tmp_path, body=body)
        assert main(["soliton-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: [soliton]: {message}\n"


@pytest.mark.parametrize("command", [
    "run-flow", "check-identities", "convergence-study", "soliton-check"])
def test_out_of_memory_exit_2_without_traceback(tmp_path, capsys, monkeypatch, command):
    # stands in for a grid too large to allocate, without allocating it
    def no_memory(spec):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cryf.cli, "build_nilmanifold", no_memory)
    cfg = write_cfg(tmp_path)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "out of memory: Unable to allocate 8.00 TiB for an array\n"


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


def exit_code_without_traceback(command, body):
    """Run one command on a config text in a temporary directory; return its exit code."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(pathlib.Path(tmp), body=body)
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", cfg, "--out", f"{tmp}/o"])
    assert "Traceback" not in err.getvalue()
    return rc


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
    assert exit_code_without_traceback("soliton-check", body) in (0, 1, 2)


def _section(name, values):
    return f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                   for key, value in values.items() if value is not None)


def _key(*values, free=None):
    """A drawn config value, or None to leave the key at its default."""
    return st.one_of(st.none(), st.sampled_from(values), *([free] if free is not None else []))


_NAN, _INF = float("nan"), float("inf")
# mostly valid flow settings, so that most draws reach the commands; t_end is
# always short and dt_min and safety mild, so that no drawn run takes long
_FLOW_VALUES = st.fixed_dictionaries({
    "t_end": st.sampled_from([2e-5, 1e-6, 0.0, -1e-5]),
    "dt_init": _key(1e-6, 1e-5),
    "dt_min": _key(1e-12, 1e-6),
    "dt_max": _key(1e-2, 1e-5, 1e300),
    "safety": _key(0.9, 1.0, 0.5),
    "err_tol": _key(1e-8, 1e-14, 1e300),
    "u_floor": _key(1e-6, 0.5, 0.99, 1e300, 1e-300),
    "record_every": _key(1, 3),
    "snapshot_every": _key(0, 2),
})
# initial data and delta are also drawn freely (inf and nan included):
# overflow, underflow and the positivity floor are reached from here
_INITIAL_VALUES = st.fixed_dictionaries({
    "preset": st.sampled_from(["single_mode_y", "single_mode_x", "random_smooth", "constant"]),
    "c": _key(1.0, 1.5, 1e-200, 1e100, 1e-70, free=st.floats()),
    "epsilon": _key(0.1, 0.9, free=st.floats()),
    "seed": _key(0, 1, 2**64, -1, free=st.integers(-2**64, 2**70)),
    "amplitude": _key(0.2, 0.9, 0.999, free=st.floats()),
    "smoothing_passes": _key(0, 1, 3),
})
_ANALYSIS_VALUES = st.fixed_dictionaries({
    "delta": _key(1e-4, 1e-3, 1e-2, free=st.floats()),
    "max_volume_rate": _key(0.0, 1e-3, _NAN),
    "max_curvature_evolution": _key(0.0, 1e-3, _INF),
    "min_order_untwisted": _key(1.8, 0.1),
    "min_order_twisted": _key(0.9, 1e300),
})


@pytest.mark.parametrize("command, examples", [
    ("run-flow", 30), ("check-identities", 15), ("convergence-study", 10)])
def test_fuzz_ends_on_an_exit_code(command, examples):
    @given(initial=_INITIAL_VALUES, flow=_FLOW_VALUES, analysis=_ANALYSIS_VALUES)
    @settings(max_examples=examples, deadline=None)
    def run(initial, flow, analysis):
        body = ("[geometry]\nN_x = 8\nN_y = 8\nN_z = 8\n" + _section("initial_data", initial)
                + _section("flow", flow) + _section("analysis", analysis) + "grids = 8,16\n")
        assert exit_code_without_traceback(command, body) in (0, 1, 2)

    run()
