import argparse
import contextlib
import ctypes
import gc
import io
import os
import pathlib
import platform
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryf.analysis
import cryf.cli
import cryf.conformal
import cryf.errors
import cryf.flow
import cryf.soliton
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


def main_without_a_command():
    # an unknown command ends the parse, so whatever came before it has run
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        main(["no-such-command"])


class TestAllocatorPolicy:
    """`main` sets glibc's trim and mmap thresholds through mallopt first of all,
    once per process."""

    POLICY = [(-1, 512 << 20), (-3, 32 << 20)]

    @pytest.fixture(autouse=True)
    def policy_not_yet_set(self):
        # each test starts as a fresh process would, and leaves the next one
        # to set the policy with the real C library
        cryf.cli._keep_freed_memory.cache_clear()
        yield
        cryf.cli._keep_freed_memory.cache_clear()

    def test_set_once_per_process_before_the_arguments_are_parsed(self, monkeypatch):
        calls, handles = [], []

        class Library:
            def __init__(self, name):
                handles.append(name)

            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cryf.cli.ctypes, "CDLL", Library)
        for _ in range(3):
            main_without_a_command()
        assert calls == self.POLICY and handles == [None]

    def test_repeated_calls_make_no_library_handle(self):
        # a C library handle made on every call left about 3.4 KB of cyclic
        # garbage each time; with the collector off, none of it would be freed
        main_without_a_command()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(5):
                main_without_a_command()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
            gc.enable()
        made = snapshot.filter_traces([tracemalloc.Filter(True, ctypes.__file__)])
        assert sum(stat.size for stat in made.statistics("filename")) == 0

    @pytest.mark.parametrize("library", ["missing", "no_mallopt", "no_null_handle"])
    def test_without_glibc_the_run_is_unchanged(self, tmp_path, monkeypatch, library):
        def cdll(name):
            if library == "missing":
                raise OSError("no C library")
            if library == "no_null_handle":
                # where CDLL needs a library name, CDLL(None) raises TypeError
                raise TypeError("expected str, bytes or os.PathLike object, not NoneType")
            return object()

        monkeypatch.setattr(cryf.cli.ctypes, "CDLL", cdll)
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 1e-4\n")
        assert main(["run-flow", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_accepts_both_settings(self, monkeypatch):
        real, returned = cryf.cli.ctypes.CDLL, []

        class Library:
            def __init__(self, name):
                self.lib = real(name)

            def mallopt(self, param, value):
                returned.append(self.lib.mallopt(param, value))
                return returned[-1]

        monkeypatch.setattr(cryf.cli.ctypes, "CDLL", Library)
        main_without_a_command()
        assert returned == [1, 1]


class TestParser:
    def test_one_parser_without_sub_parsers(self):
        parser = cryf.cli.build_parser()
        assert cryf.cli.build_parser() is parser and parser._subparsers is None
        command = next(action for action in parser._actions if action.dest == "command")
        assert list(command.choices) == [
            "run-flow", "check-identities", "convergence-study", "soliton-check"]

    def test_options_after_or_before_the_command(self, tmp_path):
        # one parser reads the three options wherever they stand
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\n")
        assert main(["--config", cfg, "run-flow", "--out", str(tmp_path / "a")]) == 0
        assert main(["run-flow", "--out", str(tmp_path / "a"), "--config", cfg,
                     "--overwrite"]) == 0

    def test_repeated_calls_leave_no_growing_argparse_garbage(self, tmp_path):
        # a parser is a reference cycle: a parser built on every call left
        # about 26 KB in argparse.py per call with the collector off
        argv = ["run-flow", "--config", str(tmp_path / "missing.cfg"),
                "--out", str(tmp_path / "o")]

        def traced_after_five_calls():
            for _ in range(5):
                assert main(argv) == 2
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, argparse.__file__)])
            return sum(stat.size for stat in snapshot.statistics("filename"))

        with contextlib.redirect_stderr(io.StringIO()):
            main(argv)
            gc.disable()
            tracemalloc.start()
            try:
                first, second = traced_after_five_calls(), traced_after_five_calls()
            finally:
                tracemalloc.stop()
                gc.enable()
        assert second - first < 5 * 1024


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

    def test_initial_state_freed_after_the_first_step(self, tmp_path, monkeypatch):
        # the command keeps no reference to the initial state, so with no
        # snapshots the flow frees it once its first step is accepted
        made, alive = [], []
        real_make, real_step = cryf.cli.make_initial_state, cryf.flow.step_adaptive

        def tracking(*args, **kwargs):
            state = real_make(*args, **kwargs)
            made.append(weakref.ref(state))
            return state

        def watching(*args):
            alive.append(made[0]() is not None)
            return real_step(*args)

        monkeypatch.setattr(cryf.cli, "make_initial_state", tracking)
        monkeypatch.setattr(cryf.flow, "step_adaptive", watching)
        cfg = write_cfg(tmp_path, "single_mode_y", "epsilon = 0.2\n")
        assert main(["run-flow", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(alive) >= 3 and alive == [True] + [False] * (len(alive) - 1)

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

    @pytest.mark.parametrize("output, message", [
        ("csv = out.txt\nreport = out.txt\n",
         "two run-flow outputs are the same file {out}/out.txt"),
        # an output name is a file name, so `./a.csv` is no other spelling of `a.csv`
        ("csv = a.csv\nreport = ./a.csv\n",
         "[output]: report must be a file name in --out, got './a.csv'"),
        ("csv = snap_0000.cryf\n", "two run-flow outputs are the same file {out}/snap_0000.cryf"),
    ], ids=["csv_report", "normalized", "csv_snapshot"])
    def test_outputs_sharing_a_path_rejected(self, tmp_path, capsys, monkeypatch, output,
                                             message):
        geometries = count_geometries(monkeypatch)
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nsnapshot_every = 1\n\n"
                        "[output]\n" + output)
        out = tmp_path / "out"
        assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"configuration error: {message.format(out=out)}\n"
        assert geometries == [] and not out.exists()

    @pytest.mark.parametrize("flow, output, overwrite, message", [
        ("snapshot_every = 1\n", "snapshot_prefix = nodir/snap\n", False,
         "snapshot_prefix must be a file name in --out, got 'nodir/snap'"),
        ("", "report = nodir/report.txt\n", False,
         "report must be a file name in --out, got 'nodir/report.txt'"),
        ("", "report = .\n", True, "report must be a file name in --out, got '.'"),
    ], ids=["snapshot_dir_missing", "report_dir_missing", "report_is_the_out_dir"])
    def test_unwritable_output_stops_before_any_write(self, tmp_path, capsys, flow, output,
                                                      overwrite, message):
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 1e-3\n" + flow
                        + "\n[output]\n" + output)
        out = tmp_path / "out"
        argv = ["run-flow", "--config", cfg, "--out", str(out)] + ["--overwrite"] * overwrite
        assert main(argv) == 2
        assert capsys.readouterr().err == f"configuration error: [output]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("here", [False, True], ids=["out", "out_is_cwd"])
    def test_stray_snapshot_stops_before_any_geometry(self, tmp_path, capsys, monkeypatch,
                                                      here):
        # a snapshot index the run may never reach is checked before the run all the same
        geometries = count_geometries(monkeypatch)
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 1e-3\nsnapshot_every = 1\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "snap_0007.cryf").write_text("kept")
        if here:
            monkeypatch.chdir(out)
        assert main(["run-flow", "--config", cfg, "--out", os.curdir if here else str(out)]) == 2
        shown = os.path.join(os.curdir if here else str(out), "snap_0007.cryf")
        assert capsys.readouterr().err == \
            f"configuration error: output file {shown} exists; pass --overwrite to replace it\n"
        assert geometries == [] and (out / "snap_0007.cryf").read_text() == "kept"
        assert sorted(p.name for p in out.iterdir()) == ["snap_0007.cryf"]

    def test_paths_checked_once_before_the_run(self, tmp_path, monkeypatch):
        events = []
        check, build = cryf.cli._run_flow_paths, cryf.cli.build_nilmanifold
        monkeypatch.setattr(cryf.cli, "_run_flow_paths",
                            lambda *args: events.append("paths") or check(*args))
        monkeypatch.setattr(cryf.cli, "build_nilmanifold",
                            lambda spec: events.append("geometry") or build(spec))
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 1e-3\nsnapshot_every = 1\n")
        assert main(["run-flow", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert events == ["paths", "geometry"]

    @pytest.mark.parametrize("every", [5, 0])
    def test_overwrite_removes_the_snapshots_the_report_does_not_count(self, tmp_path, every):
        body = (OUTPUT_8_CFG.replace("constant", "random_smooth")
                + "[flow]\nt_end = 2e-3\nsnapshot_every = {every}\n")
        out = tmp_path / "out"
        argv = ["run-flow", "--out", str(out), "--overwrite", "--config"]
        assert main(argv + [write_cfg(tmp_path, body=body.format(every=1))]) == 0
        first = sorted(p.name for p in out.glob("snap_*.cryf"))
        # names outside the run's own snapshot pattern are never touched
        others = ["other_0003.cryf", "snap_0003.txt", "snap_003.cryf", "snap_00003.cryf"]
        for name in others:
            (out / name).write_text("kept")
        # a run that fails during the computation deletes nothing
        failing = body.format(every=5) + "u_floor = 1\n"
        assert main(argv + [write_cfg(tmp_path, body=failing, name="floor.cfg")]) == 2
        assert sorted(p.name for p in out.glob("snap_*.cryf")) == sorted(first + others[2:])
        assert main(argv + [write_cfg(tmp_path, body=body.format(every=every))]) == 0
        counted = int((out / "report.txt").read_text().split("snapshots: ")[1].split()[0])
        assert 0 <= counted < len(first) - 1
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["flow.csv", "report.txt"] + first[:counted] + others)
        assert all((out / name).read_text() == "kept" for name in others)

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


    def test_invariance_rows_peak_memory(self, tmp_path, monkeypatch):
        # Traced at 32^3 with the window made beforehand, an invariance row
        # peaks at four fields inside the curvature moments: the moved state,
        # R, dV and one work field.  Then dV is dropped and |R - expected R|
        # is formed in R's own array, so the rest of the row holds fewer.
        cfg = cryf.cli.load_config(write_cfg(tmp_path, body=BASE_CFG.replace(
            "16", "32").format(preset="single_mode_y", extra="epsilon = 0.1\n")))
        state = cryf.cli.make_initial_state(cryf.cli.build_nilmanifold(cfg.geometry),
                                            **vars(cfg.initial))
        window = cryf.flow.probe_window(state, cfg.analysis.delta)
        res = cryf.analysis.identity_residuals(window)
        monkeypatch.setattr(cryf.flow, "probe_window", lambda *args: window)
        monkeypatch.setattr(cryf.analysis, "identity_residuals", lambda *args: res)
        cryf.cli._identity_rows(cfg, state)  # warm-up
        tracemalloc.start()
        try:
            rows = cryf.cli._identity_rows(cfg, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [name for name, _, _ in rows[4:]] == ["scaling_invariance",
                                                     "pullback_invariance"]
        assert peak <= 4.2 * state.u.nbytes

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

    def test_one_record_per_state(self, tmp_path, monkeypatch):
        # the two probes, then the centre, whose record gives E at t, and the
        # scaled and pulled-back states
        calls = []
        real = cryf.analysis.curvature_moments

        def counting(state, *args, **kwargs):
            calls.append(state.t)
            return real(state, *args, **kwargs)

        # the probe window calls it through flow's binding, the invariance rows through analysis
        monkeypatch.setattr(cryf.analysis, "curvature_moments", counting)
        monkeypatch.setattr(cryf.flow, "curvature_moments", counting)
        cfg = write_cfg(tmp_path, "single_mode_y", "epsilon = 0.1\n")
        assert main(["check-identities", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == [-1e-4, 1e-4, 0.0, 0.0, 0.0]

    def test_bad_delta_exit_2(self, tmp_path, capsys):
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[analysis]\ndelta = 0\n"
        cfg = write_cfg(tmp_path, body=body)
        rc = main(["check-identities", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "delta must be positive" in capsys.readouterr().err


# 8^3 inputs that once ended in a false verdict, a false PASS or a traceback:
# each must exit 2
OUT_OF_RANGE_8 = [
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
    ("run-flow", "constant", "[flow]\nt_end = inf\n",
     "[flow]: t_end must be non-negative and finite, got inf"),
    ("run-flow", "random_smooth", "seed = -1\n", "random_smooth needs seed >= 0, got -1"),
    ("run-flow", "constant", "c = inf\n", "constant preset needs finite c > 0, got inf"),
    ("check-identities", "single_mode_x", "c = 1.5e308\nepsilon = 1e308\n",
     "mode preset needs c - |epsilon| > 0 and c + |epsilon| finite"),
]
# a field of this grid would have more bytes than numpy can index
GRID_BEYOND_INTP = (10**20, 4, 4)


@pytest.mark.parametrize("command, preset, extra, message, grid", [
    *((*row, (8, 8, 8)) for row in OUT_OF_RANGE_8),
    *((command, "constant", "", "grid 100000000000000000000x4x4 is too large", GRID_BEYOND_INTP)
      for command in ("run-flow", "check-identities", "soliton-check")),
], ids=["var_tol_nan", "flow_tol_nan", "max_volume_rate_nan", "c_1e100", "c_1e70",
        "soliton_c_1e70", "volume_underflows", "t_end_inf",
        "seed_negative", "c_inf", "mode_overflows", "run_flow_grid_beyond_intp",
        "check_identities_grid_beyond_intp", "soliton_check_grid_beyond_intp"])
def test_out_of_range_input_exit_2_without_traceback(tmp_path, capsys, command, preset,
                                                     extra, message, grid):
    nx, ny, nz = grid
    cfg = write_cfg(tmp_path, body=f"[geometry]\nN_x = {nx}\nN_y = {ny}\nN_z = {nz}\n"
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
    assert not (tmp_path / "o").exists()


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

    def test_manufactured_phase_memory(self, tmp_path, monkeypatch):
        # traced memory in fields of the largest grid (16^3) from the command's
        # start to its first identity probe: the two geometries' slab scratch
        # and the first initial state (4.18 at the probe), and while a case
        # runs its own field and temporaries (the peak reads 7.09); no case's
        # fields outlast its row.  numpy's ufunc buffers are cut to 1024
        # elements, so that they count for 0.25 of a 16^3 field, not 2
        class FirstProbe(Exception):
            pass

        def first_probe(*args):
            raise FirstProbe(tracemalloc.get_traced_memory())

        monkeypatch.setattr(cryf.flow, "probe_window", first_probe)
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[analysis]\ngrids = 8,16\n"
        argv = ["convergence-study", "--config", write_cfg(tmp_path, body=body),
                "--out", str(tmp_path / "out")]
        with pytest.raises(FirstProbe):
            main(argv)  # imports what the command imports on its first run
        bufsize = np.setbufsize(1024)
        tracemalloc.start()
        try:
            with pytest.raises(FirstProbe) as probe:
                main(argv)
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        kept, peak = (m / (8 * 16**3) for m in probe.value.args[0])
        assert kept <= 4.4 and peak <= 7.3

    def test_one_geometry_per_grid(self, tmp_path, monkeypatch):
        geometries = count_geometries(monkeypatch)
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[analysis]\ngrids = 4,8\n"
        cfg = write_cfg(tmp_path, body=body)
        assert main(["convergence-study", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert [spec.nx for spec in geometries] == [4, 8]

    def test_initial_data_rule_exit_2_before_the_first_case(self, tmp_path, capsys,
                                                          monkeypatch):
        cases = []
        monkeypatch.setattr(cryf.cli, "_laplacian_error", lambda *args: cases.append(args))
        body = BASE_CFG.format(preset="random_smooth", extra="amplitude = 5\nseed = -3\n") + \
            "\n[analysis]\ngrids = 8,16\n"
        cfg = write_cfg(tmp_path, body=body)
        assert main(["convergence-study", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("configuration error: [initial_data]: random_smooth "
                                           "needs amplitude in (0, 1), got 5.0\n")
        assert cases == []

    def test_orders_of_zero_errors(self):
        # an error that grows from exactly 0 fails every minimum order
        inf = float("inf")
        assert cryf.cli._orders([0.0, 0.0]) == [inf]
        assert cryf.cli._orders([1e-3, 0.0]) == [inf]
        assert cryf.cli._orders([0.0, 1e-3]) == [-inf]
        assert cryf.cli._orders([4e-3, 1e-3, 0.0, 0.0]) == [2.0, inf, inf]

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

    def test_theorem_violation_exit_1(self, tmp_path, capsys, monkeypatch):
        # no input reaches the verdict, so the fifth family's stands in for one
        verdicts = []
        real = cryf.soliton.soliton_theorem_harness

        def violating(*args):
            verdicts.append(real(*args))
            return cryf.soliton.Verdict.THEOREM_VIOLATION if len(verdicts) == 5 \
                else verdicts[-1]

        monkeypatch.setattr(cryf.soliton, "soliton_theorem_harness", violating)
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG)
        out = tmp_path / "out"
        assert main(["soliton-check", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "soliton-check: 1 THEOREM VIOLATION verdict(s)\n"
        lines = (out / "verdicts.txt").read_text().splitlines()
        assert [line.split(" verdict=")[1].split(" e_deviation=")[0] for line in lines[:11]] \
            == ['"constant curvature"'] * 4 + ['"THEOREM VIOLATION"'] \
            + ['"constant curvature"'] * 4 + ['"not a flow solution"'] * 2
        assert lines[11:] == ["families: 11", "theorem_violations: 1", "status: FAIL"]

    def test_default_sweep_holds_two_base_fields_at_once(self, tmp_path, monkeypatch):
        # a base is built when its family is reached; the last family's base
        # lives on while the next is built, and no other does
        bases, most = [], []
        real = cryf.cli.make_initial_state

        def tracking(*args, **kwargs):
            state = real(*args, **kwargs)
            bases.append(weakref.ref(state.u))
            most.append(sum(ref() is not None for ref in bases))
            return state

        monkeypatch.setattr(cryf.cli, "make_initial_state", tracking)
        out = tmp_path / "out"
        assert main(["soliton-check", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
        assert "families: 11" in (out / "verdicts.txt").read_text()
        assert len(bases) == 5 and max(most) <= 2

    def test_nonpositive_sweep_constant_exit_2_before_any_geometry(self, tmp_path, capsys,
                                                                   monkeypatch):
        # the off-lattice rate 0.3 would fault too, but only once its family is scanned
        geometries = count_geometries(monkeypatch)
        cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[soliton]\n"
                        "sweep_base_constants = 1.0,-1.0\nsweep_psi_rates = 0.0,0.3\n")
        assert main(["soliton-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("configuration error: [soliton]: sweep_base_constants "
                                           "must be positive, got (1.0, -1.0)\n")
        assert geometries == [] and not (tmp_path / "o").exists()

    def test_initial_data_rule_exit_2_before_any_geometry(self, tmp_path, capsys, monkeypatch):
        # the default sweep never builds the configured field, but the config is checked whole
        geometries = count_geometries(monkeypatch)
        cfg = write_cfg(tmp_path, preset="random_smooth", extra="amplitude = 5\n")
        assert main(["soliton-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("configuration error: [initial_data]: random_smooth "
                                           "needs amplitude in (0, 1), got 5.0\n")
        assert geometries == [] and not (tmp_path / "o").exists()

    def test_configured_family_mode(self, tmp_path):
        body = BASE_CFG.format(preset="single_mode_y", extra="epsilon = 0.1\n") + \
            "\n[soliton]\nsweep = false\npsi_rate = 0.0\n"
        cfg = write_cfg(tmp_path, body=body)
        out = tmp_path / "out"
        assert main(["soliton-check", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "verdicts.txt").read_text().splitlines()
        # the configured family, then the two controls
        assert lines[0].startswith('family=single_mode_y sigma=1+0*t psi_rate=0 '
                                   'verdict="not a flow solution"')
        assert [line.split()[0] for line in lines[1:3]] == [
            "family=control:single_mode_y(eps=0.1)", "family=control:constant(c=1)"]
        assert "families: 3" in lines

    def test_configured_family_builds_one_geometry(self, tmp_path, monkeypatch):
        geometries = count_geometries(monkeypatch)
        cfg = write_cfg(tmp_path, body=SOLITON_FAMILY_CFG.format(
            sigma_slope=0.5, psi_rate=1.0, times="0.0,0.5"))
        assert main(["soliton-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(geometries) == 1

    def test_misaligned_family_is_config_error(self, tmp_path, capsys):
        # the configured family comes before the controls, and faults first
        body = BASE_CFG.format(preset="constant", extra="") + \
            "\n[soliton]\nsweep = false\npsi_rate = 0.3\n"
        cfg = write_cfg(tmp_path, body=body)
        assert main(["soliton-check", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: central shift 1.2 at t=0.25 is not grid-aligned "
            "(psi_rate * t * N_z must be an integer)\n")

    def test_nonpositive_sigma_exit_2_without_traceback(self, tmp_path, capsys):
        # sigma(t) = 1 - 2t vanishes at the sampled time 0.5
        cfg = write_cfg(tmp_path, body=SOLITON_FAMILY_CFG.format(
            sigma_slope=-2.0, psi_rate=0.0, times="0.0,0.25,0.5,0.75,1.0"))
        assert main(["soliton-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: sigma(0.5) = 0.0 is not positive\n"

    @pytest.mark.parametrize("sample, message", [
        ("times =\n", "times must list at least one value"),
        ("sweep_base_constants =\n", "sweep_base_constants must list at least one value"),
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


@pytest.mark.parametrize("error", ["FloatRangeError", "PositivityError",
                                   "ShiftAlignmentError", "SnapshotFormatError"])
def test_input_error_exit_2_without_traceback(tmp_path, capsys, monkeypatch, error):
    # main catches ConfigurationError alone; each input error is one
    cls = getattr(cryf.errors, error)
    assert issubclass(cls, cryf.errors.ConfigurationError)

    def raising(spec):
        raise cls(f"{error} stands in for a fault of the input")

    monkeypatch.setattr(cryf.cli, "build_nilmanifold", raising)
    assert main(["run-flow", "--config", write_cfg(tmp_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {error} stands in for a fault of the input\n")
    assert not (tmp_path / "o").exists()


# 8 * 1.6e17 bytes per field is within numpy's index range, but no allocator
# grants the grid's first array (its 8e16-byte x coordinates)
HUGE_GRID_CFG = ("[geometry]\nN_x = 10000000000000000\nN_y = 4\nN_z = 4\n"
                 "[initial_data]\npreset = constant\n")


@pytest.mark.parametrize("command", ["run-flow", "check-identities", "soliton-check"])
def test_huge_addressable_grid_out_of_memory(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, body=HUGE_GRID_CFG)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_exit_2_removes_the_out_ancestors_it_made(tmp_path):
    cfg = write_cfg(tmp_path, body=HUGE_GRID_CFG)
    assert main(["run-flow", "--config", cfg, "--out", str(tmp_path / "a" / "b" / "c")]) == 2
    assert not (tmp_path / "a").exists()


def test_exit_2_keeps_an_existing_out_ancestor(tmp_path):
    (tmp_path / "a").mkdir()
    cfg = write_cfg(tmp_path, body=HUGE_GRID_CFG)
    assert main(["run-flow", "--config", cfg, "--out", str(tmp_path / "a" / "b" / "c")]) == 2
    assert (tmp_path / "a").is_dir() and not (tmp_path / "a" / "b").exists()


def test_exit_2_keeps_an_existing_out_directory(tmp_path):
    (tmp_path / "o").mkdir()
    cfg = write_cfg(tmp_path, body=PROBE_FAILURE_CFG)
    assert main(["check-identities", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert (tmp_path / "o").is_dir()


# exits 2 during the computation: a probe step of delta / 8 = 1.25e299 that
# leaves the positive cone, a sigma(t) = 1 - 2t that vanishes at the sampled
# time 0.5, and a grid that no allocator grants
COMPUTE_EXIT_2 = [
    ("check-identities", PROBE_FAILURE_CFG.replace("delta = 1e-3", "delta = 1e300")),
    ("soliton-check", OUTPUT_8_CFG + "[soliton]\nsweep = false\nsigma_slope = -2\n"
                                     "times = 0.0,0.5\n"),
    ("run-flow", HUGE_GRID_CFG),
]


@pytest.mark.parametrize("command, body", COMPUTE_EXIT_2,
                         ids=["probe_fails", "sigma_zero", "huge_grid"])
def test_exit_2_during_the_computation_makes_no_directory(tmp_path, monkeypatch, command, body):
    made = []
    for name in ("makedirs", "mkdir"):
        real = getattr(os, name)
        monkeypatch.setattr(os, name, lambda *args, real=real, **kw: made.append(args)
                            or real(*args, **kw))
    cfg = write_cfg(tmp_path, body=body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "a" / "b" / "c")]) == 2
    assert made == [] and [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("under", ["", "sub", "sub/deeper"], ids=["file", "under_file",
                                                                  "two_under_file"])
def test_out_not_a_directory_exit_2_before_any_geometry(tmp_path, capsys, monkeypatch, under):
    geometries = count_geometries(monkeypatch)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / under
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG)
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: --out {out}: {blocker} is not a writable directory\n"
    assert geometries == [] and blocker.read_text() == "kept"


@pytest.mark.parametrize("command", [
    "run-flow", "check-identities", "convergence-study", "soliton-check"])
def test_every_command_checks_out_before_any_geometry(tmp_path, capsys, monkeypatch, command):
    # main does not check --out: each command checks it with its first output
    # name, and makes no geometry on a bad --out
    geometries = count_geometries(monkeypatch)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "sub"
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: --out {out}: {blocker} is not a writable directory\n"
    assert geometries == [] and blocker.read_text() == "kept"


def test_out_under_an_unwritable_directory_exit_2_before_any_geometry(tmp_path, capsys,
                                                                      monkeypatch):
    geometries = count_geometries(monkeypatch)
    access = os.access
    # stands in for a directory without write permission, which root could write anyway
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(tmp_path)
                        and access(path, mode))
    out = tmp_path / "a" / "b"
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG)
    assert main(["check-identities", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: --out {out}: {tmp_path} is not a writable directory\n"
    assert geometries == [] and not (tmp_path / "a").exists()


def test_nested_missing_out_made_on_success(tmp_path):
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\n")
    out = tmp_path / "a" / "b" / "c"
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["flow.csv", "report.txt"]


def test_output_names_read_lexically(tmp_path, capsys):
    # `sub/..` would name --out itself, but an output name is a file name
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\nsnapshot_every = 1\n"
                    "\n[output]\nreport = sub/../report.txt\nsnapshot_prefix = ./sub/../snap\n")
    out = tmp_path / "out"
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("configuration error: [output]: report must be a file "
                                       "name in --out, got 'sub/../report.txt'\n")
    assert not out.exists()


@pytest.mark.parametrize("directory, overwrite", [(False, False), (True, True)],
                         ids=["file", "directory"])
def test_lexical_name_of_an_existing_output_exit_2_before_any_geometry(
        tmp_path, capsys, monkeypatch, directory, overwrite):
    # `sub/../report.txt` is no file name, whatever --out/report.txt is
    geometries = count_geometries(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    if directory:
        (out / "report.txt").mkdir()
    else:
        (out / "report.txt").write_text("kept")
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\n\n"
                    "[output]\nreport = sub/../report.txt\n")
    argv = ["run-flow", "--config", cfg, "--out", str(out)] + ["--overwrite"] * overwrite
    assert main(argv) == 2
    assert capsys.readouterr().err == ("configuration error: [output]: report must be a file "
                                       "name in --out, got 'sub/../report.txt'\n")
    assert geometries == [] and sorted(p.name for p in out.iterdir()) == ["report.txt"]
    assert directory or (out / "report.txt").read_text() == "kept"


# the command that writes each [output] key
OUTPUT_KEYS = {"csv": "run-flow", "report": "run-flow", "snapshot_prefix": "run-flow",
               "residuals": "check-identities", "orders": "convergence-study",
               "verdicts": "soliton-check"}


def tree(top):
    """Every path under top, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in top.rglob("*")}


# a NUL byte passes os.path's checks of --out, so without the config rule the
# run would write flow.csv and then fail at the report
@pytest.mark.parametrize("value", ["{tmp}/x", "../x", "sub/x", ".", "..", "", "a\0b.txt"],
                         ids=["absolute", "parent", "sub", "dot", "dotdot", "empty", "nul"])
@pytest.mark.parametrize("key", OUTPUT_KEYS)
def test_output_value_not_a_file_name_exit_2_before_any_geometry(tmp_path, capsys,
                                                                 monkeypatch, key, value):
    geometries = count_geometries(monkeypatch)
    value = value.format(tmp=tmp_path)
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + f"[output]\n{key} = {value}\n")
    before = tree(tmp_path)
    argv = [OUTPUT_KEYS[key], "--config", cfg, "--out", str(tmp_path / "out"), "--overwrite"]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"configuration error: [output]: {key} must be a file name in --out, got {value!r}\n"
    assert geometries == [] and tree(tmp_path) == before


def test_snapshot_prefix_outside_out_removes_nothing(tmp_path, capsys):
    # with --overwrite, a prefix in another directory would have its
    # snapshots there removed as stale once the report was written
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "snap_0003.cryf").write_text("kept")
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\n\n"
                    f"[output]\nsnapshot_prefix = {elsewhere}/snap\n")
    argv = ["run-flow", "--config", cfg, "--out", str(tmp_path / "out"), "--overwrite"]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("configuration error: [output]: snapshot_prefix must be "
                                       f"a file name in --out, got '{elsewhere}/snap'\n")
    assert [p.name for p in elsewhere.iterdir()] == ["snap_0003.cryf"]
    assert (elsewhere / "snap_0003.cryf").read_text() == "kept"
    assert not (tmp_path / "out").exists()


def test_dangling_link_output_needs_overwrite(tmp_path, capsys, monkeypatch):
    # the write would follow the link and make its target outside --out
    geometries = count_geometries(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.txt").symlink_to(tmp_path / "target.txt")
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\n")
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"configuration error: output file {out}/report.txt "
                                       "exists; pass --overwrite to replace it\n")
    assert geometries == [] and not (tmp_path / "target.txt").exists()
    assert sorted(p.name for p in out.iterdir()) == ["report.txt"]


@pytest.mark.parametrize("link", ["symlink_to", "hardlink_to"])
def test_overwrite_replaces_a_linked_output_with_a_file_in_out(tmp_path, link):
    # a write through the link would replace the file it shares outside --out
    out = tmp_path / "out"
    out.mkdir()
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"kept\n")
    names = ["flow.csv", "report.txt", "snap_0000.cryf"]
    for name in names:
        getattr(out / name, link)(outside)
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\nsnapshot_every = 1\n")
    assert main(["run-flow", "--config", cfg, "--out", str(out), "--overwrite"]) == 0
    assert outside.read_bytes() == b"kept\n"
    for name in names:
        path = out / name
        assert path.is_file() and not path.is_symlink() and path.stat().st_nlink == 1
    assert (out / "report.txt").read_text().startswith("command: run-flow\n")


E_ACUTE = "\u00e9"


def name_max(path):
    return os.pathconf(path, "PC_NAME_MAX")


# each name is a few bytes over the file system's limit; without the check,
# run-flow writes flow.csv and then fails at the report or the first snapshot,
# and the long --out component fails after the whole computation and leaves
# new/sub behind.  Two-byte characters count as two.
LONG_NAMES = {
    "report": lambda limit: ("[flow]\nt_end = 0\n\n[output]\n"
                             f"report = {'r' * (limit + 45)}.txt\n", "out"),
    "report_two_byte": lambda limit: ("[flow]\nt_end = 0\n\n[output]\n"
                                      f"report = {E_ACUTE * (limit // 2 + 1)}\n", "out"),
    "snapshot": lambda limit: ("[flow]\nt_end = 1e-5\nsnapshot_every = 1\n\n[output]\n"
                               f"snapshot_prefix = {'s' * (limit - 7)}\n", "out"),
    "out_component": lambda limit: ("[flow]\nt_end = 0\n", f"new/sub/{'d' * (limit + 45)}/x"),
}


@pytest.mark.parametrize("case", LONG_NAMES)
def test_name_over_the_limit_exit_2_before_any_geometry(tmp_path, capsys, monkeypatch, case):
    geometries = count_geometries(monkeypatch)
    limit = name_max(tmp_path)
    body, out = LONG_NAMES[case](limit)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes((OUTPUT_8_CFG + body).encode("utf-8"))
    assert main(["run-flow", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out ") and err.count("\n") == 1
    assert err.endswith(f" is longer than the {limit} bytes its file system allows\n")
    assert geometries == [] and [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_path_over_the_limit_exit_2_before_any_geometry(tmp_path, capsys, monkeypatch):
    # every component fits the name limit, the whole path does not; without
    # the check, the run fails at its first write and leaves the parents it made
    geometries = count_geometries(monkeypatch)
    limit = os.pathconf(tmp_path, "PC_PATH_MAX")
    out = tmp_path.joinpath("deep", *["p" * 250] * (limit // 250 + 2))
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\n")
    assert main(["run-flow", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: --out {out}: a path of ") and err.count("\n") == 1
    assert err.endswith(f" bytes is longer than the {limit - 1} bytes its file system allows\n")
    assert geometries == [] and [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_name_at_the_limit_written(tmp_path):
    name = "r" * name_max(tmp_path)
    cfg = write_cfg(tmp_path, body=OUTPUT_8_CFG + "[flow]\nt_end = 0\n\n"
                    f"[output]\nreport = {name}\n")
    assert main(["run-flow", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["flow.csv", name]


# an 8^3 constant run whose first comment holds the Latin-1 byte for e-acute
NON_UTF8_CFG = b"# caf\xe9\n" + OUTPUT_8_CFG.encode() + b"[flow]\nt_end = 0\n"


def test_non_utf8_config_exit_2_without_traceback(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(NON_UTF8_CFG)
    assert main(["run-flow", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: {cfg} is not UTF-8 text: byte 0xe9 at offset 5\n"


def test_byte_order_mark_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + NON_UTF8_CFG[7:])
    assert main(["run-flow", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    # an offset still counts the bytes from the start of the file, the mark included
    cfg.write_bytes(b"\xef\xbb\xbf" + NON_UTF8_CFG)
    assert main(["run-flow", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: {cfg} is not UTF-8 text: byte 0xe9 at offset 8\n"


def test_config_bytes_fuzz_ends_on_an_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    argv = ["run-flow", "--config", str(cfg), "--out", str(tmp_path / "o"), "--overwrite"]

    # arbitrary bytes, alone or after a valid 8^3 config that takes no flow step
    @given(prefix=st.sampled_from([b"", NON_UTF8_CFG[7:]]), tail=st.binary(max_size=40))
    @example(prefix=b"", tail=NON_UTF8_CFG)
    @settings(max_examples=10, deadline=None)
    def run(prefix, tail):
        cfg.write_bytes(prefix + tail)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    run()


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
# always short and dt_min mild, so that no drawn run takes long
_FLOW_VALUES = st.fixed_dictionaries({
    "t_end": st.sampled_from([2e-5, 1e-6, 0.0, -1e-5]),
    "dt_init": _key(1e-6, 1e-5),
    "dt_min": _key(1e-12, 1e-6),
    "dt_max": _key(1e-2, 1e-5, 1e300),
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
