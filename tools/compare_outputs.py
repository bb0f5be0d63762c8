"""Compare the CLI outputs of the working tree with those of an earlier revision.

Usage: python3 tools/compare_outputs.py BASE_REV

Exports `src/` at BASE_REV with `git archive` into a temporary directory,
then makes every run of `RUNS` (the five shipped configs, and inline
configs on 8^3 to 40x16x64 grids that reach each exit code and each kernel
path; each run's comment says what it covers) through `cryf.cli`, once with
that tree and once with the working tree's `src/`.
Both runs read the same configs, so only the code differs.  Every
output file, plus each command's exit code and stderr, is compared byte for
byte, and every directory the runs leave is compared by its presence; for
each file that differs a unified diff is printed, followed by the largest
relative difference over its numeric tokens and whether any non-numeric
token differs.  Exits 0 when all outputs are identical and 1 otherwise.
Standard library only.
"""

from __future__ import annotations

import difflib
import io
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

GRID_8 = """\
[geometry]
N_x = 8
N_y = 8
N_z = 8

"""
# twist N_z/N_y = 3: each x-wrap shears z by three cells per y row
GRID_TWISTED = """\
[geometry]
N_x = 8
N_y = 4
N_z = 12

"""
# twist 4, and more points than one slab of the divergence-form kernel holds:
# it runs in slabs of 32 and 8 x-planes
GRID_SLABS = """\
[geometry]
N_x = 40
N_y = 16
N_z = 64

"""
ROUGH_8 = GRID_8 + "[initial_data]\npreset = random_smooth\nseed = 1\nsmoothing_passes = 0\n"


class Run(NamedTuple):
    name: str
    command: str
    config: str  # the config text
    out: str | None = None  # --out, where it is not the run name


def shipped(name: str) -> str:
    return (ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8")


# every run, in the order made; a run's outputs go to a directory of its name
RUNS = (
    Run("flow_random_16", "run-flow", shipped("flow_random_16")),
    Run("flow_single_mode_16", "run-flow", shipped("flow_single_mode_16")),
    Run("identities_16", "check-identities", shipped("identities_16")),
    Run("convergence", "convergence-study", shipped("convergence")),
    Run("soliton_sweep", "soliton-check", shipped("soliton_sweep")),
    Run("constant_8", "run-flow", GRID_8 + "[initial_data]\npreset = constant\nc = 1.5\n"),
    # one scaled, Reeb-translated family besides the two negative controls
    Run("soliton_family_8", "soliton-check",
        GRID_8 + "[initial_data]\npreset = single_mode_y\nepsilon = 0.1\n\n"
        "[soliton]\nsweep = false\nsigma_slope = 0.5\npsi_rate = 2\n"),
    # exits 1: the identity bounds are calibrated on single_mode_y at 16^3
    Run("identities_random_8", "check-identities",
        GRID_8 + "[initial_data]\npreset = random_smooth\nseed = 1\n"),
    # exits 1: the sub-Laplacian's second order misses a minimum order of 3
    Run("convergence_fail_8", "convergence-study",
        GRID_8 + "[initial_data]\npreset = single_mode_y\nepsilon = 0.1\n\n"
        "[analysis]\ngrids = 8,16\nmin_order_untwisted = 3\n"),
    # writes 9 snapshot files, so the snapshot header and payload are compared too
    Run("snapshots_8", "run-flow",
        GRID_8 + "[initial_data]\npreset = random_smooth\nseed = 3\n\n"
        "[flow]\nt_end = 2e-3\nsnapshot_every = 3\nrecord_every = 2\n"),
    # 1/12 is no power of two, so a regrouping of the kernel's scaling shows here
    Run("flow_random_12", "run-flow",
        "[geometry]\nN_x = 12\nN_y = 12\nN_z = 12\n\n"
        "[initial_data]\npreset = random_smooth\nseed = 2\n\n[flow]\nt_end = 2e-3\n"),
    # stage values hit the floor five times, each halving the step; exits 1 on E increases
    Run("flow_positivity_retries_8", "run-flow",
        ROUGH_8 + "amplitude = 0.5\n\n[flow]\nerr_tol = 10\nt_end = 0.05\n"),
    # exits 1: error control pushes dt below dt_min
    Run("flow_step_underflow_8", "run-flow",
        ROUGH_8 + "amplitude = 0.9\n\n[flow]\nerr_tol = 1e-6\nu_floor = 0.1\n"
        "dt_init = 1e-5\ndt_min = 1e-5\nt_end = 0.5\n"),
    # exits 0 on the other early stop: the first step's stages hit the floor, and
    # halving dt = dt_min for a retry would take it below dt_min
    Run("flow_positivity_floor_8", "run-flow",
        ROUGH_8 + "amplitude = 0.5\n\n[flow]\nt_end = 1\ndt_init = 0.05\ndt_min = 0.05\n"
        "dt_max = 0.05\nerr_tol = 1e9\n"),
    # exits 2: the initial data lies at or below the floor
    Run("flow_input_at_floor_8", "run-flow",
        ROUGH_8 + "amplitude = 0.5\n\n[flow]\nu_floor = 0.51\n"),
    # the smoothing and every x difference cross the sheared wrap
    Run("flow_twisted", "run-flow",
        GRID_TWISTED + "[initial_data]\npreset = random_smooth\nseed = 5\n\n"
        "[flow]\nt_end = 2e-3\nrecord_every = 2\n"),
    Run("identities_twisted", "check-identities",
        GRID_TWISTED + "[initial_data]\npreset = single_mode_x\nepsilon = 0.1\n"),
    # the adaptive stepper on two slabs and the sheared wrap: two rejected attempts,
    # then 30 accepted steps, a record every second one
    Run("flow_slabs", "run-flow",
        GRID_SLABS + "[initial_data]\npreset = random_smooth\nseed = 8\n\n"
        "[flow]\nt_end = 1e-4\ndt_init = 1e-4\nrecord_every = 2\n"),
    # the varying-weight kernel path crosses every slab boundary and the sheared wrap
    # (delta 1e-4 leaves the positive cone on this stiffer grid)
    Run("identities_slabs", "check-identities",
        GRID_SLABS + "[initial_data]\npreset = random_smooth\nseed = 6\n\n"
        "[analysis]\ndelta = 1e-6\n"),
    # one scaled family whose Reeb shift (3 cells at t = 0.25) meets the sheared wrap
    Run("soliton_twisted", "soliton-check",
        GRID_TWISTED + "[initial_data]\npreset = random_smooth\nseed = 4\n\n"
        "[soliton]\nsweep = false\nsigma_slope = 0.5\npsi_rate = 1\ntimes = 0.0,0.25,0.5\n"),
    # a backward Reeb translation: its z shifts are negative, except the +1 cell
    # one residual step before t = 0, so the shift's slice copies wrap both ways
    Run("soliton_twisted_backward", "soliton-check",
        GRID_TWISTED + "[initial_data]\npreset = random_smooth\nseed = 7\n\n"
        "[soliton]\nsweep = false\nsigma_slope = 0.5\npsi_rate = -2\n"),
    # exits 2: sigma stays positive at every sampled time but not one residual step later
    Run("soliton_sigma_neighbour_8", "soliton-check",
        GRID_8 + "[initial_data]\npreset = single_mode_y\n\n"
        "[soliton]\nsweep = false\nsigma_slope = -1\ntimes = 0.0,0.99995\n"),
    # cell sizes 1/12 and 1/24 are no powers of two, so the kernel's scaling rounds
    # differently from the textbook grouping on every manufactured case and probe
    Run("convergence_12", "convergence-study",
        "[geometry]\nN_x = 12\nN_y = 12\nN_z = 12\n\n"
        "[initial_data]\npreset = single_mode_x\nepsilon = 0.1\n\n[analysis]\ngrids = 12,24\n"),
    # from here to sweep_bad_amplitude_8, exit 2 on the config alone, before any
    # field is built, so only the stderr wording is compared
    Run("no_preset_8", "run-flow", GRID_8 + "[initial_data]\nc = 1.5\n"),
    Run("no_geometry", "run-flow", "[initial_data]\npreset = constant\n"),
    Run("ny_not_dividing_nz", "run-flow",
        "[geometry]\nN_x = 8\nN_y = 8\nN_z = 12\n\n[initial_data]\npreset = constant\n"),
    Run("unknown_preset_8", "run-flow", GRID_8 + "[initial_data]\npreset = vortex\n"),
    Run("dt_min_above_dt_init_8", "run-flow",
        GRID_8 + "[initial_data]\npreset = constant\n\n[flow]\ndt_min = 1e-3\n"),
    Run("grids_decreasing", "convergence-study",
        GRID_8 + "[initial_data]\npreset = single_mode_y\n\n[analysis]\ngrids = 16,8\n"),
    # a 2^3 grid is below the smallest lattice; at revisions without the [analysis]
    # rule this exits 2 only when the convergence grids are built, naming N_x
    Run("grids_below_4", "convergence-study",
        GRID_8 + "[initial_data]\npreset = single_mode_y\n\n[analysis]\ngrids = 2,8\n"),
    # two faults, each of which exits 2; the [soliton] rule names the constant
    Run("sweep_two_faults_8", "soliton-check",
        GRID_8 + "[initial_data]\npreset = constant\n\n"
        "[soliton]\nsweep_base_constants = 1.0,-1.0\nsweep_psi_rates = 0.0,0.3\n"),
    # the default sweep never builds the configured field, but the [initial_data]
    # rules hold for every command
    Run("sweep_bad_amplitude_8", "soliton-check",
        GRID_8 + "[initial_data]\npreset = random_smooth\namplitude = 5\n"),
    # exits 2 during the computation: the probe step delta / 8 leaves the positive cone,
    # into a nested --out that does not exist yet
    Run("identities_probe_fails_8", "check-identities",
        GRID_8 + "[initial_data]\npreset = single_mode_y\n\n[analysis]\ndelta = 1e300\n",
        out="identities_probe_fails_8/nested/out"),
    # exit 2 during the computation with a subclass of ConfigurationError each:
    # FloatRangeError, as the first record's curvature moments overflow ...
    Run("flow_float_range_8", "run-flow",
        GRID_8 + "[initial_data]\npreset = constant\nc = 1e100\n"),
    # ... and ShiftAlignmentError, as the shift 0.3 * 0.25 * 8 = 0.6 is no lattice step
    Run("soliton_misaligned_8", "soliton-check",
        GRID_8 + "[initial_data]\npreset = constant\n\n"
        "[soliton]\nsweep = false\npsi_rate = 0.3\n"),
    # exits 2 on the config alone: an output name is a file name in --out; the
    # relative name keeps any file it might make inside the temporary directory
    Run("output_escapes_8", "run-flow",
        GRID_8 + "[initial_data]\npreset = constant\n\n[flow]\nt_end = 0\n\n"
        "[output]\nreport = ../escaped_report.txt\n"),
    # exit 2 before any field is built, on a file system whose names hold at most
    # 255 bytes: a 304-byte report name, and a 300-byte component of a missing --out
    # (revisions without the check write flow.csv, or leave new/sub behind)
    Run("report_name_too_long_8", "run-flow",
        GRID_8 + "[initial_data]\npreset = constant\n\n[flow]\nt_end = 0\n\n"
        "[output]\nreport = " + "r" * 300 + ".txt\n"),
    Run("out_component_too_long_8", "run-flow",
        GRID_8 + "[initial_data]\npreset = constant\n\n[flow]\nt_end = 0\n",
        out="out_component_too_long_8/new/sub/" + "d" * 300 + "/x"),
    # exits 2 before any field is built, on a file system whose paths hold at most
    # 4095 bytes: --out alone is 4288 bytes, each of its components 250 at most
    Run("out_path_too_long_8", "run-flow",
        GRID_8 + "[initial_data]\npreset = constant\n\n[flow]\nt_end = 0\n",
        out="out_path_too_long_8/" + "/".join(["p" * 250] * 17) + "/x"),
)


def export_src(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_all(src: Path, workdir: Path, config_dir: Path) -> None:
    """Make every run of RUNS with `src` on the path; outputs go to workdir/<run name>.

    Each run reads its config from `config_dir/<run name>.cfg`.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for run in RUNS:
        # a relative --out keeps paths in stderr equal between the two trees
        proc = subprocess.run(
            [sys.executable, "-m", "cryf.cli", run.command,
             "--config", str(config_dir / f"{run.name}.cfg"), "--out", run.out or run.name],
            cwd=workdir, env=env, capture_output=True,
        )
        (workdir / run.name).mkdir(exist_ok=True)
        (workdir / run.name / "exit_and_stderr.txt").write_bytes(
            f"exit: {proc.returncode}\n".encode() + proc.stderr)


# tokens are the pieces between whitespace, commas, '=' and ':'
_SEPARATORS = re.compile(r"[\s,=:]+")


def token_differences(old_lines: list[str], new_lines: list[str]) -> tuple[float, bool]:
    """Largest relative difference over numeric tokens, and whether any other token differs.

    Lines, and tokens within a line, are paired by position; a differing
    number of lines or of tokens in a line counts as a non-numeric
    difference.  A numeric pair with a non-finite side differs by inf.
    """
    worst = 0.0
    other = len(old_lines) != len(new_lines)
    for old, new in zip(old_lines, new_lines):
        old_tokens, new_tokens = _SEPARATORS.split(old), _SEPARATORS.split(new)
        if len(old_tokens) != len(new_tokens):
            other = True
            continue
        for a, b in zip(old_tokens, new_tokens):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                other = True
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                worst = math.inf
            elif x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst, other


def relative_paths(top: Path) -> set[Path]:
    return {p.relative_to(top) for p in top.rglob("*")}


def diff_trees(base: Path, head: Path, base_label: str) -> int:
    """Print how head differs from base; return the number of differing paths."""
    differing = 0
    for rel in sorted(relative_paths(base) | relative_paths(head)):
        old, new = base / rel, head / rel
        if not old.exists() or not new.exists():
            side = base_label if old.exists() else "working tree"
            print(f"only in {side}: {rel}")
            differing += 1
            continue
        if old.is_dir() or new.is_dir():
            if old.is_dir() != new.is_dir():
                print(f"a directory on one side only: {rel}")
                differing += 1
            continue
        old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
        if old_bytes == new_bytes:
            continue
        differing += 1
        try:
            old_lines = old_bytes.decode("utf-8").splitlines(keepends=True)
            new_lines = new_bytes.decode("utf-8").splitlines(keepends=True)
        except UnicodeDecodeError:
            print(f"binary files differ: {rel}")
            continue
        sys.stdout.writelines(difflib.unified_diff(
            old_lines, new_lines, f"{base_label}/{rel}", f"working-tree/{rel}"))
        worst, other = token_differences(old_lines, new_lines)
        print(f"{rel}: largest relative difference over numeric tokens {worst:.3g}; "
              f"non-numeric tokens {'differ' if other else 'identical'}")
    return differing


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    base_rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp_path = Path(tmp)
        export_src(base_rev, tmp_path / "base")
        for run in RUNS:
            (tmp_path / f"{run.name}.cfg").write_text(run.config, encoding="utf-8")
        outputs = {}
        for side, src in (("base", tmp_path / "base" / "src"), ("head", ROOT / "src")):
            outputs[side] = tmp_path / f"out_{side}"
            outputs[side].mkdir()
            run_all(src, outputs[side], tmp_path)
        differing = diff_trees(outputs["base"], outputs["head"], base_rev)
    n_files = "file differs" if differing == 1 else "files differ"
    print(f"{differing} {n_files} between {base_rev} and the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
