"""Compare the CLI outputs of the working tree with those of an earlier revision.

Usage: python3 tools/compare_outputs.py BASE_REV

Exports `src/` at BASE_REV with `git archive` into a temporary directory,
then runs the five shipped configs, nine 8^3 configs (a `constant`
run-flow, a single-family soliton-check, a `random_smooth`
check-identities, a convergence-study that fails its orders, a
`random_smooth` run-flow that writes snapshots and records every second
step, three rough `random_smooth` run-flows that end in positivity
retries, a step underflow and an input at the floor, and a soliton-check
whose sigma turns negative one residual step after its last sampled time),
a 12^3 `random_smooth` run-flow, and on the twisted 8x4x12 grid (twist 3)
a `random_smooth` run-flow, a `single_mode_x` check-identities and a
scaled, Reeb-translated `random_smooth` soliton-check, through `cryf.cli`
once with that tree and once with the working tree's `src/` (18 runs).
Both runs read the working tree's configs, so only the code differs.  Every
output file, plus each command's exit code and stderr, is compared byte for
byte; for each file that differs a unified diff is printed, followed by the
largest relative difference over its numeric tokens and whether any
non-numeric token differs.  Exits 0 when all outputs are identical and 1
otherwise.  Standard library only.
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
ROUGH_8 = GRID_8 + "[initial_data]\npreset = random_smooth\nseed = 1\nsmoothing_passes = 0\n"

# run name -> config text of the runs that have no shipped config
INLINE_CONFIGS = {
    "constant_8": GRID_8 + "[initial_data]\npreset = constant\nc = 1.5\n",
    # one scaled, Reeb-translated family besides the two negative controls
    "soliton_family_8": GRID_8 + "[initial_data]\npreset = single_mode_y\nepsilon = 0.1\n\n"
                        "[soliton]\nsweep = false\nsigma_slope = 0.5\npsi_rate = 2\n",
    # exits 1: the identity bounds are calibrated on single_mode_y at 16^3
    "identities_random_8": GRID_8 + "[initial_data]\npreset = random_smooth\nseed = 1\n",
    # exits 1: the sub-Laplacian's second order misses a minimum order of 3
    "convergence_fail_8": GRID_8 + "[initial_data]\npreset = single_mode_y\nepsilon = 0.1\n\n"
                          "[analysis]\ngrids = 8,16\nmin_order_untwisted = 3\n",
    # writes 9 snapshot files, so the snapshot header and payload are compared too
    "snapshots_8": GRID_8 + "[initial_data]\npreset = random_smooth\nseed = 3\n\n"
                   "[flow]\nt_end = 2e-3\nsnapshot_every = 3\nrecord_every = 2\n",
    # 1/12 is no power of two, so a regrouping of the kernel's scaling shows here
    "flow_random_12": "[geometry]\nN_x = 12\nN_y = 12\nN_z = 12\n\n"
                      "[initial_data]\npreset = random_smooth\nseed = 2\n\n"
                      "[flow]\nt_end = 2e-3\n",
    # stage values hit the floor five times, each halving the step; exits 1 on E increases
    "flow_positivity_retries_8": ROUGH_8 + "amplitude = 0.5\n\n"
                                 "[flow]\nerr_tol = 10\nt_end = 0.05\n",
    # exits 1: error control pushes dt below dt_min
    "flow_step_underflow_8": ROUGH_8 + "amplitude = 0.9\n\n"
                             "[flow]\nerr_tol = 1e-6\nu_floor = 0.1\ndt_init = 1e-5\n"
                             "dt_min = 1e-5\nt_end = 0.5\n",
    # exits 2: the initial data lies at or below the floor
    "flow_input_at_floor_8": ROUGH_8 + "amplitude = 0.5\n\n[flow]\nu_floor = 0.51\n",
    # the smoothing and every x difference cross the sheared wrap
    "flow_twisted": GRID_TWISTED + "[initial_data]\npreset = random_smooth\nseed = 5\n\n"
                    "[flow]\nt_end = 2e-3\nrecord_every = 2\n",
    "identities_twisted": GRID_TWISTED + "[initial_data]\npreset = single_mode_x\n"
                          "epsilon = 0.1\n",
    # one scaled family whose Reeb shift (3 cells at t = 0.25) meets the sheared wrap
    "soliton_twisted": GRID_TWISTED + "[initial_data]\npreset = random_smooth\nseed = 4\n\n"
                       "[soliton]\nsweep = false\nsigma_slope = 0.5\npsi_rate = 1\n"
                       "times = 0.0,0.25,0.5\n",
    # exits 2: sigma stays positive at every sampled time but not one residual step later
    "soliton_sigma_neighbour_8": GRID_8 + "[initial_data]\npreset = single_mode_y\n\n"
                                 "[soliton]\nsweep = false\nsigma_slope = -1\n"
                                 "times = 0.0,0.99995\n",
}

# (run name, command, config path relative to the repo or None for INLINE_CONFIGS)
RUNS = (
    ("flow_random_16", "run-flow", "configs/flow_random_16.cfg"),
    ("flow_single_mode_16", "run-flow", "configs/flow_single_mode_16.cfg"),
    ("identities_16", "check-identities", "configs/identities_16.cfg"),
    ("convergence", "convergence-study", "configs/convergence.cfg"),
    ("soliton_sweep", "soliton-check", "configs/soliton_sweep.cfg"),
    ("constant_8", "run-flow", None),
    ("soliton_family_8", "soliton-check", None),
    ("identities_random_8", "check-identities", None),
    ("convergence_fail_8", "convergence-study", None),
    ("snapshots_8", "run-flow", None),
    ("flow_random_12", "run-flow", None),
    ("flow_positivity_retries_8", "run-flow", None),
    ("flow_step_underflow_8", "run-flow", None),
    ("flow_input_at_floor_8", "run-flow", None),
    ("flow_twisted", "run-flow", None),
    ("identities_twisted", "check-identities", None),
    ("soliton_twisted", "soliton-check", None),
    ("soliton_sigma_neighbour_8", "soliton-check", None),
)


def export_src(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_all(src: Path, workdir: Path, inline_dir: Path) -> None:
    """Run every entry of RUNS with `src` on the path; outputs go to workdir/<run name>.

    A run without a shipped config reads `inline_dir/<run name>.cfg`.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for name, command, cfg in RUNS:
        config = inline_dir / f"{name}.cfg" if cfg is None else ROOT / cfg
        # a relative --out keeps paths in stderr equal between the two trees
        proc = subprocess.run(
            [sys.executable, "-m", "cryf.cli", command, "--config", str(config),
             "--out", name],
            cwd=workdir, env=env, capture_output=True,
        )
        (workdir / name).mkdir(exist_ok=True)
        (workdir / name / "exit_and_stderr.txt").write_bytes(
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


def relative_files(top: Path) -> set[Path]:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def diff_trees(base: Path, head: Path, base_label: str) -> int:
    """Print how head differs from base; return the number of differing files."""
    differing = 0
    for rel in sorted(relative_files(base) | relative_files(head)):
        old, new = base / rel, head / rel
        if not old.exists() or not new.exists():
            side = base_label if old.exists() else "working tree"
            print(f"only in {side}: {rel}")
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
        for name, text in INLINE_CONFIGS.items():
            (tmp_path / f"{name}.cfg").write_text(text)
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
