"""Compare the CLI outputs of the working tree with those of an earlier revision.

Usage: python3 tools/compare_outputs.py BASE_REV

Exports `src/` at BASE_REV with `git archive` into a temporary directory,
then runs the five shipped configs and an 8^3 `constant` run-flow through
`cryf.cli` once with that tree and once with the working tree's `src/`.
Both runs read the working tree's configs, so only the code differs.  Every
output file, plus each command's exit code and stderr, is compared byte for
byte; a unified diff is printed for each file that differs.  Exits 0 when
all outputs are identical and 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONSTANT_8 = """\
[geometry]
N_x = 8
N_y = 8
N_z = 8

[initial_data]
preset = constant
c = 1.5
"""

# (run name, command, config path relative to the repo or None for CONSTANT_8)
RUNS = (
    ("flow_random_16", "run-flow", "configs/flow_random_16.cfg"),
    ("flow_single_mode_16", "run-flow", "configs/flow_single_mode_16.cfg"),
    ("identities_16", "check-identities", "configs/identities_16.cfg"),
    ("convergence", "convergence-study", "configs/convergence.cfg"),
    ("soliton_sweep", "soliton-check", "configs/soliton_sweep.cfg"),
    ("constant_8", "run-flow", None),
)


def export_src(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_all(src: Path, workdir: Path, constant_cfg: Path) -> None:
    """Run every entry of RUNS with `src` on the path; outputs go to workdir/<run name>."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for name, command, cfg in RUNS:
        config = constant_cfg if cfg is None else ROOT / cfg
        # a relative --out keeps paths in stderr equal between the two trees
        proc = subprocess.run(
            [sys.executable, "-m", "cryf.cli", command, "--config", str(config),
             "--out", name],
            cwd=workdir, env=env, capture_output=True,
        )
        (workdir / name).mkdir(exist_ok=True)
        (workdir / name / "exit_and_stderr.txt").write_bytes(
            f"exit: {proc.returncode}\n".encode() + proc.stderr)


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
    return differing


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    base_rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp_path = Path(tmp)
        export_src(base_rev, tmp_path / "base")
        constant_cfg = tmp_path / "constant_8.cfg"
        constant_cfg.write_text(CONSTANT_8)
        outputs = {}
        for side, src in (("base", tmp_path / "base" / "src"), ("head", ROOT / "src")):
            outputs[side] = tmp_path / f"out_{side}"
            outputs[side].mkdir()
            run_all(src, outputs[side], constant_cfg)
        differing = diff_trees(outputs["base"], outputs["head"], base_rev)
    n_files = "file differs" if differing == 1 else "files differ"
    print(f"{differing} {n_files} between {base_rev} and the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
