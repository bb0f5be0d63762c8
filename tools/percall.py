"""Time one call of each kernel layer at 16^3, 32^3 and 64^3.

Usage: python3 tools/percall.py [BASE_REV] [--grids 16,32,64] [--rounds 5]

Times `sub_laplacian_base`, `weighted_div_form` (weight u^2), `flow._du_dt`,
`flow._rk4_any`, one `flow.step_adaptive` from `[flow]`'s default dt_init,
`analysis.make_record`, `analysis.curvature_evolution_residual` on a
`ProbeWindow` built from the field itself, and `soliton._sample` of the
static family on it, on the `random_smooth` seed-1 field of each N^3 grid,
in a fresh process per round.  Each of a process's REPEATS repeats
runs a call as many times as take about 20 ms, and the fastest repeat gives
that process's time per call; a row shows the median and the quartiles of
those times over the rounds, in microseconds.

With BASE_REV, `src/` at that revision is exported with `git archive`, as
`compare_outputs.py` does, and the rounds alternate fresh processes of the
two trees, the base first in even rounds and the working tree first in odd
ones.  A last column gives the ratio of the medians, working tree over base.
Wall time on a shared host drifts between sessions; only such interleaved
runs compare two trees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

from compare_outputs import export_src

ROOT = Path(__file__).resolve().parent.parent

LAYERS = ("sub_laplacian_base", "weighted_div_form", "_du_dt", "_rk4_any",
          "step_adaptive", "make_record", "curvature_evolution_residual", "_sample")
REPEATS = 9


def layer_calls(n: int) -> dict:
    """The call of each of LAYERS on the random_smooth seed-1 field of an n^3 grid."""
    # imported here: a worker's PYTHONPATH picks the tree, and the parent needs none
    from cryf import analysis, flow, soliton
    from cryf.config import FlowConfig
    from cryf.geometry import GridSpec, build_nilmanifold, sub_laplacian_base, \
        weighted_div_form
    from cryf.presets import make_initial_state

    geom = build_nilmanifold(GridSpec(n, n, n))
    state = make_initial_state(geom, "random_smooth", seed=1)
    u, w, cfg = state.u, state.u * state.u, FlowConfig()
    # the window's rate is R itself: the residual's time does not depend on it,
    # and a real probe on this field leaves the positive cone at 32^3 and 64^3
    r, dv, record = analysis.curvature_moments(state)
    window = analysis.ProbeWindow(state, r, dv, r, (record,) * 3)
    static = soliton.SolitonFamily(state, 0.0, 0.0)
    return {
        "sub_laplacian_base": lambda: sub_laplacian_base(geom, u),
        "weighted_div_form": lambda: weighted_div_form(geom, w, u),
        "_du_dt": lambda: flow._du_dt(geom, u),
        "_rk4_any": lambda: flow._rk4_any(geom, u, cfg.dt_init, cfg.u_floor),
        "step_adaptive": lambda: flow.step_adaptive(state, cfg.dt_init, cfg),
        "make_record": lambda: analysis.make_record(state),
        "curvature_evolution_residual": lambda: analysis.curvature_evolution_residual(window),
        "_sample": lambda: soliton._sample(static, 0.0, 1e-4),
    }


def measure(grids, repeats: int = REPEATS, target: float = 0.02) -> dict:
    """{str(n): {layer: [seconds per call, one per repeat]}} in this process."""
    times = {}
    for n in grids:
        row = times[str(n)] = {}
        for name, call in layer_calls(n).items():
            timer = timeit.Timer(call)
            once = min(timer.repeat(repeat=2, number=1))
            number = max(1, round(target / once))
            row[name] = [t / number for t in timer.repeat(repeat=repeats, number=number)]
    return times


def run_worker(src: Path, grids: str) -> dict:
    """`measure` in a fresh process with `src` on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--worker", "--grids", grids],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def table(pooled: dict, sides: list[str]) -> list[str]:
    """One row per grid and layer: median [q1, q3] in microseconds per side."""
    head = f"{'grid':>5} {'layer':<28}" + "".join(f" {side + ' us':>27}" for side in sides)
    lines = [head + ("  tree/base" if len(sides) == 2 else "")]
    for grid in pooled[sides[0]]:
        for name in LAYERS:
            medians, row = [], f"{grid + '^3':>5} {name:<28}"
            for side in sides:
                q1, q2, q3 = (1e6 * q for q in quartiles(pooled[side][grid][name]))
                medians.append(q2)
                row += f" {q2:10.1f} [{q1:6.1f}, {q3:6.1f}]"
            if len(sides) == 2:
                row += f"  {medians[1] / medians[0]:9.3f}"
            lines.append(row)
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", nargs="?")
    parser.add_argument("--grids", default="16,32,64")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    grids = [int(g) for g in args.grids.split(",")]
    if args.worker:
        print(json.dumps(measure(grids)))
        return 0
    with tempfile.TemporaryDirectory(prefix="percall_") as tmp:
        trees = {"tree": ROOT / "src"}
        if args.base_rev:
            export_src(args.base_rev, Path(tmp))
            trees = {"base": Path(tmp) / "src", **trees}
        sides = list(trees)
        pooled = {side: {} for side in sides}
        for r in range(args.rounds):
            for side in sides if r % 2 == 0 else sides[::-1]:
                for grid, row in run_worker(trees[side], args.grids).items():
                    for name, samples in row.items():
                        pooled[side].setdefault(grid, {}).setdefault(name, []).append(
                            min(samples))
    if args.base_rev:
        print(f"base: {args.base_rev}; tree: the working tree; {args.rounds} rounds")
    print("\n".join(table(pooled, sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
