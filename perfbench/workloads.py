"""Seeded workloads: the configs the program sees, and the checks on its outputs.

Each workload is a list of CLI operations.  The configs are generated from
the benchmark seed alone; the program only ever sees the generated files.
The checks parse the files the program wrote and never trust its exit code
or status line alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

FLOW_CSV_HEADER = "t,E,vol,intR,intR2,var,dEdt_formula,min_u,min_R,max_R,dt"
# E may rise by at most this share of max(1, |E|) between two records
MONOTONE_SLACK = 1e-8
# final t must equal t_end to this share of max(1, t_end)
T_END_TOL = 1e-12
# |E_final - E_ref| <= E_REF_TOL * max(1, |E_ref|)
E_REF_TOL = 1e-7
# The reference takes at least REF_MIN_STEPS fixed classical RK4 steps of
# dt <= REF_DT_N2 / N^2 through the public `integrate_fixed`, a quarter or less of
# the dt*N^2 the adaptive stepper accepts on these inputs, so it does not
# depend on the stepper under test.  Halving REF_DT_N2 moves E by < 2e-8.
REF_DT_N2 = 0.01
REF_MIN_STEPS = 16

IDENTITY_ROWS = 6
CONVERGENCE_ROWS = 8
SOLITON_FAMILIES = 11

NAMES = ("flow_rough_64", "ensemble_16", "verify_64")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: sub-command, config text, largest grid size, t_end."""

    command: str
    name: str
    config: str
    grid: int
    t_end: float = 0.0


def _config(n: int, initial: dict, **sections: dict) -> str:
    lines = ["[geometry]", f"N_x = {n}", f"N_y = {n}", f"N_z = {n}", "", "[initial_data]"]
    lines += [f"{k} = {v}" for k, v in initial.items()]
    for name, entries in sections.items():
        lines += ["", f"[{name}]"] + [f"{k} = {v}" for k, v in entries.items()]
    return "\n".join(lines) + "\n"


_FLOW_OUTPUT = {"csv": "flow.csv", "report": "report.txt", "snapshot_prefix": "snap"}


def _run_flow(name: str, n: int, initial: dict, t_end: float, record_every: int,
              snapshot_every: int) -> Op:
    flow = {"t_end": repr(t_end), "err_tol": "1e-8", "record_every": record_every,
            "snapshot_every": snapshot_every}
    return Op("run-flow", name, _config(n, initial, flow=flow, output=_FLOW_OUTPUT), n, t_end)


def _random_smooth(seed: int) -> dict:
    return {"preset": "random_smooth", "seed": seed, "amplitude": 0.2, "smoothing_passes": 2}


def build_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of one workload iteration for this seed.

    `smoke` shrinks every grid to 8^3 (16^3 where 8^3 cannot pass the
    identity bounds) and shortens every t_end tenfold.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "flow_rough_64":
        n, t_end = (8, 1e-4) if smoke else (64, 1e-3)
        return [_run_flow("flow", n, _random_smooth(seed), t_end, 5, 0)]
    if workload == "ensemble_16":
        count, n, shrink = (4, 8, 0.1) if smoke else (32, 16, 1.0)
        ops = []
        for i in range(count):
            if i % 2 == 0:
                initial, t_end = _random_smooth(rng.randrange(2**31)), 0.005
            else:
                eps = round(rng.uniform(0.05, 0.2), 6)
                initial, t_end = {"preset": "single_mode_y", "epsilon": eps}, 0.05
            ops.append(_run_flow(f"run{i:02d}", n, initial, t_end * shrink, 1, 10))
        return ops
    if workload == "verify_64":
        axis = rng.choice("xy")
        eps = round(rng.uniform(0.05, 0.2), 6)
        mode = {"preset": f"single_mode_{axis}", "epsilon": eps}
        grids, n_ids, n_sol = ((8, 16), 16, 8) if smoke else ((16, 32, 64), 64, 64)
        analysis = {"delta": "1e-4"}
        return [
            Op("convergence-study", "convergence",
               _config(grids[0], mode,
                       analysis={**analysis, "grids": ",".join(map(str, grids))},
                       output={"orders": "orders.txt"}), grids[-1]),
            Op("check-identities", "identities",
               _config(n_ids, mode, analysis=analysis, output={"residuals": "residuals.txt"}),
               n_ids),
            Op("soliton-check", "soliton",
               _config(n_sol, {"preset": "constant"},
                       soliton={"sweep": "true", "sweep_base_constants": "0.5,1.0,2.0",
                                "sweep_psi_rates": "0.0,1.0,2.0",
                                "times": "0.0,0.25,0.5,0.75,1.0"},
                       output={"verdicts": "verdicts.txt"}), n_sol),
        ]
    raise ValueError(f"unknown workload {workload!r}")


class CheckFailed(Exception):
    """An operation's output is wrong; the operation counts as failed."""


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _report(lines: list[str]) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in lines if ": " in line)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check_run_flow(op: Op, outdir: str) -> tuple[float, int]:
    """Check a run-flow output; returns (final E, CSV record count)."""
    report = _report(_read_lines(os.path.join(outdir, "report.txt")))
    _expect(report.get("status") == "PASS", f"status {report.get('status')}")
    _expect(report.get("termination") == "reached_t_end",
            f"termination {report.get('termination')}")
    lines = _read_lines(os.path.join(outdir, "flow.csv"))
    _expect(lines[0] == FLOW_CSV_HEADER, f"CSV header {lines[0]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    _expect(len(rows) >= 2, "fewer than two records")
    for prev, cur in zip(rows, rows[1:]):
        _expect(cur[1] <= prev[1] + MONOTONE_SLACK * max(1.0, abs(prev[1])),
                f"E rises from {prev[1]!r} to {cur[1]!r} at t={cur[0]!r}")
    t_final = rows[-1][0]
    _expect(abs(t_final - op.t_end) <= T_END_TOL * max(1.0, op.t_end),
            f"final t {t_final!r} != t_end {op.t_end!r}")
    snaps = [f for f in os.listdir(outdir) if f.startswith("snap_")]
    _expect(len(snaps) == int(report.get("snapshots", -1)),
            f"{len(snaps)} snapshot files, report says {report.get('snapshots')}")
    return rows[-1][1], len(rows)


def check_identities(outdir: str) -> None:
    lines = _read_lines(os.path.join(outdir, "residuals.txt"))
    rows = [line.split() for line in lines[1:] if len(line.split()) == 4]
    _expect(len(rows) == IDENTITY_ROWS, f"{len(rows)} identity rows")
    for name, value, bound, status in rows:
        _expect(status == "pass" and float(value) <= float(bound),
                f"{name} = {value} (bound {bound}) {status}")
    _expect(_report(lines).get("status") == "PASS", "status is not PASS")


def check_convergence(outdir: str) -> None:
    lines = _read_lines(os.path.join(outdir, "orders.txt"))
    rows = [line.split() for line in lines if " errors=" in line]
    _expect(len(rows) == CONVERGENCE_ROWS, f"{len(rows)} convergence rows")
    for name, _errors, orders, minimum, status in rows:
        low = float(minimum.removeprefix("min="))
        got = [float(o) for o in orders.removeprefix("orders=").split(",")]
        _expect(status == "pass" and min(got) >= low, f"{name} orders {got} < {low}")
    _expect(_report(lines).get("status") == "PASS", "status is not PASS")


def check_soliton(outdir: str) -> None:
    report = _report(_read_lines(os.path.join(outdir, "verdicts.txt")))
    _expect(report.get("families") == str(SOLITON_FAMILIES), f"families {report.get('families')}")
    _expect(report.get("theorem_violations") == "0",
            f"theorem_violations {report.get('theorem_violations')}")
    _expect(report.get("status") == "PASS", "status is not PASS")


CHECKS = {
    "check-identities": check_identities,
    "convergence-study": check_convergence,
    "soliton-check": check_soliton,
}


def reference_E(op: Op, cache_dir: str) -> float:
    """Final E of a fixed-step RK4 reference run, cached on disk by config."""
    key = hashlib.sha256(f"{op.config}|{op.t_end!r}|{REF_DT_N2!r}|{REF_MIN_STEPS}".encode()).hexdigest()[:24]
    path = os.path.join(cache_dir, f"ref-{key}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["E"]
    import cryf

    cfg = cryf.parse_config(op.config)
    ini = cfg.initial
    state = cryf.make_initial_state(
        cryf.build_nilmanifold(cfg.geometry), ini.preset, c=ini.c, epsilon=ini.epsilon,
        seed=ini.seed, amplitude=ini.amplitude, smoothing_passes=ini.smoothing_passes)
    n = max(cfg.geometry.shape)
    steps = max(REF_MIN_STEPS, math.ceil(op.t_end * n * n / REF_DT_N2))
    end = cryf.integrate_fixed(state, op.t_end, steps, cfg.flow.u_floor)
    e_ref = cryf.yamabe_quantity(end, cfg.flow.u_floor)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"E": e_ref, "steps": steps}, fh)
    os.replace(tmp, path)
    return e_ref
