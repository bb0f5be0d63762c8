"""Command-line drivers: flow runs, identity checks, convergence studies, soliton sweeps.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 environment/configuration failure, including an identity probe that
leaves the positive cone, a soliton family whose sigma is not positive at
a sampled time, and fields or diagnostics that overflow float64.
Outputs are deterministic byte for byte for a fixed config and seed; no
timestamps, 17-significant-digit decimal floats throughout (lossless
float64 round trip).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, flow, manufactured, soliton
from .config import RunConfig, load_config
from .conformal import ConformalState, pullback_state, scale_state
from .errors import (
    ConfigurationError,
    FloatRangeError,
    PositivityError,
    ShiftAlignmentError,
    StepPositivityError,
)
from .geometry import (
    GridSpec,
    build_nilmanifold,
    integrate_base,
    pullback_z_shift,
    sub_laplacian_base,
)
from .presets import make_initial_state
from .snapshot import write_snapshot

CSV_HEADER = "t,E,vol,intR,intR2,var,dEdt_formula,min_u,min_R,max_R,dt"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _out_path(outdir: str, name: str, overwrite: bool) -> str:
    path = os.path.join(outdir, name)
    if os.path.exists(path) and not overwrite:
        raise ConfigurationError(f"output file {path} exists; pass --overwrite to replace it")
    return path


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path: str, records) -> None:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_fmt(v) for v in rec.as_tuple()))
    _write_lines(path, lines)


def _initial_state(cfg: RunConfig, spec: GridSpec | None = None) -> ConformalState:
    geom = build_nilmanifold(spec if spec is not None else cfg.geometry)
    ini = cfg.initial
    return make_initial_state(
        geom, ini.preset, c=ini.c, epsilon=ini.epsilon, seed=ini.seed,
        amplitude=ini.amplitude, smoothing_passes=ini.smoothing_passes,
    )


def cmd_run_flow(cfg: RunConfig, outdir: str, overwrite: bool) -> int:
    csv_path = _out_path(outdir, cfg.output.csv, overwrite)
    report_path = _out_path(outdir, cfg.output.report, overwrite)
    state = _initial_state(cfg)
    traj = flow.run_flow(state, cfg.flow)
    _write_csv(csv_path, traj.records)
    for idx, (t, u) in enumerate(traj.snapshots):
        snap_path = _out_path(outdir, f"{cfg.output.snapshot_prefix}_{idx:04d}.cryf", overwrite)
        write_snapshot(snap_path, ConformalState(state.geom, u, t))
    violations, worst = analysis.monotonicity_audit(traj.records)
    anomalous = traj.termination == flow.FlowTermination.STEP_UNDERFLOW
    ok = violations == 0 and not anomalous
    _write_lines(report_path, [
        "command: run-flow",
        f"grid: {cfg.geometry.nx} {cfg.geometry.ny} {cfg.geometry.nz}",
        f"preset: {cfg.initial.preset}",
        f"seed: {cfg.initial.seed}",
        f"termination: {traj.termination.value}",
        f"records: {len(traj.records)}",
        f"snapshots: {len(traj.snapshots)}",
        f"final_t: {_fmt(traj.records[-1].t)}",
        f"final_E: {_fmt(traj.records[-1].E)}",
        f"monotonicity_violations: {violations}",
        f"worst_violation: {_fmt(worst)}",
        f"status: {'PASS' if ok else 'FAIL'}",
    ])
    if not ok:
        print(
            f"run-flow: {violations} monotonicity violation(s), "
            f"termination={traj.termination.value}", file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


def _yamabe_and_curvature(state: ConformalState):
    """E and the curvature field R of one state, from one curvature evaluation."""
    r, _, vol, int_r, _ = analysis.curvature_moments(state)
    return analysis.yamabe_from_moments(vol, int_r, state.n), r


def _identity_rows(cfg: RunConfig, state: ConformalState):
    a = cfg.analysis
    window = analysis.probe_window(state, a.delta)
    res = analysis.identity_residuals(window)
    r_field = window.curvatures[1]
    e0 = analysis.make_record(state, r=r_field).E
    del window  # the probe fields go before the scaled and pulled-back states come
    rows = [
        ("volume_rate", res.volume_rate, a.max_volume_rate),
        ("mean_curvature_rate", res.mean_curvature_rate, a.max_mean_curvature_rate),
        ("curvature_evolution", res.curvature_evolution, a.max_curvature_evolution),
        ("dEdt_vs_finite_difference", res.dEdt_mismatch, a.max_dEdt_mismatch),
    ]
    r_scale = max(1e-300, float(np.abs(r_field).max()))
    e_scaled, r_scaled = _yamabe_and_curvature(scale_state(state, 2.0))
    e_dev = abs(e_scaled - e0) / max(1.0, abs(e0))
    r_dev = float(np.abs(r_scaled - 0.5 * r_field).max()) / r_scale
    rows.append(("scaling_invariance", max(e_dev, r_dev), a.max_scaling_invariance))
    e_pulled, r_pulled = _yamabe_and_curvature(pullback_state(state, 3))
    e_dev = abs(e_pulled - e0) / max(1.0, abs(e0))
    commute = float(np.abs(
        r_pulled - pullback_z_shift(state.geom, r_field, 3)
    ).max()) / r_scale
    rows.append(("pullback_invariance", max(e_dev, commute), a.max_pullback_invariance))
    return rows


def cmd_check_identities(cfg: RunConfig, outdir: str, overwrite: bool) -> int:
    table_path = _out_path(outdir, cfg.output.residuals, overwrite)
    state = _initial_state(cfg)
    rows = _identity_rows(cfg, state)
    lines = ["identity value bound status"]
    failed = []
    for name, value, bound in rows:
        ok = value <= bound
        if not ok:
            failed.append(name)
        lines.append(f"{name} {_fmt(value)} {_fmt(bound)} {'pass' if ok else 'FAIL'}")
    lines.append(f"status: {'PASS' if not failed else 'FAIL'}")
    _write_lines(table_path, lines)
    if failed:
        print("check-identities: failing identities: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _orders(errors: list[float]) -> list[float]:
    out = []
    for coarse, fine in zip(errors, errors[1:]):
        if fine == 0.0 or coarse == 0.0:
            out.append(float("inf"))
        else:
            out.append(float(np.log2(coarse / fine)))
    return out


def _l2_error(geom, approx, exact) -> float:
    diff = approx - exact
    return float(np.sqrt(integrate_base(geom, diff * diff)))


def cmd_convergence_study(cfg: RunConfig, outdir: str, overwrite: bool) -> int:
    table_path = _out_path(outdir, cfg.output.orders, overwrite)
    grids = cfg.analysis.grids
    if len(grids) < 2:
        raise ConfigurationError("convergence study needs at least 2 grid sizes")
    if list(grids) != sorted(grids) or len(set(grids)) != len(grids):
        raise ConfigurationError(f"grid list must be strictly increasing, got {grids}")
    geoms = [build_nilmanifold(GridSpec(n, n, n)) for n in grids]

    cases = []
    for name, factory in manufactured.UNTWISTED_CASES:
        errs = []
        for geom in geoms:
            f, lap = factory(geom)
            errs.append(_l2_error(geom, sub_laplacian_base(geom, f), lap))
        cases.append((f"laplacian_{name}", errs, cfg.analysis.min_order_untwisted))
    errs = []
    for geom in geoms:
        tf = manufactured.theta_field(geom)
        errs.append(_l2_error(geom, sub_laplacian_base(geom, tf.f), tf.lap))
    cases.append(("laplacian_theta_twisted", errs, cfg.analysis.min_order_twisted))

    base_delta = cfg.analysis.delta
    evo, mean_rate, vol_rate, dEdt_mis = [], [], [], []
    for geom, n in zip(geoms, grids):
        state = _initial_state(cfg, geom.spec)
        res = analysis.identity_residuals(analysis.probe_window(state, base_delta * grids[0] / n))
        evo.append(res.curvature_evolution)
        mean_rate.append(res.mean_curvature_rate)
        vol_rate.append(res.volume_rate)
        dEdt_mis.append(res.dEdt_mismatch)
    cases.append(("curvature_evolution_residual", evo, cfg.analysis.min_order_twisted))
    cases.append(("mean_curvature_rate_residual", mean_rate, cfg.analysis.min_order_twisted))
    cases.append(("volume_rate_residual", vol_rate, cfg.analysis.min_order_twisted))
    cases.append(("dEdt_vs_finite_difference", dEdt_mis, cfg.analysis.min_order_twisted))

    lines = [f"grids: {','.join(str(n) for n in grids)}"]
    failed = []
    for name, errs, min_order in cases:
        orders = _orders(errs)
        ok = all(o >= min_order for o in orders)
        if not ok:
            failed.append(name)
        lines.append(
            f"{name} errors={','.join(_fmt(e) for e in errs)} "
            f"orders={','.join(_fmt(o) for o in orders)} "
            f"min={_fmt(min_order)} {'pass' if ok else 'FAIL'}"
        )
    lines.append(f"status: {'PASS' if not failed else 'FAIL'}")
    _write_lines(table_path, lines)
    if failed:
        print("convergence-study: failing orders: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _sweep_families(cfg: RunConfig, geom) -> list[tuple[str, soliton.SolitonFamily]]:
    sol = cfg.soliton
    families: list[tuple[str, soliton.SolitonFamily]] = []

    def sigma_with_slope(slope):
        return (lambda t: 1.0 + slope * t)

    if sol.sweep:
        for c in sol.sweep_base_constants:
            base = make_initial_state(geom, "constant", c=c)
            for rate in sol.sweep_psi_rates:
                fam = soliton.SolitonFamily(base, sigma_with_slope(0.0), rate)
                families.append((f"constant(c={c:g}) sigma=1 psi_rate={rate:g}", fam))
    else:
        base = _initial_state(cfg)
        fam = soliton.SolitonFamily(base, sigma_with_slope(sol.sigma_slope), sol.psi_rate)
        families.append((
            f"{cfg.initial.preset} sigma=1{sol.sigma_slope:+g}*t psi_rate={sol.psi_rate:g}",
            fam,
        ))
    if sol.include_negative_controls:
        mode = make_initial_state(geom, "single_mode_y", c=1.0, epsilon=0.1)
        families.append((
            "control:single_mode_y(eps=0.1) sigma=1 psi_rate=0",
            soliton.SolitonFamily(mode, sigma_with_slope(0.0), 0.0),
        ))
        const = make_initial_state(geom, "constant", c=1.0)
        families.append((
            "control:constant(c=1) sigma=1+1*t psi_rate=0",
            soliton.SolitonFamily(const, sigma_with_slope(1.0), 0.0),
        ))
    return families


def cmd_soliton_check(cfg: RunConfig, outdir: str, overwrite: bool) -> int:
    table_path = _out_path(outdir, cfg.output.verdicts, overwrite)
    geom = build_nilmanifold(cfg.geometry)
    sol = cfg.soliton
    lines = []
    violations = 0
    for desc, fam in _sweep_families(cfg, geom):
        scan = soliton.scan_family(fam, sol.times)
        verdict = soliton.soliton_theorem_harness(scan, sol.flow_tol, sol.var_tol)
        if verdict == soliton.Verdict.THEOREM_VIOLATION:
            violations += 1
        # snapped is always false: a shift off the lattice exits 2 in scan_family
        lines.append(
            f'family={desc} verdict="{verdict.value}" '
            f"e_deviation={_fmt(soliton.soliton_invariance_check(scan))} snapped=false"
        )
    lines.append(f"families: {len(lines)}")
    lines.append(f"theorem_violations: {violations}")
    lines.append(f"status: {'PASS' if violations == 0 else 'FAIL'}")
    _write_lines(table_path, lines)
    if violations:
        print(f"soliton-check: {violations} THEOREM VIOLATION verdict(s)", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


_COMMANDS = {
    "run-flow": cmd_run_flow,
    "check-identities": cmd_check_identities,
    "convergence-study": cmd_convergence_study,
    "soliton-check": cmd_soliton_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryf",
        description="Curvature-flow simulator and identity-verification harness "
                    "on the discrete Heisenberg nilmanifold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--overwrite", action="store_true",
                       help="allow replacing existing output files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args.overwrite)
    except (ConfigurationError, ShiftAlignmentError, PositivityError,
            FloatRangeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepPositivityError as exc:
        # only the fixed-step identity probes let this escape; the adaptive
        # stepper retries it
        print(f"identity probe failed: {exc}; try a smaller [analysis] delta",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
