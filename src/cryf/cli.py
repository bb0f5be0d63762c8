"""Command-line drivers: flow runs, identity checks, convergence studies, soliton sweeps.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 environment/configuration failure, including an identity probe that
leaves the positive cone, a soliton family whose sigma is not positive at
a sampled time, fields or diagnostics that overflow float64, and a grid too
large for memory.
Outputs are deterministic byte for byte for a fixed config and seed; no
timestamps, 17-significant-digit decimal floats throughout (lossless
float64 round trip).
"""

from __future__ import annotations

import argparse
import dataclasses
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
    BaseGeometry,
    GridSpec,
    build_nilmanifold,
    integrate_base,
    pullback_z_shift,
    sub_laplacian_base,
)
from .presets import make_initial_state
from .snapshot import write_snapshot

CSV_HEADER = ",".join(f.name for f in dataclasses.fields(analysis.DiagnosticsRecord))

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


def _conclude(path: str, lines: list[str], failure: str | None) -> int:
    """Write lines and the status line to path; a failure also goes to stderr, exit 1."""
    _write_lines(path, lines + [f"status: {'FAIL' if failure else 'PASS'}"])
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _write_csv(path: str, records) -> None:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_fmt(v) for v in rec.as_tuple()))
    _write_lines(path, lines)


def _initial_state(cfg: RunConfig, geom: BaseGeometry) -> ConformalState:
    ini = cfg.initial
    return make_initial_state(
        geom, ini.preset, c=ini.c, epsilon=ini.epsilon, seed=ini.seed,
        amplitude=ini.amplitude, smoothing_passes=ini.smoothing_passes,
    )


def _run_flow_paths(cfg: RunConfig, outdir: str, overwrite: bool, snapshots: int) -> list[str]:
    """Paths of the CSV, the report and the first `snapshots` snapshots, each checked.

    ConfigurationError if a path exists without overwrite or two of them coincide.
    """
    out = cfg.output
    names = [out.csv, out.report] + [
        f"{out.snapshot_prefix}_{idx:04d}.cryf" for idx in range(snapshots)]
    paths = [_out_path(outdir, name, overwrite) for name in names]
    seen = set()
    for path in map(os.path.normpath, paths):
        if path in seen:
            raise ConfigurationError(f"two run-flow outputs are the same file {path}")
        seen.add(path)
    return paths


def cmd_run_flow(cfg: RunConfig, outdir: str, overwrite: bool) -> int:
    # the initial state is snapshot 0 whenever snapshots are taken
    _run_flow_paths(cfg, outdir, overwrite, int(cfg.flow.snapshot_every > 0))
    state = _initial_state(cfg, build_nilmanifold(cfg.geometry))
    traj = flow.run_flow(state, cfg.flow)
    csv_path, report_path, *snap_paths = _run_flow_paths(
        cfg, outdir, overwrite, len(traj.snapshots))
    _write_csv(csv_path, traj.records)
    for snap_path, snap in zip(snap_paths, traj.snapshots):
        write_snapshot(snap_path, snap)
    violations, worst = analysis.monotonicity_audit(traj.records)
    anomalous = traj.termination == flow.FlowTermination.STEP_UNDERFLOW
    failure = (f"run-flow: {violations} monotonicity violation(s), "
               f"termination={traj.termination.value}" if violations or anomalous else None)
    return _conclude(report_path, [
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
    ], failure)


def _identity_rows(cfg: RunConfig, state: ConformalState):
    a = cfg.analysis
    window = flow.probe_window(state, a.delta)
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

    def invariance_row(name, moved, expected_r, bound):
        # E and R of the moved state against E of the state and the R it should have
        r, _, record = analysis.curvature_moments(moved)
        e_dev = abs(record.E - e0) / max(1.0, abs(e0))
        r_dev = float(np.abs(r - expected_r(r_field)).max()) / r_scale
        return name, max(e_dev, r_dev), bound

    rows.append(invariance_row("scaling_invariance", scale_state(state, 2.0),
                               lambda r: 0.5 * r, a.max_scaling_invariance))
    rows.append(invariance_row("pullback_invariance", pullback_state(state, 3),
                               lambda r: pullback_z_shift(state.geom, r, 3),
                               a.max_pullback_invariance))
    return rows


def cmd_check_identities(cfg: RunConfig, outdir: str, overwrite: bool) -> int:
    table_path = _out_path(outdir, cfg.output.residuals, overwrite)
    state = _initial_state(cfg, build_nilmanifold(cfg.geometry))
    rows = _identity_rows(cfg, state)
    lines = ["identity value bound status"]
    failed = []
    for name, value, bound in rows:
        ok = value <= bound
        if not ok:
            failed.append(name)
        lines.append(f"{name} {_fmt(value)} {_fmt(bound)} {'pass' if ok else 'FAIL'}")
    failure = "check-identities: failing identities: " + ", ".join(failed) if failed else None
    return _conclude(table_path, lines, failure)


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
    residuals = [
        analysis.identity_residuals(
            flow.probe_window(_initial_state(cfg, geom), base_delta * grids[0] / n))
        for geom, n in zip(geoms, grids)
    ]
    for field, name in (("curvature_evolution", "curvature_evolution_residual"),
                        ("mean_curvature_rate", "mean_curvature_rate_residual"),
                        ("volume_rate", "volume_rate_residual"),
                        ("dEdt_mismatch", "dEdt_vs_finite_difference")):
        errs = [getattr(res, field) for res in residuals]
        cases.append((name, errs, cfg.analysis.min_order_twisted))

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
    failure = "convergence-study: failing orders: " + ", ".join(failed) if failed else None
    return _conclude(table_path, lines, failure)


def _sweep_families(cfg: RunConfig, geom) -> list[tuple[str, soliton.SolitonFamily]]:
    sol = cfg.soliton
    families: list[tuple[str, soliton.SolitonFamily]] = []
    if sol.sweep:
        for c in sol.sweep_base_constants:
            base = make_initial_state(geom, "constant", c=c)
            for rate in sol.sweep_psi_rates:
                fam = soliton.SolitonFamily(base, 0.0, rate)
                families.append((f"constant(c={c:g}) sigma=1 psi_rate={rate:g}", fam))
    else:
        base = _initial_state(cfg, geom)
        fam = soliton.SolitonFamily(base, sol.sigma_slope, sol.psi_rate)
        families.append((
            f"{cfg.initial.preset} sigma=1{sol.sigma_slope:+g}*t psi_rate={sol.psi_rate:g}",
            fam,
        ))
    if sol.include_negative_controls:
        mode = make_initial_state(geom, "single_mode_y", c=1.0, epsilon=0.1)
        families.append((
            "control:single_mode_y(eps=0.1) sigma=1 psi_rate=0",
            soliton.SolitonFamily(mode, 0.0, 0.0),
        ))
        const = make_initial_state(geom, "constant", c=1.0)
        families.append((
            "control:constant(c=1) sigma=1+1*t psi_rate=0",
            soliton.SolitonFamily(const, 1.0, 0.0),
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
    failure = f"soliton-check: {violations} THEOREM VIOLATION verdict(s)" if violations else None
    return _conclude(table_path, lines, failure)


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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
