"""Command-line drivers: flow runs, identity checks, convergence studies, soliton sweeps.

A convergence study writes one sub-Laplacian row per exact eigenpair of
`manufactured.EIGENPAIRS`, then the identity-residual rows.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 environment/configuration failure: a ConfigurationError or any of its
subclasses in `errors`, an identity probe that leaves the positive cone, an
I/O error, and a grid too large for memory, each with one stderr line.
Every output is a file named in [output] directly in --out.
Each is checked before the run, and --out is made, with its missing parents,
at the first write, so such an exit creates no directory.
Outputs are deterministic byte for byte for a fixed config and seed; no
timestamps, 17-significant-digit decimal floats throughout (lossless
float64 round trip).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import os
import re
import sys

import numpy as np

from . import analysis, flow, manufactured, soliton
from .config import RunConfig, load_config
from .conformal import ConformalState, pullback_state, scale_state
from .errors import ConfigurationError, StepPositivityError
from .geometry import (
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


def _check_out(outdir: str, *names: str) -> None:
    """ConfigurationError unless --out is a directory, or can be made at the first write,
    and each of its missing components and of names fits its file system's name limit."""
    path, missing = os.path.abspath(outdir), []
    while not os.path.lexists(path):
        path, name = os.path.split(path)
        missing.append(name)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigurationError(f"--out {outdir}: {path} is not a writable directory")
    limit = os.pathconf(path, "PC_NAME_MAX")
    for name in (*missing, *names):
        if 0 <= limit < len(os.fsencode(name)):
            raise ConfigurationError(f"--out {outdir}: name {name!r} is longer than the "
                                     f"{limit} bytes its file system allows")


def _out_path(outdir: str, name: str, overwrite: bool) -> str:
    """The checked path of one output file in --out, so that no run stops after its first write.

    The config makes every output name a file name.  ConfigurationError if the
    name is too long, or if the path is a directory or exists without overwrite.
    """
    _check_out(outdir, name)
    path = os.path.join(outdir, name)
    if os.path.isdir(path):
        raise ConfigurationError(f"output file {path} is a directory")
    # lexists: writing through a dangling link would make a file outside --out
    if os.path.lexists(path) and not overwrite:
        raise ConfigurationError(f"output file {path} exists; pass --overwrite to replace it")
    return path


def _fresh_path(path: str) -> str:
    """path, ready for a write that makes a new regular file there.

    --out is made at the first write.  An existing entry, which `_out_path`
    passes only with overwrite, is removed first: a write through a symbolic
    or hard link would replace a file outside --out.
    """
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    if os.path.lexists(path):
        os.remove(path)
    return path


def _write_lines(path: str, lines: list[str]) -> None:
    with open(_fresh_path(path), "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _conclude(path: str, lines: list[str], failure: str | None) -> int:
    """Write lines and the status line to path; a failure also goes to stderr, exit 1."""
    _write_lines(path, lines + [f"status: {'FAIL' if failure else 'PASS'}"])
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _conclude_rows(path: str, head: list[str], rows, failing: str) -> int:
    """Conclude a pass/FAIL table: head, then `text pass|FAIL` per (name, text, ok) row;
    the failure line names the failed rows after `failing`."""
    failed = [name for name, _, ok in rows if not ok]
    lines = head + [f"{text} {'pass' if ok else 'FAIL'}" for _, text, ok in rows]
    return _conclude(path, lines, f"{failing}: " + ", ".join(failed) if failed else None)


def _write_csv(path: str, records) -> None:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_fmt(v) for v in rec.as_tuple()))
    _write_lines(path, lines)


def _run_flow_paths(cfg: RunConfig, outdir: str, overwrite: bool):
    """The checked CSV and report paths, the snapshot stem, and the run's existing
    snapshots by index.

    Every file in --out named like a snapshot of the run, {prefix}_NNNN.cryf, is
    its output: an existing one needs overwrite, and the CSV or report may not be
    named like one.  ConfigurationError otherwise, or if the two coincide or a name is too long.
    """
    out = cfg.output
    csv, report = (_out_path(outdir, name, overwrite) for name in (out.csv, out.report))
    if cfg.flow.snapshot_every > 0:
        _check_out(outdir, f"{out.snapshot_prefix}_0000.cryf")
    pattern = re.compile(re.escape(out.snapshot_prefix) + r"_([0-9]{4}|[1-9][0-9]{4,})\.cryf")
    for name, path in ((out.csv, csv), (out.report, report)):
        if out.csv == out.report or pattern.fullmatch(name):
            raise ConfigurationError(f"two run-flow outputs are the same file {path}")
    existing = {}
    folder = outdir or os.curdir
    for name in sorted(os.listdir(folder)) if os.path.isdir(folder) else ():
        match = pattern.fullmatch(name)
        if match:
            existing[int(match[1])] = _out_path(outdir, name, overwrite)
    return csv, report, os.path.join(outdir, f"{out.snapshot_prefix}_"), existing


def cmd_run_flow(cfg: RunConfig, outdir: str, overwrite: bool) -> int:
    csv_path, report_path, snap_stem, existing = _run_flow_paths(cfg, outdir, overwrite)
    state = make_initial_state(build_nilmanifold(cfg.geometry), **vars(cfg.initial))
    traj = flow.run_flow(state, cfg.flow)
    _write_csv(csv_path, traj.records)
    for idx, snap in enumerate(traj.snapshots):
        write_snapshot(_fresh_path(f"{snap_stem}{idx:04d}.cryf"), snap)
    violations, worst = analysis.monotonicity_audit(traj.records)
    anomalous = traj.termination == flow.FlowTermination.STEP_UNDERFLOW
    failure = (f"run-flow: {violations} monotonicity violation(s), "
               f"termination={traj.termination.value}" if violations or anomalous else None)
    code = _conclude(report_path, [
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
    # snapshots of an earlier run that this report does not count
    for idx, path in existing.items():
        if idx >= len(traj.snapshots):
            os.remove(path)
    return code


def _identity_rows(cfg: RunConfig, state: ConformalState):
    a = cfg.analysis
    window = flow.probe_window(state, a.delta)
    res = analysis.identity_residuals(window)
    r_field = window.curvature
    e0 = window.records[1].E
    del window  # dV and the rate go before the scaled and pulled-back states come
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
    state = make_initial_state(build_nilmanifold(cfg.geometry), **vars(cfg.initial))
    rows = [(name, f"{name} {_fmt(value)} {_fmt(bound)}", value <= bound)
            for name, value, bound in _identity_rows(cfg, state)]
    return _conclude_rows(table_path, ["identity value bound status"], rows,
                          "check-identities: failing identities")


def _orders(errors: list[float]) -> list[float]:
    """log2(coarse / fine) per refinement: inf where an error falls to 0, -inf if it leaves 0."""
    out = []
    for coarse, fine in zip(errors, errors[1:]):
        if fine == 0.0:
            out.append(float("inf"))
        elif coarse == 0.0:
            out.append(float("-inf"))
        else:
            out.append(float(np.log2(coarse / fine)))
    return out


def _laplacian_error(geom, field, lam: float) -> float:
    """L2 norm of (sub-Laplacian + lam) f on an exact eigenpair (f, lam), freed on return."""
    f = field(geom)
    diff = sub_laplacian_base(geom, f)
    diff += lam * f
    return float(np.sqrt(integrate_base(geom, diff * diff)))


def cmd_convergence_study(cfg: RunConfig, outdir: str, overwrite: bool) -> int:
    table_path = _out_path(outdir, cfg.output.orders, overwrite)
    a = cfg.analysis
    grids = a.grids
    geoms = [build_nilmanifold(GridSpec(n, n, n)) for n in grids]

    cases = [(f"laplacian_{name}", [_laplacian_error(geom, field, lam) for geom in geoms],
              a.min_order_twisted if twisted else a.min_order_untwisted)
             for name, field, lam, twisted in manufactured.EIGENPAIRS]

    residuals = [
        analysis.identity_residuals(flow.probe_window(
            make_initial_state(geom, **vars(cfg.initial)), a.delta * grids[0] / n))
        for geom, n in zip(geoms, grids)
    ]
    for field, name in (("curvature_evolution", "curvature_evolution_residual"),
                        ("mean_curvature_rate", "mean_curvature_rate_residual"),
                        ("volume_rate", "volume_rate_residual"),
                        ("dEdt_mismatch", "dEdt_vs_finite_difference")):
        errs = [getattr(res, field) for res in residuals]
        cases.append((name, errs, a.min_order_twisted))

    rows = []
    for name, errs, min_order in cases:
        orders = _orders(errs)
        rows.append((name, f"{name} errors={','.join(_fmt(e) for e in errs)} "
                           f"orders={','.join(_fmt(o) for o in orders)} min={_fmt(min_order)}",
                     all(o >= min_order for o in orders)))
    return _conclude_rows(table_path, [f"grids: {','.join(str(n) for n in grids)}"], rows,
                          "convergence-study: failing orders")


def _sweep_families(cfg: RunConfig, geom):
    """Each soliton family with its description, in report order; a base field
    is built when its first family is reached."""
    sol = cfg.soliton
    if sol.sweep:
        for c in sol.sweep_base_constants:
            base = make_initial_state(geom, "constant", c=c)
            for rate in sol.sweep_psi_rates:
                yield (f"constant(c={c:g}) sigma=1 psi_rate={rate:g}",
                       soliton.SolitonFamily(base, 0.0, rate))
        del base  # the last sweep base goes before a control's is built
    else:
        yield (f"{cfg.initial.preset} sigma=1{sol.sigma_slope:+g}*t psi_rate={sol.psi_rate:g}",
               soliton.SolitonFamily(make_initial_state(geom, **vars(cfg.initial)),
                                     sol.sigma_slope, sol.psi_rate))
    yield ("control:single_mode_y(eps=0.1) sigma=1 psi_rate=0",
           soliton.SolitonFamily(
               make_initial_state(geom, "single_mode_y", c=1.0, epsilon=0.1), 0.0, 0.0))
    yield ("control:constant(c=1) sigma=1+1*t psi_rate=0",
           soliton.SolitonFamily(make_initial_state(geom, "constant", c=1.0), 1.0, 0.0))


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
        lines.append(f'family={desc} verdict="{verdict.value}" '
                     f"e_deviation={_fmt(scan.e_deviation)}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parser is a reference cycle that only the collector frees."""
    parser = argparse.ArgumentParser(
        prog="cryf",
        description="Curvature-flow simulator and identity-verification harness "
                    "on the discrete Heisenberg nilmanifold.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--overwrite", action="store_true",
                        help="allow replacing existing output files")
    return parser


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc keep freed fields on its heap instead of returning them to the system.

    A 64^3 field is 2 MiB.  By default glibc trims its heap top when such a
    field is freed, and the next field of that size faults every 4 KiB page
    back in.  Fields up to 32 MiB stay on the heap, and the heap is trimmed
    only beyond 512 MiB free.  Both are set: setting one alone turns off the
    dynamic mmap threshold, so every 2 MiB field would be mmapped.  Only the
    program's entry sets this, once per process; importing the library leaves
    the allocator as it is.  Does nothing without glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _check_out(args.out)
        return _COMMANDS[args.command](cfg, args.out, args.overwrite)
    except ConfigurationError as exc:
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
