"""Benchmark of the cryf simulator through its public API and CLI.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
Every workload in turn, with a summary table and a check of each result
against the schema in BENCHMARK.json (add --smoke for tiny 8^3 inputs):
    python3 perfbench/run.py --workload all [--smoke]

A run writes the generated configs and the program's outputs under
.bench_out/ and caches reference solutions under .bench_cache/, both in the
checkout.  The last line of standard output is the result object; the lines
before it hold the run environment and the details behind each metric.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  A run whose program no longer has the names
the counters wrap exits with code 2 and prints no result.
"""

import os

# one numpy/BLAS thread, for this process and every child it starts; set
# before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

# gain claims must also hold on the held-out seed 101, which is not used
# while a change is written
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_ITERATIONS = 3      # untraced run
MIN_PAIRS = 2           # traced run: (untraced, traced) iteration pairs
CHILD_TIMEOUT_S = 170
FLOW_WORKLOADS = ("flow_rough_64", "ensemble_16")
# spans each workload must reach; a zero count means a wrapper missed its caller
EXPECTED_SPANS = {
    "flow_rough_64": ("flow.step_adaptive", "analysis.make_record", "geometry.sub_laplacian_base"),
    "ensemble_16": ("flow.step_adaptive", "analysis.make_record", "snapshot.write_snapshot"),
    "verify_64": ("flow.integrate_fixed", "analysis.identity_window",
                  "analysis.curvature_evolution_residual", "soliton.soliton_theorem_harness",
                  "soliton.soliton_state", "geometry.weighted_div_form"),
}


def _rot(msg: str):
    raise tracing.BenchmarkRot(msg)


def _l3_bytes() -> int | None:
    try:
        raw = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(raw[-1:], 1)
    return int(raw.rstrip("KM")) * scale


def _copy_gbps(nbytes: int) -> float:
    """Plain numpy copy bandwidth, read plus write bytes, median of 5."""
    import numpy as np

    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * nbytes / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3
    q = statistics.quantiles(xs, n=4)
    return [q[0], statistics.median(xs), q[2]]


def _setup_samples(ops, cfg_paths) -> list[float]:
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    argv += [f"{op.command}={path}" for op, path in zip(ops, cfg_paths)]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """One workload for one seed: generated inputs, timed iterations, checks."""

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path):
        self.workload = workload
        self.ops = workloads.build_ops(workload, seed, smoke)
        self.work = work
        self.cfg_paths = []
        for op in self.ops:
            cfg = work / "cfg" / f"{op.name}.cfg"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(op.config, encoding="utf-8")
            self.cfg_paths.append(str(cfg))
        self.failures: dict[tuple[int, int], str] = {}
        self.final_E: dict[int, list[tuple[int, float]]] = {}
        self.records = 0
        self.bytes_written = 0
        self.e_ref_dev = 0.0
        self.iterations = 0

    def iterate(self, cli) -> float:
        """Run every operation once; returns the summed wall time of the calls."""
        it = self.iterations
        self.iterations += 1
        # fresh output directories: rewriting files in place can stall on
        # the file system's flush-on-truncate, which is not the program's cost
        top = self.work / "out" / str(it)
        outdirs = [str(top / op.name) for op in self.ops]
        wall = 0.0
        results = []
        for op, cfg, out in zip(self.ops, self.cfg_paths, outdirs):
            argv = [op.command, "--config", cfg, "--out", out]
            t0 = time.perf_counter()
            try:
                code, err = cli.main(argv), None
            except (Exception, SystemExit):
                code, err = None, traceback.format_exc()
            wall += time.perf_counter() - t0
            results.append((code, err))
        self.records = 0
        for i, (op, out, (code, err)) in enumerate(zip(self.ops, outdirs, results)):
            try:
                if err is not None:
                    raise workloads.CheckFailed(err.strip().splitlines()[-1])
                if code != 0:
                    raise workloads.CheckFailed(f"exit code {code}")
                if op.command == "run-flow":
                    e_final, rows = workloads.check_run_flow(op, out)
                    self.final_E.setdefault(i, []).append((it, e_final))
                    self.records += rows
                else:
                    workloads.CHECKS[op.command](out)
            except Exception as exc:  # a wrong output fails its op, never the run
                self.failures[(it, i)] = f"{op.name}: {exc}"
        self.bytes_written = sum(f.stat().st_size for f in top.rglob("*") if f.is_file())
        shutil.rmtree(top, ignore_errors=True)
        return wall

    def check_references(self, cache: Path) -> None:
        for i, finals in self.final_E.items():
            op = self.ops[i]
            try:
                e_ref = workloads.reference_E(op, str(cache))
            except Exception as exc:
                for it, _ in finals:
                    self.failures[(it, i)] = f"{op.name}: reference failed: {exc}"
                continue
            for it, e in finals:
                dev = abs(e - e_ref) / max(1.0, abs(e_ref))
                self.e_ref_dev = max(self.e_ref_dev, dev)
                if dev > workloads.E_REF_TOL:
                    self.failures[(it, i)] = f"{op.name}: final E {e!r} vs reference {e_ref!r}"


def run_one(args, spec) -> dict:
    if not (SRC / "cryf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'cryf'}")
    work = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, spec, work: Path) -> dict:
    run = Run(args.workload, args.seed, args.smoke, work)
    setup = [] if args.trace else _setup_samples(run.ops, run.cfg_paths)

    sys.path.insert(0, str(SRC))
    import cryf

    mods = tracing.package_modules(cryf)
    tracing.check_required(mods)
    ledger = tracing.Ledger()
    counting = tracing.Patches(mods)
    ledger.install(counting, mods)
    tracer = tracing.Tracer()
    walls, traced_walls, span_sums, counts = _loop(args, run, mods, ledger, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counting.undo()

    if counts["rhs"] == 0:
        _rot("the workload made no flow right-hand-side evaluations")
    if args.workload in FLOW_WORKLOADS and counts["accepted"] == 0:
        _rot("a flow workload accepted no steps")
    run.check_references(ROOT / ".bench_cache")

    attempted = run.iterations * len(run.ops)
    failed = len(run.failures)
    for key in sorted(run.failures)[:10]:
        print(f"perfbench: failed op (iteration {key[0]}): {run.failures[key]}", file=sys.stderr)
    env = {
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(), "field_bytes": 8 * max(op.grid for op in run.ops) ** 3,
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "machine": platform.machine(),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke, "trace": args.trace,
        "iterations": run.iterations, "wall_s_q1_median_q3": _quartiles(walls),
        "wall_s_samples": walls, "attempted": attempted, "failed": failed,
        "ops_failed_ratio": failed / attempted, "e_ref_tol": workloads.E_REF_TOL,
        "e_ref_max_dev": run.e_ref_dev,
    }
    if args.trace:
        metrics = _layer_metrics(args.workload, run, walls, traced_walls, span_sums, ledger,
                                 env, detail)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "rhs_evals": counts["rhs"],
            "peak_rss_mb": peak_rss_mb,
        }
        detail["setup_s_samples"] = setup
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        _rot(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _loop(args, run: Run, mods, ledger, tracer):
    """Timed iterations; traced runs alternate untraced and traced ones."""
    walls, traced_walls = [], []
    span_sums: dict[str, list[float]] = {}
    counts = None
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and run.iterations % 2 == 1
        spans = tracing.Patches(mods)
        if traced:
            tracer.install(spans, mods)
        ledger.reset()
        try:
            wall = run.iterate(mods["cli"])
        finally:
            spans.undo()
        (traced_walls if traced else walls).append(wall)
        if traced:
            for name, agg in tracer.drain().items():
                acc = span_sums.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += agg[k]
        if counts is None:
            counts = ledger.counts()
        elif ledger.counts() != counts:
            _rot(f"work counts differ between iterations of one seed: {counts} vs {ledger.counts()}")
        elapsed = time.perf_counter() - t_start
        if traced and len(traced_walls) >= MIN_PAIRS \
                and elapsed + walls[-1] + traced_walls[-1] > args.seconds:
            return walls, traced_walls, span_sums, counts
        if not args.trace and len(walls) >= MIN_ITERATIONS \
                and elapsed + statistics.median(walls) > args.seconds:
            return walls, traced_walls, span_sums, counts


def _layer_metrics(workload, run: Run, walls, traced_walls, span_sums, ledger, env,
                   detail) -> dict:
    missing = [s for s in EXPECTED_SPANS[workload] if s not in span_sums]
    if missing:
        _rot(f"spans never reached: {missing}; a caller bypasses the wrapped names")
    n_traced = len(traced_walls)
    metrics = tracing.layer_metrics(span_sums, ledger, n_traced)
    if workload in FLOW_WORKLOADS and not run.failures:
        records = metrics["analysis.make_record.calls"]
        if records != run.records:
            _rot(f"make_record spans {records} != CSV records {run.records}")
        if metrics["geometry.div_form.calls"] != metrics["flow.rhs_evals"] + records:
            _rot("div_form calls != RHS evaluations + records; a kernel call is unwrapped")
    layer_self = {k: v / n_traced for k, v in tracing.layer_self(span_sums).items()}
    traced_wall = statistics.fmean(traced_walls)
    untraced_wall = statistics.fmean(walls)
    copy_bytes = min(max(4 * (env["l3_bytes"] or 0), 128 << 20), 256 << 20)
    env["copy_bytes"] = copy_bytes
    metrics.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
    metrics.update({
        "cli.bytes_written": run.bytes_written,
        "machine.copy_gbps": _copy_gbps(copy_bytes),
        "bench.traced_wall_s": traced_wall,
        "bench.untraced_wall_s": untraced_wall,
        "bench.other_s": traced_wall - sum(layer_self.values()),
        "bench.trace_overhead_s": traced_wall - untraced_wall,
    })
    detail["layer_share_of_traced_wall"] = {
        k: v / traced_wall for k, v in sorted(layer_self.items())}
    detail["traced_wall_s_samples"] = traced_walls
    return metrics


def validate(result: dict, spec: dict, trace: int) -> list[str]:
    """Problems with a result object against the contract; empty when valid."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a bool")
    att, fail = result["attempted"], result["failed"]
    if not (isinstance(att, int) and isinstance(fail, int) and att >= 1 and 0 <= fail <= att):
        errors.append(f"attempted={att!r} failed={fail!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"metric names differ: {sorted(set(got) ^ set(wanted))}")
    for name, m in got.items():
        v = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != wanted.get(name) \
                or isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"bad metric {name}: {m}")
        elif not trace and v == 0:
            errors.append(f"end-to-end metric {name} is 0")
    return errors


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    rows = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            errors = validate(result, spec, trace)
            if errors or not result["correct"]:
                print(f"{name} trace={trace}: {errors or 'incorrect output'}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
            if not trace:
                rows.append((name, result))
    for name, result in rows:
        m = result["metrics"]
        cells = [f"{k}={m[k]['value']:.6g} {m[k]['unit']}" for k in m]
        ratio = f"ops_failed_ratio={result['failed']}/{result['attempted']} failed/attempted"
        print(f"{name:14s} " + "  ".join(cells + [ratio]))
    print("schema: ok" if ok else "schema or correctness: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="8^3 grids and short t_end: checks the harness, measures nothing")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, spec)
    try:
        result = run_one(args, spec)
    except tracing.BenchmarkRot as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
