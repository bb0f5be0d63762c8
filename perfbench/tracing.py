"""Counters and spans wrapped around the program's functions from outside.

Nothing here edits the program.  Each wrapper replaces a function at every
module attribute of the package that refers to it, which is where callers
look it up (``cryf.flow.make_record`` as well as ``cryf.analysis.make_record``).
A name the benchmark relies on that has gone missing, or an invariant of
the counts that no longer holds, raises `BenchmarkRot`: it derives from
BaseException so that neither the program nor the per-operation failure
handling can swallow it, and the run stops loudly.
"""

from __future__ import annotations

import functools
import inspect
import time
from statistics import median

# package module -> layer; `cli` also covers `config` and `snapshot`
LAYER_OF_MODULE = {
    "geometry": "geometry",
    "manufactured": "geometry",
    "conformal": "conformal",
    "presets": "conformal",
    "flow": "flow",
    "analysis": "analysis",
    "soliton": "soliton",
    "cli": "cli",
    "config": "cli",
    "snapshot": "cli",
}
LAYERS = ("geometry", "conformal", "flow", "analysis", "soliton", "cli")

# (module, name) pairs whose absence means the benchmark no longer measures
# what it claims to
REQUIRED = (
    ("flow", "_du_dt"), ("flow", "_rk4_any"), ("flow", "step_adaptive"),
    ("flow", "integrate_fixed"), ("flow", "make_record"),
    ("conformal", "_webster_raw"), ("conformal", "webster_curvature"),
    ("geometry", "sub_laplacian_base"), ("geometry", "weighted_div_form"),
    ("analysis", "make_record"), ("analysis", "yamabe_quantity"),
    ("analysis", "curvature_variance"), ("analysis", "dE_dt_formula"),
    ("analysis", "constancy_verdict"), ("analysis", "identity_window"),
    ("analysis", "curvature_evolution_residual"),
    ("soliton", "soliton_theorem_harness"), ("soliton", "soliton_state"),
    ("snapshot", "write_snapshot"), ("cli", "write_snapshot"),
    ("cli", "main"), ("config", "load_config"), ("cli", "load_config"),
)
# private functions that get spans besides every public function
PRIVATE_SPANS = (("flow", "_du_dt"), ("flow", "_rk4_any"), ("conformal", "_webster_raw"))
# each accepted step-doubling attempt: full step + two half steps of 4 stages
RK4_CALLS_PER_ATTEMPT = 3
EVALS_PER_ATTEMPT = 12


class BenchmarkRot(BaseException):
    """The program no longer has the shape the benchmark's wrappers assume."""


def package_modules(cryf) -> dict[str, object]:
    import importlib

    mods = {"cryf": cryf}
    for name in LAYER_OF_MODULE:
        mods[name] = importlib.import_module(f"cryf.{name}")
    return mods


def check_required(mods) -> None:
    for mod, name in REQUIRED:
        if not hasattr(mods[mod], name):
            raise BenchmarkRot(f"cryf.{mod}.{name} is missing; update perfbench/tracing.py")


class Patches:
    """Replaces a function at every package attribute bound to it; `undo` restores."""

    def __init__(self, mods):
        self._mods = list(mods.values())
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make_wrapper) -> None:
        old = getattr(owner, name)
        new = make_wrapper(old)
        for mod in self._mods:
            for attr, val in list(vars(mod).items()):
                if val is old:
                    self._undo.append((mod, attr, old))
                    setattr(mod, attr, new)

    def undo(self) -> None:
        for mod, attr, old in reversed(self._undo):
            setattr(mod, attr, old)
        self._undo.clear()


class Ledger:
    """Machine-independent work counts of one workload iteration.

    `rhs` counts flow right-hand-side evaluations.  Inside `step_adaptive`
    the calls to the four-stage kernel are grouped into attempts of three
    (full step, two half steps): an attempt cut short by StepPositivityError
    is a positivity rejection, a completed attempt that is not the last one
    of the step is an error rejection.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.rhs = 0
        self.accepted = 0
        self.rejected_error = 0
        self.rejected_positivity = 0
        self.step_evals = 0
        self.useful_evals = 0
        self.flow_time = 0.0
        self.dt_n2: list[float] = []
        self.div_points = {"sub_laplacian_base": 0, "weighted_div_form": 0}
        self._in_step = False
        self._calls = 0
        self._completed = 0
        self._attempt_rhs0 = 0
        self._last_attempt = 0

    def counts(self) -> dict[str, int]:
        return {"rhs": self.rhs, "accepted": self.accepted,
                "rejected_error": self.rejected_error,
                "rejected_positivity": self.rejected_positivity,
                "step_evals": self.step_evals, "useful_evals": self.useful_evals,
                **self.div_points}

    def install(self, patches: Patches, mods) -> None:
        flow = mods["flow"]
        positivity_error = mods["cryf"].StepPositivityError

        def rhs(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.rhs += 1
                return fn(*args, **kwargs)
            return counted

        def rk4(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not self._in_step:
                    return fn(*args, **kwargs)
                if self._calls == 0:
                    self._attempt_rhs0 = self.rhs
                try:
                    out = fn(*args, **kwargs)
                except positivity_error:
                    self.rejected_positivity += 1
                    self._calls = 0
                    raise
                self._calls += 1
                if self._calls == RK4_CALLS_PER_ATTEMPT:
                    self._completed += 1
                    self._last_attempt = self.rhs - self._attempt_rhs0
                    self._calls = 0
                return out
            return counted

        def step(fn):
            @functools.wraps(fn)
            def counted(state, *args, **kwargs):
                rhs0 = self.rhs
                self._in_step, self._calls, self._completed = True, 0, 0
                try:
                    out = fn(state, *args, **kwargs)
                except Exception:
                    self.rejected_error += self._completed
                    raise
                finally:
                    self._in_step = False
                    self.step_evals += self.rhs - rhs0
                if self._calls != 0 or self._completed < 1 \
                        or self._last_attempt != EVALS_PER_ATTEMPT:
                    raise BenchmarkRot(
                        "step_adaptive no longer makes step-doubling RK4 attempts of "
                        f"{EVALS_PER_ATTEMPT} evaluations; update the Ledger")
                dt = out[1]
                self.accepted += 1
                self.rejected_error += self._completed - 1
                self.useful_evals += self._last_attempt
                self.flow_time += dt
                self.dt_n2.append(dt * max(state.geom.shape) ** 2)
                return out
            return counted

        def points(name):
            def make(fn):
                @functools.wraps(fn)
                def counted(geom, *args, **kwargs):
                    self.div_points[name] += geom.spec.npoints
                    return fn(geom, *args, **kwargs)
                return counted
            return make

        patches.wrap(flow, "_du_dt", rhs)
        patches.wrap(flow, "_rk4_any", rk4)
        patches.wrap(flow, "step_adaptive", step)
        for name in self.div_points:
            patches.wrap(mods["geometry"], name, points(name))


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def install(self, patches: Patches, mods) -> None:
        """Span every public function of each layer module, plus PRIVATE_SPANS."""
        targets = list(PRIVATE_SPANS)
        for mod in LAYER_OF_MODULE:
            for name, val in vars(mods[mod]).items():
                if (inspect.isfunction(val) and not name.startswith("_")
                        and val.__module__ == f"cryf.{mod}"):
                    targets.append((mod, name))
        for mod, name in targets:
            patches.wrap(mods[mod], name, lambda fn, s=f"{mod}.{name}": self.span(s, fn))

    def drain(self) -> dict[str, list[float]]:
        """Per span name: [calls, inclusive s, self s]; clears the spans.

        Self time is a span's duration minus the durations of its children.
        No function is spanned inside a call of itself, so inclusive sums
        do not double count.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        self.spans.clear()
        return out


def layer_self(per_name: dict[str, list[float]]) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_calls, _incl, self_s) in per_name.items():
        out[LAYER_OF_MODULE[name.split(".", 1)[0]]] += self_s
    return out


def _sum(per_name, names, idx):
    return sum(per_name.get(n, (0, 0.0, 0.0))[idx] for n in names)


DIV_FORM = ("geometry.sub_laplacian_base", "geometry.weighted_div_form")
WEBSTER = ("conformal._webster_raw", "conformal.webster_curvature")
MOMENTS = ("analysis.make_record", "analysis.yamabe_quantity", "analysis.curvature_variance",
           "analysis.dE_dt_formula", "analysis.constancy_verdict")


def layer_metrics(per_name, ledger: Ledger, n_iter: int) -> dict[str, float]:
    """Per-iteration layer metrics from span sums over `n_iter` traced iterations.

    `ledger` holds the last iteration's exact counts; times are means.
    """
    counts = ledger.counts()
    def calls(names):
        return _sum(per_name, names, 0) // n_iter

    def incl(names):
        return _sum(per_name, names, 1) / n_iter

    def self_s(names):
        return _sum(per_name, names, 2) / n_iter

    div_self = self_s(DIV_FORM)
    points = counts["sub_laplacian_base"] + counts["weighted_div_form"]
    # compulsory traffic: the kernel reads f (and w) and writes one field
    div_bytes = 8 * (2 * counts["sub_laplacian_base"] + 3 * counts["weighted_div_form"])
    acc = counts["accepted"]
    step_evals = counts["step_evals"]
    return {
        "geometry.div_form.calls": calls(DIV_FORM),
        "geometry.div_form.self_s": div_self,
        "geometry.div_form.ns_per_point": 1e9 * div_self / points if points else 0.0,
        "geometry.div_form.gbps_computed": div_bytes / div_self / 1e9 if div_self else 0.0,
        "conformal.webster.calls": calls(WEBSTER[:1]),
        "conformal.webster.self_s": self_s(WEBSTER),
        "flow.rhs_evals": counts["rhs"],
        "flow.steps_accepted": acc,
        "flow.steps_rejected_error": counts["rejected_error"],
        "flow.steps_rejected_positivity": counts["rejected_positivity"],
        "flow.evals_per_step": step_evals / acc if acc else 0.0,
        "flow.evals_per_flow_time": step_evals / ledger.flow_time if acc else 0.0,
        "flow.useful_eval_ratio": counts["useful_evals"] / step_evals if step_evals else 0.0,
        "flow.dt_n2_median": median(ledger.dt_n2) if ledger.dt_n2 else 0.0,
        "flow.step_adaptive.self_s": self_s(("flow.step_adaptive",)),
        "flow.integrate_fixed.calls": calls(("flow.integrate_fixed",)),
        "flow.integrate_fixed.s": incl(("flow.integrate_fixed",)),
        "analysis.identity_window.s": incl(("analysis.identity_window",)),
        "analysis.curvature_evolution_residual.s": incl(("analysis.curvature_evolution_residual",)),
        "analysis.make_record.calls": calls(("analysis.make_record",)),
        "analysis.make_record.s": incl(("analysis.make_record",)),
        "analysis.make_record.self_s": self_s(("analysis.make_record",)),
        "analysis.moment_entries.calls": calls(MOMENTS),
        "soliton.harness.s": incl(("soliton.soliton_theorem_harness",)),
        "soliton.soliton_state.calls": calls(("soliton.soliton_state",)),
        "snapshot.write_snapshot.s": incl(("snapshot.write_snapshot",)),
    }
