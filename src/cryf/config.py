"""Sectioned `key = value` run configuration.

Deliberately not an external config language: the format is line-based with
`[section]` headers, `#` comments, and typed keys.  Unknown sections or keys
are fatal (no silent typos), duplicates are errors citing both lines, and a
line, name or value that does not parse, or an unknown preset, is an error at
its line and column; a missing required key or a broken range rule has none.

Each section is one dataclass, the only declaration of its keys: a field is a
key parsed by its type annotation, required when it has no default, and the
range rules are in `__post_init__`.  Keys are parsed in field order.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

from .conformal import DEFAULT_U_FLOOR
from .errors import ConfigurationError
from .geometry import GridSpec

PRESETS = ("constant", "single_mode_y", "single_mode_x", "random_smooth")


def _require_finite(config, names, allow_zero: bool = False) -> None:
    rule = "non-negative" if allow_zero else "positive"
    for name in names:
        value = getattr(config, name)
        if not (math.isfinite(value) and (value >= 0.0 if allow_zero else value > 0.0)):
            raise ValueError(f"{name} must be {rule} and finite, got {value}")


@dataclass(frozen=True)
class InitialDataConfig:
    preset: str
    c: float = 1.0
    epsilon: float = 0.1
    seed: int = 0
    amplitude: float = 0.2
    smoothing_passes: int = 2

    def __post_init__(self) -> None:
        # an unknown name, like an unknown key, is positioned at its line by the parse
        if self.preset not in PRESETS:
            raise LookupError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        # each preset reads only its own settings, and checks only those
        if self.preset == "constant":
            if not 0.0 < self.c < math.inf:
                raise ValueError(f"constant preset needs finite c > 0, got {self.c}")
        elif self.preset in ("single_mode_y", "single_mode_x"):
            if not (self.c - abs(self.epsilon) > 0.0 and self.c + abs(self.epsilon) < math.inf):
                raise ValueError(f"mode preset needs c - |epsilon| > 0 and c + |epsilon| "
                                 f"finite, got c={self.c}, epsilon={self.epsilon}")
        elif not 0.0 < self.amplitude < 1.0:
            raise ValueError(f"random_smooth needs amplitude in (0, 1), got {self.amplitude}")
        elif self.smoothing_passes < 0:
            raise ValueError("smoothing_passes must be >= 0")
        elif self.seed < 0:
            raise ValueError(f"random_smooth needs seed >= 0, got {self.seed}")


@dataclass(frozen=True)
class FlowConfig:
    t_end: float = 0.02
    dt_init: float = 1e-6
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    safety: float = 0.9
    err_tol: float = 1e-8
    u_floor: float = DEFAULT_U_FLOOR
    record_every: int = 1
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        _require_finite(self, ("t_end",), allow_zero=True)
        _require_finite(self, ("dt_init", "dt_min", "dt_max", "safety", "err_tol", "u_floor"))
        if not self.dt_min <= self.dt_init <= self.dt_max:
            raise ValueError(f"need 0 < dt_min <= dt_init <= dt_max, got "
                             f"({self.dt_min}, {self.dt_init}, {self.dt_max})")
        if self.safety > 1.0:
            raise ValueError(f"safety must be at most 1, got {self.safety}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be positive, got {self.record_every}")
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be non-negative, got {self.snapshot_every}")


@dataclass(frozen=True)
class AnalysisConfig:
    delta: float = 1e-4
    grids: tuple[int, ...] = (8, 16, 32)
    # identity-check bounds; calibrated on single_mode_y (epsilon=0.1) at 16^3,
    # delta=1e-4 -- see README for the measured values these envelop
    max_volume_rate: float = 2e-3
    max_mean_curvature_rate: float = 2e-3
    max_curvature_evolution: float = 5e-3
    max_dEdt_mismatch: float = 1e-2
    max_scaling_invariance: float = 1e-12
    max_pullback_invariance: float = 1e-12
    min_order_untwisted: float = 1.8
    min_order_twisted: float = 0.9

    def __post_init__(self) -> None:
        _require_finite(self, ("delta", "min_order_untwisted", "min_order_twisted"))
        # an identity bound of zero demands an exact identity
        _require_finite(self, [n for n in vars(self) if n.startswith("max_")], allow_zero=True)
        if len(self.grids) < 2:
            raise ValueError("convergence study needs at least 2 grid sizes")
        if list(self.grids) != sorted(set(self.grids)):
            raise ValueError(f"grid list must be strictly increasing, got {self.grids}")
        # each is N_x = N_y = N_z of a convergence grid, and GridSpec needs 4
        if self.grids[0] < 4:
            raise ValueError(f"grids must be at least 4, got {self.grids}")


@dataclass(frozen=True)
class SolitonConfig:
    sigma_slope: float = 0.0
    psi_rate: float = 0.0
    times: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    flow_tol: float = 1e-8
    var_tol: float = 1e-6
    sweep: bool = True
    sweep_base_constants: tuple[float, ...] = (0.5, 1.0, 2.0)
    sweep_psi_rates: tuple[float, ...] = (0.0, 1.0, 2.0)

    def __post_init__(self) -> None:
        _require_finite(self, ("flow_tol", "var_tol"))
        for name in ("sigma_slope", "psi_rate", "times", "sweep_base_constants",
                     "sweep_psi_rates"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be finite, got {value}")
        # an empty sample would pass every family vacuously
        for name in ("times", "sweep_base_constants", "sweep_psi_rates"):
            if not getattr(self, name) and (name == "times" or self.sweep):
                raise ValueError(f"{name} must list at least one value")
        # each is the c of a constant base
        if self.sweep and not all(c > 0.0 for c in self.sweep_base_constants):
            raise ValueError(
                f"sweep_base_constants must be positive, got {self.sweep_base_constants}")


@dataclass(frozen=True)
class OutputConfig:
    csv: str = "flow.csv"
    report: str = "report.txt"
    residuals: str = "residuals.txt"
    orders: str = "orders.txt"
    verdicts: str = "verdicts.txt"
    snapshot_prefix: str = "snap"

    def __post_init__(self) -> None:
        # every output is a file of --out: no folder part, not --out or its parent,
        # and no NUL byte, which no path can hold
        for name, value in vars(self).items():
            if (os.path.basename(value) != value or value in ("", os.curdir, os.pardir)
                    or "\0" in value):
                raise ValueError(f"{name} must be a file name in --out, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    geometry: GridSpec
    initial: InitialDataConfig
    flow: FlowConfig
    analysis: AnalysisConfig
    soliton: SolitonConfig
    output: OutputConfig


@dataclass(frozen=True)
class _Entry:
    value: str
    line: int
    col: int


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(text)


def _list_of(convert):
    # an empty value is an empty list, but an empty item is no item of any type
    return lambda text: tuple(convert(tok) for tok in text.split(",")) if text.strip() else ()


# field annotation -> (converter, what a "line L, column C: expected ..." error names)
_PARSERS = {
    "int": (int, "integer"),
    "float": (float, "number"),
    "bool": (_bool, "true/false"),
    "str": (str, "text"),
    "tuple[int, ...]": (_list_of(int), "comma-separated integers"),
    "tuple[float, ...]": (_list_of(float), "comma-separated numbers"),
}

# [section] -> dataclass, read off the RunConfig fields; [initial_data] fills `initial`
_SECTIONS = {
    "initial_data" if name == "initial" else name: cls
    for name, cls in get_type_hints(RunConfig).items()
}
# [geometry] spells the GridSpec fields nx, ny, nz as N_x, N_y, N_z
_KEY_NAMES = {"geometry": {"nx": "N_x", "ny": "N_y", "nz": "N_z"}}

# section -> key -> (field name, converter, expected, required), in field order;
# every key is a field of its section's dataclass, required when the field has
# no default, and an annotation with no parser fails here at import
_SCHEMA = {
    section: {
        _KEY_NAMES.get(section, {}).get(f.name, f.name):
            (f.name, *_PARSERS[f.type], f.default is MISSING)
        for f in fields(cls)
    }
    for section, cls in _SECTIONS.items()
}


def _tokenize(text: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigurationError(
                    f"line {lineno}, column 1: malformed section header {line!r}"
                )
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigurationError(
                    f"line {lineno}, column 1: unknown section [{name}]; "
                    f"known sections: {', '.join(sorted(_SCHEMA))}"
                )
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {lineno}, column 1: expected 'key = value', got {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        col = raw.index(key) + 1 if key and key in raw else 1
        if current is None:
            raise ConfigurationError(
                f"line {lineno}, column {col}: key {key!r} appears before any [section]"
            )
        if not key:
            raise ConfigurationError(f"line {lineno}, column 1: empty key")
        if key not in _SCHEMA[current]:
            raise ConfigurationError(
                f"line {lineno}, column {col}: unknown key {key!r} in [{current}]; "
                f"known keys: {', '.join(sorted(_SCHEMA[current]))}"
            )
        if key in sections[current]:
            first = sections[current][key]
            raise ConfigurationError(
                f"line {lineno}, column {col}: duplicate key {key!r} in [{current}] "
                f"(first defined at line {first.line})"
            )
        sections[current][key] = _Entry(value, lineno, col)
    return sections


def _build_section(sections, name):
    """The dataclass of section `name`, its keys taken in field order.

    A missing required key, a value that does not parse and an unknown preset
    are errors; a range rule's ValueError gains the section as a prefix, but
    GridSpec's own ConfigurationError passes through as it is.
    """
    entries = sections.get(name, {})
    values = {}
    for key, (field, convert, expected, required) in _SCHEMA[name].items():
        if key in entries:
            entry = entries[key]
            try:
                values[field] = convert(entry.value)
            except ValueError:
                raise ConfigurationError(f"line {entry.line}, column {entry.col}: expected "
                                         f"{expected} for {key}, got {entry.value!r}") from None
        elif required:
            where = f"key {key!r} in [{name}]" if name in sections else f"section [{name}]"
            raise ConfigurationError(f"missing required {where}")
    try:
        return _SECTIONS[name](**values)
    except ConfigurationError:
        raise
    except LookupError as exc:
        entry = entries["preset"]
        raise ConfigurationError(f"line {entry.line}, column {entry.col}: {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"[{name}]: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration."""
    sections = _tokenize(text)
    return RunConfig(*(_build_section(sections, name) for name in _SECTIONS))


def load_config(path) -> RunConfig:
    try:
        # a leading byte-order mark is dropped after decoding, so offsets count it
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        ) from None
    return parse_config(text)
