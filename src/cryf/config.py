"""Sectioned `key = value` run configuration.

Deliberately not an external config language: the format is line-based with
`[section]` headers, `#` comments, and typed keys.  Unknown sections or keys
are fatal (no silent typos), duplicates are errors citing both lines, and
every parse or validation failure carries a line and column.

Each section's keys are the fields of its dataclass, parsed by the field's
type annotation; the dataclasses are the only list of keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .errors import ConfigurationError
from .flow import FlowConfig
from .geometry import GridSpec
from .presets import PRESETS


def _require_finite(config, names, allow_zero: bool = False) -> None:
    rule = "non-negative" if allow_zero else "positive"
    for name in names:
        value = getattr(config, name)
        if not (math.isfinite(value) and (value >= 0.0 if allow_zero else value > 0.0)):
            raise ValueError(f"{name} must be {rule} and finite, got {value}")


@dataclass(frozen=True)
class InitialDataConfig:
    preset: str = "constant"
    c: float = 1.0
    epsilon: float = 0.1
    seed: int = 0
    amplitude: float = 0.2
    smoothing_passes: int = 2


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
    include_negative_controls: bool = True

    def __post_init__(self) -> None:
        _require_finite(self, ("flow_tol", "var_tol"))
        for name in ("sigma_slope", "psi_rate", "times", "sweep_base_constants",
                     "sweep_psi_rates"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class OutputConfig:
    csv: str = "flow.csv"
    report: str = "report.txt"
    residuals: str = "residuals.txt"
    orders: str = "orders.txt"
    verdicts: str = "verdicts.txt"
    snapshot_prefix: str = "snap"


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
    return lambda text: tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())


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

# section -> key -> (field name, converter, expected); every key is a field of
# its section's dataclass, and an annotation with no parser fails here at import
_SCHEMA = {
    section: {
        _KEY_NAMES.get(section, {}).get(f.name, f.name): (f.name, *_PARSERS[f.type])
        for f in fields(cls)
    }
    for section, cls in _SECTIONS.items()
}

_REQUIRED = {"geometry": ("N_x", "N_y", "N_z"), "initial_data": ("preset",)}


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


def _values(name: str, entries: dict[str, _Entry]) -> dict:
    """Field name -> parsed value; a value that does not parse is an error at its position."""
    values = {}
    for key, entry in entries.items():
        field, convert, expected = _SCHEMA[name][key]
        try:
            values[field] = convert(entry.value)
        except ValueError:
            raise ConfigurationError(
                f"line {entry.line}, column {entry.col}: "
                f"expected {expected} for {key}, got {entry.value!r}"
            ) from None
    return values


def _build_section(sections, name):
    values = _values(name, sections.get(name, {}))
    try:
        return _SECTIONS[name](**values)
    except ValueError as exc:
        raise ConfigurationError(f"[{name}]: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration."""
    sections = _tokenize(text)
    for sec, keys in _REQUIRED.items():
        if sec not in sections:
            raise ConfigurationError(f"missing required section [{sec}]")
        for key in keys:
            if key not in sections[sec]:
                raise ConfigurationError(f"missing required key {key!r} in [{sec}]")
    geo = sections["geometry"]
    # N_x, N_y, N_z parse in that order whatever the file order; GridSpec
    # raises ConfigurationError itself, without the [section] prefix
    spec = GridSpec(**_values("geometry", {key: geo[key] for key in _SCHEMA["geometry"]}))
    initial = _build_section(sections, "initial_data")
    if initial.preset not in PRESETS:
        entry = sections["initial_data"]["preset"]
        raise ConfigurationError(
            f"line {entry.line}, column {entry.col}: unknown preset "
            f"{initial.preset!r}; choose from {PRESETS}"
        )
    return RunConfig(
        geometry=spec,
        initial=initial,
        flow=_build_section(sections, "flow"),
        analysis=_build_section(sections, "analysis"),
        soliton=_build_section(sections, "soliton"),
        output=_build_section(sections, "output"),
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
