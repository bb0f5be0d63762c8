"""Sectioned `key = value` run configuration.

Deliberately not an external config language: the format is line-based with
`[section]` headers, `#` comments, and typed keys.  Unknown sections or keys
are fatal (no silent typos), duplicates are errors citing both lines, and
every parse or validation failure carries a line and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .flow import FlowConfig
from .geometry import GridSpec
from .presets import PRESETS


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
    constancy_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


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


def _parse_int(entry: _Entry, key: str) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise ConfigurationError(
            f"line {entry.line}, column {entry.col}: "
            f"expected integer for {key}, got {entry.value!r}"
        ) from None


def _parse_float(entry: _Entry, key: str) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise ConfigurationError(
            f"line {entry.line}, column {entry.col}: "
            f"expected number for {key}, got {entry.value!r}"
        ) from None


def _parse_bool(entry: _Entry, key: str) -> bool:
    low = entry.value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigurationError(
        f"line {entry.line}, column {entry.col}: "
        f"expected true/false for {key}, got {entry.value!r}"
    )


def _parse_str(entry: _Entry, key: str) -> str:
    return entry.value


def _parse_int_list(entry: _Entry, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in entry.value.split(",") if tok.strip())
    except ValueError:
        raise ConfigurationError(
            f"line {entry.line}, column {entry.col}: "
            f"expected comma-separated integers for {key}, got {entry.value!r}"
        ) from None


def _parse_float_list(entry: _Entry, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok.strip()) for tok in entry.value.split(",") if tok.strip())
    except ValueError:
        raise ConfigurationError(
            f"line {entry.line}, column {entry.col}: "
            f"expected comma-separated numbers for {key}, got {entry.value!r}"
        ) from None


_SCHEMA = {
    "geometry": {"N_x": _parse_int, "N_y": _parse_int, "N_z": _parse_int},
    "initial_data": {
        "preset": _parse_str,
        "c": _parse_float,
        "epsilon": _parse_float,
        "seed": _parse_int,
        "amplitude": _parse_float,
        "smoothing_passes": _parse_int,
    },
    "flow": {
        "t_end": _parse_float,
        "dt_init": _parse_float,
        "dt_min": _parse_float,
        "dt_max": _parse_float,
        "safety": _parse_float,
        "err_tol": _parse_float,
        "u_floor": _parse_float,
        "record_every": _parse_int,
        "snapshot_every": _parse_int,
    },
    "analysis": {
        "delta": _parse_float,
        "grids": _parse_int_list,
        "max_volume_rate": _parse_float,
        "max_mean_curvature_rate": _parse_float,
        "max_curvature_evolution": _parse_float,
        "max_dEdt_mismatch": _parse_float,
        "max_scaling_invariance": _parse_float,
        "max_pullback_invariance": _parse_float,
        "min_order_untwisted": _parse_float,
        "min_order_twisted": _parse_float,
        "constancy_tol": _parse_float,
    },
    "soliton": {
        "sigma_slope": _parse_float,
        "psi_rate": _parse_float,
        "times": _parse_float_list,
        "flow_tol": _parse_float,
        "var_tol": _parse_float,
        "sweep": _parse_bool,
        "sweep_base_constants": _parse_float_list,
        "sweep_psi_rates": _parse_float_list,
        "include_negative_controls": _parse_bool,
    },
    "output": {
        "csv": _parse_str,
        "report": _parse_str,
        "residuals": _parse_str,
        "orders": _parse_str,
        "verdicts": _parse_str,
        "snapshot_prefix": _parse_str,
    },
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


def _build_section(sections, name, cls):
    entries = sections.get(name, {})
    kwargs = {}
    for key, entry in entries.items():
        kwargs[key] = _SCHEMA[name][key](entry, key)
    try:
        return cls(**kwargs)
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
    spec = GridSpec(
        _parse_int(geo["N_x"], "N_x"),
        _parse_int(geo["N_y"], "N_y"),
        _parse_int(geo["N_z"], "N_z"),
    )
    initial = _build_section(sections, "initial_data", InitialDataConfig)
    if initial.preset not in PRESETS:
        entry = sections["initial_data"]["preset"]
        raise ConfigurationError(
            f"line {entry.line}, column {entry.col}: unknown preset "
            f"{initial.preset!r}; choose from {PRESETS}"
        )
    return RunConfig(
        geometry=spec,
        initial=initial,
        flow=_build_section(sections, "flow", FlowConfig),
        analysis=_build_section(sections, "analysis", AnalysisConfig),
        soliton=_build_section(sections, "soliton", SolitonConfig),
        output=_build_section(sections, "output", OutputConfig),
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
