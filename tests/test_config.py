import dataclasses
import functools

import pytest

from cryf.config import RunConfig, parse_config
from cryf.errors import ConfigurationError

MINIMAL = """
[geometry]
N_x = 16
N_y = 16
N_z = 16

[initial_data]
preset = constant
"""


class TestMinimalConfig:
    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL)
        assert cfg.geometry.nx == cfg.geometry.ny == cfg.geometry.nz == 16
        assert cfg.initial.preset == "constant"
        assert cfg.flow.err_tol == 1e-8
        assert cfg.analysis.grids == (8, 16, 32)
        assert cfg.soliton.sweep is True
        assert cfg.output.csv == "flow.csv"

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
        parse_config(text)

    def test_full_sections_roundtrip(self):
        text = MINIMAL + """
[flow]
t_end = 0.1
record_every = 7

[analysis]
grids = 8,16
delta = 5e-5

[soliton]
times = 0.0,0.5,1.0
sweep = false
psi_rate = 2.0

[output]
csv = out.csv
"""
        cfg = parse_config(text)
        assert cfg.flow.t_end == 0.1 and cfg.flow.record_every == 7
        assert cfg.analysis.grids == (8, 16)
        assert cfg.analysis.delta == 5e-5
        assert cfg.soliton.times == (0.0, 0.5, 1.0)
        assert cfg.soliton.sweep is False
        assert cfg.output.csv == "out.csv"


# every documented key: (section, key, non-default value, RunConfig attribute, parsed value)
DOCUMENTED_KEYS = [
    ("geometry", "N_x", "8", "geometry.nx", 8),
    ("geometry", "N_y", "4", "geometry.ny", 4),
    ("geometry", "N_z", "12", "geometry.nz", 12),
    ("initial_data", "preset", "single_mode_x", "initial.preset", "single_mode_x"),
    ("initial_data", "c", "1.5", "initial.c", 1.5),
    ("initial_data", "epsilon", "0.3", "initial.epsilon", 0.3),
    ("initial_data", "seed", "7", "initial.seed", 7),
    ("initial_data", "amplitude", "0.4", "initial.amplitude", 0.4),
    ("initial_data", "smoothing_passes", "3", "initial.smoothing_passes", 3),
    ("flow", "t_end", "0.5", "flow.t_end", 0.5),
    ("flow", "dt_init", "2e-6", "flow.dt_init", 2e-6),
    ("flow", "dt_min", "1e-11", "flow.dt_min", 1e-11),
    ("flow", "dt_max", "5e-3", "flow.dt_max", 5e-3),
    ("flow", "safety", "0.8", "flow.safety", 0.8),
    ("flow", "err_tol", "1e-7", "flow.err_tol", 1e-7),
    ("flow", "u_floor", "1e-5", "flow.u_floor", 1e-5),
    ("flow", "record_every", "3", "flow.record_every", 3),
    ("flow", "snapshot_every", "4", "flow.snapshot_every", 4),
    ("analysis", "delta", "2e-4", "analysis.delta", 2e-4),
    ("analysis", "grids", "4,8", "analysis.grids", (4, 8)),
    ("analysis", "max_volume_rate", "3e-3", "analysis.max_volume_rate", 3e-3),
    ("analysis", "max_mean_curvature_rate", "4e-3", "analysis.max_mean_curvature_rate", 4e-3),
    ("analysis", "max_curvature_evolution", "6e-3", "analysis.max_curvature_evolution", 6e-3),
    ("analysis", "max_dEdt_mismatch", "2e-2", "analysis.max_dEdt_mismatch", 2e-2),
    ("analysis", "max_scaling_invariance", "1e-11", "analysis.max_scaling_invariance", 1e-11),
    ("analysis", "max_pullback_invariance", "1e-10", "analysis.max_pullback_invariance", 1e-10),
    ("analysis", "min_order_untwisted", "1.7", "analysis.min_order_untwisted", 1.7),
    ("analysis", "min_order_twisted", "0.8", "analysis.min_order_twisted", 0.8),
    ("soliton", "sigma_slope", "0.5", "soliton.sigma_slope", 0.5),
    ("soliton", "psi_rate", "1.0", "soliton.psi_rate", 1.0),
    ("soliton", "times", "0.0,0.5", "soliton.times", (0.0, 0.5)),
    ("soliton", "flow_tol", "1e-9", "soliton.flow_tol", 1e-9),
    ("soliton", "var_tol", "1e-5", "soliton.var_tol", 1e-5),
    ("soliton", "sweep", "no", "soliton.sweep", False),
    ("soliton", "sweep_base_constants", "0.25", "soliton.sweep_base_constants", (0.25,)),
    ("soliton", "sweep_psi_rates", "0.0,4.0", "soliton.sweep_psi_rates", (0.0, 4.0)),
    ("soliton", "include_negative_controls", "false",
     "soliton.include_negative_controls", False),
    ("output", "csv", "a.csv", "output.csv", "a.csv"),
    ("output", "report", "a.txt", "output.report", "a.txt"),
    ("output", "residuals", "b.txt", "output.residuals", "b.txt"),
    ("output", "orders", "c.txt", "output.orders", "c.txt"),
    ("output", "verdicts", "d.txt", "output.verdicts", "d.txt"),
    ("output", "snapshot_prefix", "frame", "output.snapshot_prefix", "frame"),
]


def _lookup(cfg, attr):
    return functools.reduce(getattr, attr.split("."), cfg)


class TestDocumentedKeys:
    def test_every_key_lands_in_run_config(self):
        sections: dict[str, list[str]] = {}
        for section, key, value, _, _ in DOCUMENTED_KEYS:
            sections.setdefault(section, []).append(f"{key} = {value}")
        text = "".join(f"[{sec}]\n" + "\n".join(lines) + "\n"
                       for sec, lines in sections.items())
        cfg = parse_config(text)
        defaults = parse_config(MINIMAL)
        for _, _, _, attr, expected in DOCUMENTED_KEYS:
            assert _lookup(cfg, attr) == expected, attr
            assert _lookup(defaults, attr) != expected, attr

    def test_no_undocumented_fields(self):
        fields = [f"{section.name}.{f.name}" for section in dataclasses.fields(RunConfig)
                  for f in dataclasses.fields(getattr(parse_config(MINIMAL), section.name))]
        assert sorted(fields) == sorted(attr for _, _, _, attr, _ in DOCUMENTED_KEYS)
        assert len(fields) == 43

    def test_constancy_tol_is_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown key 'constancy_tol'"):
            parse_config(MINIMAL + "\n[analysis]\nconstancy_tol = 1e-8\n")


class TestValidation:
    def test_divisibility_rule_named(self):
        text = MINIMAL.replace("N_y = 16", "N_y = 8").replace("N_z = 16", "N_z = 12")
        with pytest.raises(ConfigurationError, match="N_y must divide N_z"):
            parse_config(text)

    def test_duplicate_key_cites_both_lines(self):
        text = MINIMAL + "\n[flow]\nt_end = 0.1\nt_end = 0.2\n"
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "duplicate" in msg and "line 12" in msg and "line 11" in msg

    def test_unknown_key_fatal(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config(MINIMAL + "\n[flow]\ndt_weird = 1\n")

    def test_unknown_section_fatal(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            parse_config(MINIMAL + "\n[warp]\nk = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigurationError, match="before any"):
            parse_config("N_x = 8\n" + MINIMAL)

    def test_missing_required(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            parse_config("[geometry]\nN_x = 8\nN_y = 8\nN_z = 8\n")
        with pytest.raises(ConfigurationError, match="missing required"):
            parse_config("[initial_data]\npreset = constant\n")

    @pytest.mark.parametrize("text, message", [
        (MINIMAL.replace("N_x = 16", "N_x = sixteen"),
         "line 3, column 1: expected integer for N_x, got 'sixteen'"),
        (MINIMAL + "\n[flow]\n  t_end = soon\n",
         "line 11, column 3: expected number for t_end, got 'soon'"),
        (MINIMAL + "\n[soliton]\nsweep = maybe\n",
         "line 11, column 1: expected true/false for sweep, got 'maybe'"),
        (MINIMAL + "\n[analysis]\ndelta = 1e-4\n grids = 8,16.5\n",
         "line 12, column 2: expected comma-separated integers for grids, got '8,16.5'"),
        (MINIMAL + "\n[soliton]\ntimes = 0.0,half\n",
         "line 11, column 1: expected comma-separated numbers for times, got '0.0,half'"),
    ], ids=["int", "float", "bool", "int_list", "float_list"])
    def test_type_errors_carry_position(self, text, message):
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        assert str(err.value) == message

    def test_bad_bool(self):
        with pytest.raises(ConfigurationError, match="true/false"):
            parse_config(MINIMAL + "\n[soliton]\nsweep = maybe\n")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            parse_config(MINIMAL.replace("preset = constant", "preset = vortex"))

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config(MINIMAL + "\n[flow]\njust some words\n")

    def test_flow_invariants_surface_as_config_errors(self):
        text = MINIMAL + "\n[flow]\ndt_min = 1.0\ndt_init = 0.5\ndt_max = 2.0\n"
        with pytest.raises(ConfigurationError, match=r"\[flow\]"):
            parse_config(text)

    @pytest.mark.parametrize("delta", ["0", "-1e-4", "nan", "inf"])
    def test_bad_delta_is_config_error(self, delta):
        with pytest.raises(ConfigurationError, match=r"\[analysis\]: delta must be positive"):
            parse_config(MINIMAL + f"\n[analysis]\ndelta = {delta}\n")

    @pytest.mark.parametrize("key,value", [
        ("sigma_slope", "inf"), ("psi_rate", "nan"), ("times", "0.0, -inf"),
        ("sweep_base_constants", "1.0, nan"), ("sweep_psi_rates", "inf"),
    ])
    def test_non_finite_soliton_value_is_config_error(self, key, value):
        with pytest.raises(ConfigurationError, match=rf"\[soliton\]: {key} must be finite"):
            parse_config(MINIMAL + f"\n[soliton]\n{key} = {value}\n")

    @pytest.mark.parametrize("section,key,value,rule", [
        ("soliton", "flow_tol", "0", "positive"), ("soliton", "var_tol", "inf", "positive"),
        ("analysis", "min_order_untwisted", "nan", "positive"),
        ("analysis", "min_order_twisted", "-1", "positive"),
        ("analysis", "max_dEdt_mismatch", "-1e-3", "non-negative"),
        ("analysis", "max_scaling_invariance", "inf", "non-negative"),
        ("flow", "err_tol", "inf", "finite"), ("flow", "dt_max", "inf", "finite"),
    ])
    def test_out_of_range_tolerance_is_config_error(self, section, key, value, rule):
        with pytest.raises(ConfigurationError, match=rf"\[{section}\]: {key} must be {rule}"):
            parse_config(MINIMAL + f"\n[{section}]\n{key} = {value}\n")

    def test_zero_identity_bound_accepted(self):
        cfg = parse_config(MINIMAL + "\n[analysis]\nmax_curvature_evolution = 0\n")
        assert cfg.analysis.max_curvature_evolution == 0.0
