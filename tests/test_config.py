import dataclasses
import functools
import math
import typing

import pytest

import cryf
import cryf.config
import cryf.flow
from cryf.config import _SCHEMA, _SECTIONS, RunConfig, parse_config
from cryf.errors import ConfigurationError
from cryf.geometry import GridSpec

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
        assert len(fields) == 41

    def test_constancy_tol_is_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown key 'constancy_tol'"):
            parse_config(MINIMAL + "\n[analysis]\nconstancy_tol = 1e-8\n")

    def test_include_negative_controls_is_unknown(self):
        # the two control families always run
        with pytest.raises(ConfigurationError, match="unknown key 'include_negative_controls'"):
            parse_config(MINIMAL + "\n[soliton]\ninclude_negative_controls = false\n")

    def test_safety_is_unknown(self):
        # the step controller's safety factor is the constant flow._SAFETY
        with pytest.raises(ConfigurationError, match="unknown key 'safety'"):
            parse_config(MINIMAL + "\n[flow]\nsafety = 0.9\n")


class TestValidation:
    def test_divisibility_rule_named(self):
        text = MINIMAL.replace("N_y = 16", "N_y = 8").replace("N_z = 16", "N_z = 12")
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        assert str(err.value) == ("N_y must divide N_z so the sheared x-wrap lands on grid "
                                  "points (got N_y=8, N_z=12)")

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
        for text, message in [
            ("[geometry]\nN_x = 8\nN_y = 8\nN_z = 8\n", "missing required section [initial_data]"),
            ("[initial_data]\npreset = constant\n", "missing required section [geometry]"),
            (MINIMAL.replace("N_y = 16\n", ""), "missing required key 'N_y' in [geometry]"),
            (MINIMAL.replace("preset = constant\n", "c = 2\n"),
             "missing required key 'preset' in [initial_data]"),
        ]:
            with pytest.raises(ConfigurationError) as err:
                parse_config(text)
            assert str(err.value) == message

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
        (MINIMAL + "\n[analysis]\ngrids = 8,,16\n",
         "line 11, column 1: expected comma-separated integers for grids, got '8,,16'"),
        (MINIMAL + "\n[analysis]\ngrids = 8,16,\n",
         "line 11, column 1: expected comma-separated integers for grids, got '8,16,'"),
        (MINIMAL + "\n[soliton]\ntimes = 0.0, ,1.0\n",
         "line 11, column 1: expected comma-separated numbers for times, got '0.0, ,1.0'"),
    ], ids=["int", "float", "bool", "int_list", "float_list", "int_list_empty_item",
            "int_list_trailing_comma", "float_list_blank_item"])
    def test_type_errors_carry_position(self, text, message):
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        assert str(err.value) == message

    def test_bad_bool(self):
        with pytest.raises(ConfigurationError, match="true/false"):
            parse_config(MINIMAL + "\n[soliton]\nsweep = maybe\n")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(MINIMAL.replace("preset = constant", "  preset = vortex"))
        assert str(err.value) == ("line 8, column 3: unknown preset 'vortex'; choose from "
                                  "('constant', 'single_mode_y', 'single_mode_x', 'random_smooth')")

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config(MINIMAL + "\n[flow]\njust some words\n")

    def test_flow_invariants_surface_as_config_errors(self):
        for flow, got in [("dt_min = 1.0\ndt_init = 0.5\ndt_max = 2.0\n", "(1.0, 0.5, 2.0)"),
                          ("dt_min = 1e-3\n", "(0.001, 1e-06, 0.01)")]:
            with pytest.raises(ConfigurationError) as err:
                parse_config(MINIMAL + "\n[flow]\n" + flow)
            assert str(err.value) == f"[flow]: need 0 < dt_min <= dt_init <= dt_max, got {got}"

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

    @pytest.mark.parametrize("key", ["times", "sweep_base_constants", "sweep_psi_rates"])
    def test_empty_soliton_sample_is_config_error(self, key):
        with pytest.raises(ConfigurationError,
                           match=rf"^\[soliton\]: {key} must list at least one value$"):
            parse_config(MINIMAL + f"\n[soliton]\n{key} =\n")

    def test_empty_sweep_lists_unused_without_sweep(self):
        cfg = parse_config(MINIMAL + "\n[soliton]\nsweep = false\n"
                           "sweep_base_constants =\nsweep_psi_rates =\n")
        assert cfg.soliton.sweep_base_constants == () == cfg.soliton.sweep_psi_rates

    @pytest.mark.parametrize("section,key,value,rule", [
        ("soliton", "flow_tol", "0", "positive"), ("soliton", "var_tol", "inf", "positive"),
        ("analysis", "min_order_untwisted", "nan", "positive"),
        ("analysis", "min_order_twisted", "-1", "positive"),
        ("analysis", "max_dEdt_mismatch", "-1e-3", "non-negative"),
        ("analysis", "max_scaling_invariance", "inf", "non-negative"),
        ("flow", "err_tol", "inf", "positive"), ("flow", "dt_max", "inf", "positive"),
    ])
    def test_out_of_range_tolerance_is_config_error(self, section, key, value, rule):
        with pytest.raises(ConfigurationError) as err:
            parse_config(MINIMAL + f"\n[{section}]\n{key} = {value}\n")
        assert str(err.value) == f"[{section}]: {key} must be {rule} and finite, got {float(value)}"

    @pytest.mark.parametrize("grids, message", [
        ("16", "convergence study needs at least 2 grid sizes"),
        ("", "convergence study needs at least 2 grid sizes"),
        ("16,8", "grid list must be strictly increasing, got (16, 8)"),
        ("8,8,16", "grid list must be strictly increasing, got (8, 8, 16)"),
        ("2,8", "grids must be at least 4, got (2, 8)"),
    ], ids=["one", "none", "decreasing", "repeated", "below_4"])
    def test_grids_rule_message(self, grids, message):
        with pytest.raises(ConfigurationError) as err:
            parse_config(MINIMAL + f"\n[analysis]\ngrids = {grids}\n")
        assert str(err.value) == f"[analysis]: {message}"

    def test_zero_identity_bound_accepted(self):
        cfg = parse_config(MINIMAL + "\n[analysis]\nmax_curvature_evolution = 0\n")
        assert cfg.analysis.max_curvature_evolution == 0.0


# (preset, settings, message) for each [initial_data] rule, which holds for its
# preset alone
INITIAL_DATA_RULES = [
    ("constant", {"c": 0.0}, "constant preset needs finite c > 0, got 0.0"),
    ("constant", {"c": math.inf}, "constant preset needs finite c > 0, got inf"),
    ("constant", {"c": math.nan}, "constant preset needs finite c > 0, got nan"),
    ("single_mode_y", {"c": 1.0, "epsilon": -1.0},
     "mode preset needs c - |epsilon| > 0 and c + |epsilon| finite, got c=1.0, epsilon=-1.0"),
    ("single_mode_x", {"c": 1.7e308, "epsilon": 1e308},
     "mode preset needs c - |epsilon| > 0 and c + |epsilon| finite, got c=1.7e+308, "
     "epsilon=1e+308"),
    ("random_smooth", {"amplitude": 1.0}, "random_smooth needs amplitude in (0, 1), got 1.0"),
    ("random_smooth", {"amplitude": 0.0}, "random_smooth needs amplitude in (0, 1), got 0.0"),
    ("random_smooth", {"smoothing_passes": -1}, "smoothing_passes must be >= 0"),
    ("random_smooth", {"seed": -3}, "random_smooth needs seed >= 0, got -3"),
]
RULE_IDS = ["c_zero", "c_inf", "c_nan", "mode_c_minus_epsilon", "mode_c_plus_epsilon",
            "amplitude_one", "amplitude_zero", "smoothing_negative", "seed_negative"]


def initial_data(preset, settings):
    return MINIMAL.replace("preset = constant", f"preset = {preset}") + "".join(
        f"{key} = {value}\n" for key, value in settings.items())


class TestInitialDataRules:
    """`InitialDataConfig` declares each [initial_data] rule, checked at parse time."""

    @pytest.mark.parametrize("preset, settings, message", INITIAL_DATA_RULES, ids=RULE_IDS)
    def test_rule_is_a_config_error(self, preset, settings, message):
        with pytest.raises(ConfigurationError) as err:
            parse_config(initial_data(preset, settings))
        assert str(err.value) == f"[initial_data]: {message}"

    @pytest.mark.parametrize("preset, settings, message", INITIAL_DATA_RULES, ids=RULE_IDS)
    def test_make_initial_state_rejects_with_the_rule_message(self, preset, settings, message):
        with pytest.raises(ConfigurationError) as err:
            cryf.make_initial_state(cryf.build_nilmanifold(GridSpec(4, 4, 4)), preset,
                                    **settings)
        assert str(err.value) == message

    def test_make_initial_state_rejects_an_unknown_preset(self):
        with pytest.raises(ConfigurationError) as err:
            cryf.make_initial_state(cryf.build_nilmanifold(GridSpec(4, 4, 4)), "vortex")
        assert str(err.value) == ("unknown preset 'vortex'; choose from "
                                  "('constant', 'single_mode_y', 'single_mode_x', 'random_smooth')")

    def test_settings_of_other_presets_are_not_checked(self):
        cfg = parse_config(initial_data("constant", {"amplitude": 5.0, "seed": -3, "epsilon": 9}))
        assert (cfg.initial.amplitude, cfg.initial.seed, cfg.initial.epsilon) == (5.0, -3, 9.0)

    def test_reported_before_a_later_section_fault(self):
        text = initial_data("random_smooth", {"seed": -3}) + "\n[flow]\ndt_min = 1e-3\n"
        with pytest.raises(ConfigurationError, match=r"^\[initial_data\]: random_smooth"):
            parse_config(text)
        with pytest.raises(ConfigurationError, match=r"^line 8, column 1: unknown preset"):
            parse_config(text.replace("random_smooth", "vortex"))


class TestSchema:
    """The section dataclasses are the one declaration of each key."""

    def test_required_keys_are_the_fields_without_a_default(self):
        required = [key for section in _SCHEMA.values()
                    for key, (*_, needed) in section.items() if needed]
        assert required == ["N_x", "N_y", "N_z", "preset"]
        no_default = [f.name for cls in typing.get_type_hints(RunConfig).values()
                      for f in dataclasses.fields(cls)
                      if f.default is dataclasses.MISSING is f.default_factory]
        assert no_default == ["nx", "ny", "nz", "preset"]

    def test_flow_settings_live_beside_their_sibling_sections(self):
        assert cryf.FlowConfig is cryf.flow.FlowConfig is cryf.config.FlowConfig
        assert _SECTIONS["flow"] is cryf.config.FlowConfig

    @pytest.mark.parametrize("text, message", [
        # t_end is FlowConfig's first field, written here after dt_min
        (MINIMAL + "\n[flow]\ndt_min = tiny\nt_end = soon\n",
         "line 12, column 1: expected number for t_end, got 'soon'"),
        ("[geometry]\nN_z = deep\nN_y = 16\nN_x = wide\n[initial_data]\npreset = constant\n",
         "line 4, column 1: expected integer for N_x, got 'wide'"),
    ], ids=["flow", "geometry"])
    def test_first_field_fault_reported_whatever_the_file_order(self, text, message):
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("key, value, message", [
        ("t_end", "-1", "t_end must be non-negative and finite, got -1.0"),
        ("dt_init", "nan", "dt_init must be positive and finite, got nan"),
        ("dt_min", "0", "dt_min must be positive and finite, got 0.0"),
        ("dt_max", "-1e-2", "dt_max must be positive and finite, got -0.01"),
        ("err_tol", "0", "err_tol must be positive and finite, got 0.0"),
        ("u_floor", "-1", "u_floor must be positive and finite, got -1.0"),
        ("record_every", "0", "record_every must be positive, got 0"),
        ("snapshot_every", "-1", "snapshot_every must be non-negative, got -1"),
    ], ids=["t_end_negative", "dt_init_nan", "dt_min_zero", "dt_max_negative",
            "err_tol_zero", "u_floor_negative", "record_every_zero", "snapshot_every_negative"])
    def test_flow_rule_message(self, key, value, message):
        with pytest.raises(ConfigurationError) as err:
            parse_config(MINIMAL + f"\n[flow]\n{key} = {value}\n")
        assert str(err.value) == f"[flow]: {message}"

    def test_output_name_with_a_nul_byte_rejected(self):
        # it would pass the path checks before the run and fail only at the write
        with pytest.raises(ConfigurationError) as err:
            parse_config(MINIMAL + "\n[output]\nreport = a\0b.txt\n")
        assert str(err.value) == \
            "[output]: report must be a file name in --out, got 'a\\x00b.txt'"

    def test_integer_beyond_float_range_accepted(self):
        cfg = parse_config(MINIMAL + f"\n[flow]\nrecord_every = {10**400}\n")
        assert cfg.flow.record_every == 10**400
