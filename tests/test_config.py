import pytest

from cryf.config import parse_config
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

    def test_type_errors_carry_position(self):
        text = MINIMAL.replace("N_x = 16", "N_x = sixteen")
        with pytest.raises(ConfigurationError, match=r"line 3.*expected integer"):
            parse_config(text)

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
