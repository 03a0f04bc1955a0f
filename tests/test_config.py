"""Tests for the flat key = value configuration."""

import pytest

from polentsim.config import _MAX_TAU_POINTS, RunConfig, parse_config_file
from polentsim.errors import ConfigError
from polentsim.jointstate import DegradationModel


class TestParsing:
    def test_values_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "pump_center_nm = 770.0  # inline comment\n"
            "grid_points=128\n"
            "transmit_long = no\n"
        )
        values = parse_config_file(path)
        assert values == {
            "pump_center_nm": 770.0,
            "grid_points": 128,
            "transmit_long": False,
        }

    @pytest.mark.parametrize(
        "text, value",
        [("true", True), ("Yes", True), ("ON", True), ("1", True),
         ("false", False), ("No", False), ("OFF", False), ("0", False)],
    )
    def test_boolean_spellings(self, tmp_path, text, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"transmit_long = {text}\n")
        assert RunConfig.load(path).splitter().transmit_long is value

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pump_centre_nm = 770.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert "pump_centre_nm" in str(err.value)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid_points = many\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid_points 128\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config["pump_center_nm"] == 767.6
        assert config["grid_points"] == 512
        assert config["background_b"] == 0.0125

    def test_overrides_take_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        config = RunConfig.load(path, overrides={"seed": 9})
        assert config["seed"] == 9

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig({"not_a_key": 1})

    def test_missing_referenced_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            RunConfig({"jsa_file": str(tmp_path / "absent.txt")})
        assert "jsa_file" in str(err.value)

    def test_pdc_model_unit_conversion(self):
        model = RunConfig({"pump_center_nm": 780.0}).pdc_model()
        assert model.pump_center_wavelength == pytest.approx(780e-9)
        assert model.crystal_length == pytest.approx(1.87e-3)
        assert model.intrinsic_delay_comp == pytest.approx(25.9e-15)

    @pytest.mark.parametrize("points", [8193, 100000000])
    def test_oversized_grid_rejected(self, points):
        # rejected at construction: no grid is built
        with pytest.raises(ConfigError) as err:
            RunConfig({"grid_points": points})
        assert "grid_points" in str(err.value)

    def test_grid_matches_settings(self):
        grid = RunConfig({"grid_points": 64}).grid()
        assert grid.n == 64

    def test_degradation_from_config(self):
        assert RunConfig().degradation() is None
        config = RunConfig({"degrade_scale": 0.75, "degrade_offset_fs": 4.0})
        assert config.degradation() == DegradationModel(0.75, 4.0e-15)

    def test_splitter_from_config(self):
        resp = RunConfig(
            {"edge_h_nm": 1533.0, "edge_v_nm": 1537.0, "transmit_long": False}
        ).splitter()
        assert resp.edge_wavelength_h == pytest.approx(1533e-9)
        assert resp.edge_wavelength_v == pytest.approx(1537e-9)
        assert resp.transmit_long is False

    def test_splitter_table_loading(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("1500.0 0.1\n1570.0 0.9\n")
        resp = RunConfig({"splitter_table_h": str(table)}).splitter()
        assert resp.table_h is not None
        assert resp.table_v is None

    def test_splitter_table_v_loading(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("1500.0 0.1\n1570.0 0.9\n")
        resp = RunConfig({"splitter_table_v": str(table)}).splitter()
        assert resp.table_h is None
        assert resp.table_v.tolist() == [[1500e-9, 0.1], [1570e-9, 0.9]]

    def test_invalid_physical_value_fails_before_compute(self):
        config = RunConfig({"crystal_length_mm": -1.0})
        with pytest.raises(Exception):
            config.pdc_model()

    @pytest.mark.parametrize("points", [_MAX_TAU_POINTS + 1, 1000000000000])
    def test_oversized_tau_points_rejected(self, points):
        # rejected at construction: no delay array is built
        with pytest.raises(ConfigError) as err:
            RunConfig({"tau_points": points})
        assert "tau_points" in str(err.value)

    def test_tau_points_cap_is_one_gib_of_phase_tables(self):
        """At 8192 grid points the two (tau x 128) complex phase tables of
        the coherence fill 1 GiB at the cap, which is itself accepted."""
        assert _MAX_TAU_POINTS * 2 * 128 * 16 == 1 << 30
        assert RunConfig({"tau_points": _MAX_TAU_POINTS})["tau_points"] == _MAX_TAU_POINTS
