"""Flat key=value configuration parsing and parameter building."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from clgmd.competition import NormParams
from clgmd.config import (
    RunConfig,
    config_from_mappings,
    load_config_file,
    parse_config_text,
)
from clgmd.errors import ConfigError
from clgmd.flightsim import Placement, TrialConfig

README = Path(__file__).resolve().parents[1] / "README.md"


class TestParsing:
    def test_comments_blanks_and_values(self):
        text = "\n".join(
            [
                "# detector tuning",
                "",
                "t_s = 170",
                "speed_0=0.8",
                "  placement = right  ",
            ]
        )
        mapping = parse_config_text(text)
        assert mapping == {"t_s": "170", "speed_0": "0.8", "placement": "right"}

    def test_malformed_line_reports_location(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("a=1\nbogus line\n", source="cfg")

    def test_repeated_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match=r"^cfg:4: t_s is set again \(line 1\)$"):
            parse_config_text("t_s=100\nc1=0.01\n\nt_s = 200\n", source="cfg")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key: t_x"):
            config_from_mappings({"t_x": "10"})

    def test_invalid_value_named(self):
        with pytest.raises(ConfigError, match="invalid value for t_s"):
            config_from_mappings({"t_s": "high"})

    def test_later_mapping_overrides(self):
        cfg = config_from_mappings({"t_s": "100"}, {"t_s": "200"})
        assert cfg.t_s == 200.0

    def test_int_fields_parsed_as_int(self):
        cfg = config_from_mappings({"width": "64", "n_sp": "3"})
        assert cfg.width == 64 and isinstance(cfg.width, int)
        assert cfg.n_sp == 3

    def test_empty_optional_value_is_none(self):
        cfg = config_from_mappings({"c2": ""})
        assert cfg.c2 is None
        assert cfg.norm_params().c2 == pytest.approx(1.0 / 10000)

    @pytest.mark.parametrize("key", ["dt", "max_duration", "t_s", "obstacle_vx", "c2"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_floats_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            config_from_mappings({key: text})

    def test_seed_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config key: seed"):
            config_from_mappings({"seed": "1"})

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# trial\nplacement=up\nmax_duration=8.0\n")
        cfg = config_from_mappings(load_config_file(path))
        assert cfg.placement == "up"
        assert cfg.max_duration == 8.0


class TestBuilders:
    def test_defaults_build_valid_params(self):
        cfg = RunConfig()
        core = cfg.core_params()
        norm = cfg.norm_params()
        steer = cfg.steering_params()
        trial = cfg.trial_config()
        assert core.delta_c == 0.5
        assert norm.n_cell == 100 * 100
        assert steer.speed_0 == 0.6
        assert trial.placement is Placement.LEFT

    def test_c2_defaults_to_reciprocal_cell_count(self):
        assert RunConfig().norm_params().c2 == pytest.approx(1.0 / 10000)
        cfg = config_from_mappings({"c2": "0.01"})
        assert cfg.norm_params().c2 == 0.01

    def test_norm_params_follow_frame_resolution(self):
        norm = RunConfig().norm_params(64, 32)
        assert norm.n_cell == 64 * 32

    def test_disable_threshold_roundtrip(self):
        cfg = config_from_mappings({"t_s": "256"})
        assert cfg.norm_params().t_s == 256.0

    def test_camera_uses_degrees(self):
        cfg = config_from_mappings({"hfov_deg": "60"})
        assert cfg.camera_model().hfov_deg == 60.0

    def test_trial_config_carries_overrides(self):
        cfg = config_from_mappings(
            {
                "placement": "down",
                "obstacle_vy": "0.2",
                "arena_zmax": "5.0",
                "tau": "0.2",
            }
        )
        trial = cfg.trial_config()
        assert trial.placement is Placement.DOWN
        assert trial.obstacle_velocity == (0.0, 0.2, 0.0)
        assert trial.arena[5] == 5.0
        assert trial.tau == 0.2

    def test_invalid_built_params_surface_as_config_errors(self):
        cfg = config_from_mappings({"c_w": "0"})
        with pytest.raises(ConfigError):
            cfg.core_params()


class TestSingleSource:
    def test_defaults_are_the_parameter_defaults(self):
        expected = TrialConfig(norm=NormParams.for_resolution(100, 100))
        assert config_from_mappings({}).trial_config() == expected

    def test_key_types(self):
        kinds = {f.name: f.type for f in fields(RunConfig)}
        assert len(kinds) == 36
        ints = {"inhibition_delay", "n_sp", "width", "height", "noise_seed"}
        assert {k for k, t in kinds.items() if t is int} == ints
        assert {k for k, t in kinds.items() if t is str} == {"placement"}
        assert all(kinds[k] is float for k in kinds.keys() - ints - {"placement", "c2"})
        assert RunConfig().placement == "left"

    def test_readme_table_lists_every_key_with_its_default(self):
        section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("|")]
        documented = dict(re.findall(r"`([a-z0-9_]+)=([^`]*)`", "\n".join(rows)))
        expected = {
            f.name: "" if f.default is None else str(f.default) for f in fields(RunConfig)
        }
        assert documented == expected
