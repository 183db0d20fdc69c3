"""Flat key=value configuration parsing into one TrialConfig."""

import re
from pathlib import Path

import numpy as np
import pytest

from clgmd.competition import NormParams, normalize
from clgmd.config import _flat_keys, config_from_mappings, load_config_file, parse_config_text
from clgmd.detector import CollisionDetector
from clgmd.errors import ConfigError
from clgmd.flightsim import Placement, TrialConfig
from clgmd.layers import Frame

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
        with pytest.raises(ConfigError, match="^cfg:2: expected KEY=VALUE, got 'bogus line'$"):
            parse_config_text("a=1\nbogus line\n", source="cfg")

    def test_repeated_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match=r"^cfg:4: 't_s' is set again \(cfg:1\)$"):
            parse_config_text("t_s=100\nc1=0.01\n\nt_s = 200\n", source="cfg")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key: 't_x'"):
            config_from_mappings({"t_x": "10"})

    def test_invalid_value_named(self):
        with pytest.raises(ConfigError, match="invalid value for t_s"):
            config_from_mappings({"t_s": "high"})

    def test_later_mapping_overrides(self):
        cfg = config_from_mappings({"t_s": "100"}, {"t_s": "200"})
        assert cfg.norm.t_s == 200.0
        # Merged before conversion: an overridden bad value is never read.
        cfg = config_from_mappings({"dt": "-5", "t_s": "high"}, {"dt": "0.01", "t_s": "100"})
        assert (cfg.dt, cfg.norm.t_s) == (0.01, 100.0)

    def test_int_fields_parsed_as_int(self):
        cfg = config_from_mappings({"width": "64", "n_sp": "3"})
        assert cfg.camera.width == 64 and isinstance(cfg.camera.width, int)
        assert cfg.norm.n_sp == 3

    @pytest.mark.parametrize("key", ["dt", "max_duration", "t_s", "obstacle_vx"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_floats_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number, got "):
            config_from_mappings({key: text})

    # int() and float() read all of these; the PGM header reader and this
    # parser take ASCII decimal text only.
    @pytest.mark.parametrize(
        "key, text",
        [
            ("width", "１００"),  # fullwidth digits
            ("c_w", "٤.0"),  # Arabic-Indic digit
            ("n_sp", "४"),  # Devanagari digit
            ("t_s", "1_5_0"),
            ("dt", "0.0_1"),
            ("obstacle_vx", "-1_0"),
            ("tau", "\u00a00.1"),  # a no-break space, which float() strips
        ],
    )
    def test_number_text_is_ascii_without_underscores(self, key, text):
        with pytest.raises(ConfigError, match=f"^invalid value for {key}: {re.escape(repr(text))}$"):
            config_from_mappings({key: text})

    def test_signs_and_exponents_are_read(self):
        cfg = config_from_mappings({"dt": "1e-3", "obstacle_vx": "-0.5", "t_s": "+15E1", "height": "+64"})
        assert (cfg.dt, cfg.obstacle_velocity[0], cfg.norm.t_s, cfg.camera.height) == (
            0.001, -0.5, 150.0, 64,
        )

    def test_int_past_the_float_range_is_rejected_by_its_kind(self):
        # math.isfinite raises OverflowError on such an int.
        with pytest.raises(
            ConfigError, match="^width must fit in a float, got an integer of 401 digits$"
        ):
            config_from_mappings({"width": "1" + "0" * 400})

    def test_seed_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config key: 'seed'"):
            config_from_mappings({"seed": "1"})

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# trial\nplacement=up\nmax_duration=8.0\n")
        cfg = config_from_mappings(load_config_file(path))
        assert cfg.placement is Placement.UP
        assert cfg.max_duration == 8.0


class TestBuilders:
    def test_defaults_build_valid_params(self):
        cfg = config_from_mappings({})
        assert isinstance(cfg, TrialConfig)
        assert cfg.core.delta_c == 0.5
        assert cfg.norm == NormParams()
        assert cfg.steering.speed_0 == 0.6
        assert cfg.placement is Placement.LEFT

    def test_norm_params_follow_frame_resolution(self):
        # No key sets n_cell: the detector counts the pixels of its frames.
        cfg = config_from_mappings({"width": "64", "height": "32"})
        assert cfg.norm == NormParams()
        rng = np.random.default_rng(0)
        frames = [Frame(i, rng.integers(0, 16, (32, 64), dtype=np.uint8)) for i in range(2)]
        detector = CollisionDetector(core=cfg.core, norm=cfg.norm)
        detector.process(frames[0])
        got = detector.process(frames[1]).potentials
        sums = (got.k_f0, 0, 0, 0, got.k_f0)
        assert normalize(*sums, cfg.norm, n_cell=64 * 32).kappa == got.kappa > 254.0
        assert normalize(*sums, cfg.norm, n_cell=100 * 100).kappa == 0.0

    def test_disable_threshold_roundtrip(self):
        cfg = config_from_mappings({"t_s": "256"})
        assert cfg.norm.t_s == 256.0

    def test_camera_uses_degrees(self):
        cfg = config_from_mappings({"hfov_deg": "60"})
        assert cfg.camera.hfov_deg == 60.0

    def test_trial_config_carries_overrides(self):
        cfg = config_from_mappings(
            {
                "placement": "down",
                "obstacle_vy": "0.2",
                "arena_zmax": "5.0",
                "tau": "0.2",
                "c_w": "3.0",
                "hold_duration": "0.5",
            }
        )
        assert cfg.placement is Placement.DOWN
        assert cfg.obstacle_velocity == (0.0, 0.2, 0.0)
        assert cfg.arena[5] == 5.0
        assert cfg.tau == 0.2
        assert cfg.core.c_w == 3.0
        assert cfg.steering.hold_duration == 0.5

    def test_invalid_built_params_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="c_w must be positive"):
            config_from_mappings({"c_w": "0"})


class TestSingleSource:
    def test_defaults_are_the_parameter_defaults(self):
        assert config_from_mappings({}) == TrialConfig()

    def test_key_types(self):
        kinds = {key: kind for key, kind, _ in _flat_keys()}
        assert len(kinds) == 34
        ints = {"inhibition_delay", "n_sp", "width", "height", "noise_seed"}
        assert {k for k, t in kinds.items() if t is int} == ints
        assert {k for k, t in kinds.items() if t is str} == {"placement"}
        assert all(kinds[k] is float for k in kinds.keys() - ints - {"placement"})
        assert {key: d for key, _, d in _flat_keys()}["placement"] == "left"

    def test_readme_table_lists_every_key_with_its_default(self):
        section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("|")]
        documented = dict(re.findall(r"`([a-z0-9_]+)=([^`]*)`", "\n".join(rows)))
        expected = {key: str(d) for key, _, d in _flat_keys()}
        assert documented == expected
