"""End-to-end command-line behavior and exit codes."""

import csv

import numpy as np
import pytest

from clgmd.cli import main
from clgmd.pgm import MANIFEST_NAME, read_pgm, write_pgm


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestGenerate:
    def test_writes_frames_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "seq"
        code, _, _ = run(["generate", str(out), "--frames", "10"], capsys)
        assert code == 0
        assert len(list(out.glob("*.pgm"))) == 10
        manifest = (out / MANIFEST_NAME).read_text()
        assert "direction=head_on" in manifest
        assert "frames=10" in manifest

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--frames", "8", "--direction", "left", "--seed", "4", "--noise", "5"]
        assert run(["generate", str(a), *args], capsys)[0] == 0
        assert run(["generate", str(b), *args], capsys)[0] == 0
        for pa, pb in zip(sorted(a.glob("*.pgm")), sorted(b.glob("*.pgm"))):
            assert pa.read_bytes() == pb.read_bytes()

    def test_left_right_mirror(self, tmp_path, capsys):
        l, r = tmp_path / "l", tmp_path / "r"
        run(["generate", str(l), "--direction", "left", "--seed", "2", "--frames", "12"], capsys)
        run(["generate", str(r), "--direction", "right", "--seed", "2", "--frames", "12"], capsys)
        for pl, pr in zip(sorted(l.glob("*.pgm")), sorted(r.glob("*.pgm"))):
            assert np.array_equal(read_pgm(pl), read_pgm(pr)[:, ::-1])

    def test_invalid_spec_exits_1(self, tmp_path, capsys):
        code, _, err = run(
            ["generate", str(tmp_path / "x"), "--distance", "-1"], capsys
        )
        assert code == 1
        assert "distance" in err

    @pytest.mark.parametrize(
        "option", ["--speed", "--distance", "--fps", "--noise", "--hfov-deg"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_exits_1(self, tmp_path, capsys, option, value):
        out = tmp_path / "x"
        code, _, err = run(["generate", str(out), f"{option}={value}"], capsys)
        assert code == 1
        assert f"argument {option}: must be finite, got '{value}'" in err
        assert not out.exists()

    def test_distance_too_large_to_ray_cast_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run(
            ["generate", str(out), "--frames", "3", "--distance", "1e200"],
            capsys,
        )
        assert code == 1
        assert "too large to ray-cast" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be non-negative, got -1"),
            (["--distance", "0.3"], "start distance 0.3 is inside the standoff 0.367"),
        ],
    )
    def test_bad_spec_writes_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        code, _, err = run(["generate", str(out), *flags], capsys)
        assert code == 1
        assert message in err
        assert not out.exists()

    def test_bad_direction_exits_1(self, tmp_path, capsys):
        code, _, _ = run(
            ["generate", str(tmp_path / "x"), "--direction", "diagonal"], capsys
        )
        assert code == 1


class TestDetect:
    def test_two_identical_frames_one_silent_row(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        img = np.random.default_rng(0).integers(0, 256, (20, 20), dtype=np.uint8)
        write_pgm(seq / "frame_000000.pgm", img)
        write_pgm(seq / "frame_000001.pgm", img)
        out = tmp_path / "det.csv"
        code, _, _ = run(["detect", str(seq), "--out", str(out)], capsys)
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert float(row["kappa"]) == 0.0
        assert (row["spike"], row["confirmed"]) == ("0", "0")
        assert all(float(row[k]) == 0.0 for k in ("u", "d", "l", "r"))

    def test_left_looming_leads_left_at_confirmation(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        run(
            ["generate", str(seq), "--direction", "left", "--frames", "90", "--seed", "1"],
            capsys,
        )
        out = tmp_path / "det.csv"
        code, _, _ = run(["detect", str(seq), "--out", str(out)], capsys)
        assert code == 0
        rows = read_rows(out)
        confirmed = [r for r in rows if r["confirmed"] == "1"]
        assert confirmed
        first = confirmed[0]
        potentials = {k: float(first[k]) for k in ("u", "d", "l", "r")}
        assert max(potentials, key=potentials.get) == "l"
        assert first["escape_axis"] == "y" and float(first["escape_value"]) < 0

    def test_empty_directory_exits_3(self, tmp_path, capsys):
        seq = tmp_path / "empty"
        seq.mkdir()
        code, _, err = run(["detect", str(seq), "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 3
        assert "no frames" in err

    def test_corrupt_frame_names_file(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((9, 9), dtype=np.uint8))
        (seq / "frame_000001.pgm").write_bytes(b"P5\n9 9\n255\n short")
        code, _, err = run(["detect", str(seq), "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 3
        assert "frame_000001" in err

    def test_non_digit_header_token_exits_3(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((10, 10), dtype=np.uint8))
        (seq / "frame_000001.pgm").write_bytes(b"P5\n1_0 +10\n2_55\n" + bytes(100))
        code, _, err = run(["detect", str(seq), "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 3
        assert "frame_000001.pgm: bad header token b'1_0'" in err

    @pytest.mark.parametrize(
        "names,message",
        [
            (["frame_000000.pgm", "frame_000001.pgm", "frame_000003.pgm"],
             "frame_000002.pgm: missing"),
            (["frame_000000.pgm", "frame_000001.pgm", "frame_2.pgm"],
             "frame_2.pgm: not a frame name"),
        ],
    )
    def test_gap_or_stray_name_exits_3(self, tmp_path, capsys, names, message):
        seq = tmp_path / "seq"
        seq.mkdir()
        for name in names:
            write_pgm(seq / name, np.zeros((9, 9), dtype=np.uint8))
        out = tmp_path / "o.csv"
        code, _, err = run(["detect", str(seq), "--out", str(out)], capsys)
        assert code == 3
        assert message in err
        assert not out.exists()

    def test_dimension_drift_exits_3(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((16, 16), dtype=np.uint8))
        write_pgm(seq / "frame_000001.pgm", np.zeros((16, 17), dtype=np.uint8))
        code, _, err = run(["detect", str(seq), "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 3
        assert "frame_000001" in err

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((9, 9), dtype=np.uint8))
        code, _, err = run(
            ["detect", str(seq), "--set", "t_sx=9", "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 1
        assert "t_sx" in err

    def test_empty_c2_is_the_default(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        run(["generate", str(seq), "--frames", "20", "--direction", "left"], capsys)
        default, empty = tmp_path / "default.csv", tmp_path / "empty.csv"
        assert run(["detect", str(seq), "--out", str(default)], capsys)[0] == 0
        code, _, _ = run(["detect", str(seq), "--set", "c2=", "--out", str(empty)], capsys)
        assert code == 0
        assert empty.read_bytes() == default.read_bytes()

    def test_trial_keys_not_validated(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((9, 9), dtype=np.uint8))
        out = tmp_path / "o.csv"
        argv = ["detect", str(seq), "--set", "obstacle_distance=10", "--out", str(out)]
        assert run(argv, capsys)[0] == 0

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((9, 9), dtype=np.uint8))
        code, _, _ = run(
            ["detect", str(seq), "--config", str(tmp_path / "nope.cfg")], capsys
        )
        assert code == 2

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        run(["generate", str(seq), "--frames", "80", "--direction", "left"], capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_s=256\n")
        muted = tmp_path / "muted.csv"
        code, _, _ = run(
            ["detect", str(seq), "--config", str(cfg), "--out", str(muted)], capsys
        )
        assert code == 0
        assert all(r["spike"] == "0" for r in read_rows(muted))
        overridden = tmp_path / "overridden.csv"
        code, _, _ = run(
            [
                "detect",
                str(seq),
                "--config",
                str(cfg),
                "--set",
                "t_s=150",
                "--out",
                str(overridden),
            ],
            capsys,
        )
        assert code == 0
        assert any(r["spike"] == "1" for r in read_rows(overridden))

    def test_generate_then_detect_roundtrip(self, tmp_path, capsys):
        for i, direction in enumerate(("up", "down", "head_on")):
            seq = tmp_path / f"seq{i}"
            assert run(
                ["generate", str(seq), "--direction", direction, "--frames", "30"],
                capsys,
            )[0] == 0
            assert run(
                ["detect", str(seq), "--out", str(tmp_path / f"o{i}.csv")], capsys
            )[0] == 0


class TestSimulate:
    def test_default_left_avoids(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, stdout, _ = run(["simulate", "--out", str(out)], capsys)
        assert code == 0
        assert "OUTCOME=AVOIDED" in stdout
        rows = read_rows(out)
        assert rows and float(rows[-1]["t"]) > 0

    def test_disabled_detector_collides(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, stdout, _ = run(
            [
                "simulate",
                "--set",
                "t_s=256",
                "--set",
                "placement=centered",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "OUTCOME=COLLIDED" in stdout

    def test_malformed_key_exits_1(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--set", "warp_speed=9", "--out", str(tmp_path / "t.csv")],
            capsys,
        )
        assert code == 1
        assert "warp_speed" in err

    def test_config_file_drives_trial(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("placement=right\nmax_duration=12.0\n")
        out = tmp_path / "trace.csv"
        code, stdout, _ = run(
            ["simulate", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 0
        assert "OUTCOME=AVOIDED" in stdout
        rows = read_rows(out)
        assert float(rows[-1]["py"]) > 0  # dodged leftward away from a right obstacle


class TestConfigValues:
    @pytest.mark.parametrize(
        "command, setting",
        [
            ("simulate", "dt=nan"),
            ("simulate", "max_duration=inf"),
            ("simulate", "max_duration=1e308"),
            ("simulate", "t_s=nan"),
            ("simulate", "obstacle_vx=nan"),
            ("simulate", "tau=nan"),
            ("detect", "t_s=-inf"),
        ],
    )
    def test_non_finite_value_exits_1(self, tmp_path, capsys, command, setting):
        argv = [command, "--set", setting, "--out", str(tmp_path / "o.csv")]
        if command == "detect":
            argv.insert(1, str(tmp_path))
        code, stdout, err = run(argv, capsys)
        assert code == 1
        assert f"{setting.split('=')[0]} must be finite" in err
        assert "OUTCOME" not in stdout

    def test_obstacle_too_large_to_ray_cast_exits_1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        overrides = ["--set", "obstacle_distance=1e200", "--set", "arena_xmax=1e201"]
        code, stdout, err = run(["simulate", *overrides, "--out", str(out)], capsys)
        assert code == 1
        assert "too large to ray-cast" in err
        assert "OUTCOME" not in stdout
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["noise_seed=-1", "noise_amplitude=5"], "noise_seed must be non-negative"),
            (
                ["obstacle_distance=0.2", "placement=left", "obstacle_offset=0.1"],
                "overlaps the start position",
            ),
            (
                ["obstacle_distance=0.35", "placement=up", "obstacle_offset=0.1"],
                "overlaps the start position",
            ),
        ],
    )
    def test_bad_trial_writes_nothing(self, tmp_path, capsys, settings, message):
        out = tmp_path / "t.csv"
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        code, stdout, err = run(["simulate", *overrides, "--out", str(out)], capsys)
        assert code == 1
        assert message in err
        assert "OUTCOME" not in stdout
        assert not out.exists()

    def test_seed_key_rejected(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--set", "seed=1", "--out", str(tmp_path / "t.csv")], capsys
        )
        assert code == 1
        assert "unknown config key: seed" in err

    def test_step_count_above_cap_exits_1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, stdout, err = run(["simulate", "--set", "dt=1e-9", "--out", str(out)], capsys)
        assert code == 1
        assert "at most 1000000" in err
        assert "OUTCOME" not in stdout
        assert not out.exists()


class TestUsage:
    def test_no_arguments_exits_1(self, capsys):
        assert run([], capsys)[0] == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(["fly"], capsys)[0] == 1

    def test_bad_set_syntax_exits_1(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((9, 9), dtype=np.uint8))
        code, _, err = run(["detect", str(seq), "--set", "t_s:150"], capsys)
        assert code == 1
        assert "KEY=VALUE" in err
