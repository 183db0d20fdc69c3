"""End-to-end command-line behavior and exit codes."""

import csv
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import clgmd
from clgmd import cli, config, flightsim
from clgmd.cli import main
from clgmd.competition import NormParams
from clgmd.layers import CoreParams
from clgmd.pgm import MANIFEST_NAME, read_pgm, write_pgm
from clgmd.steering import SteeringParams


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


FLAT_KEYS = {key: (kind, default) for key, kind, default in config._flat_keys()}
KEYS_DETECT_DOES_NOT_READ = sorted(
    set(FLAT_KEYS)
    - {f.name for cls in (CoreParams, NormParams, SteeringParams) for f in fields(cls)}
)


@pytest.fixture(scope="module")
def looming(tmp_path_factory):
    """A noisy looming sequence and its detect CSV bytes with no config."""
    root = tmp_path_factory.mktemp("looming")
    seq, out = root / "seq", root / "default.csv"
    assert main(["generate", str(seq), "--frames", "40", "--noise", "5"]) == 0
    assert main(["detect", str(seq), "--out", str(out)]) == 0
    return seq, out.read_bytes()


class TestGenerate:
    def test_writes_frames_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "seq"
        code, _, _ = run(["generate", str(out), "--frames", "10"], capsys)
        assert code == 0
        assert len(list(out.glob("*.pgm"))) == 10
        manifest = (out / MANIFEST_NAME).read_text()
        assert "direction=head_on" in manifest
        assert "frames=10" in manifest

    @pytest.mark.parametrize(
        "flags, camera",
        [
            ([], "width=100\nheight=100\nhfov_deg=90.0\n"),
            (
                ["--hfov-deg", "60", "--width", "64", "--height", "48"],
                "width=64\nheight=48\nhfov_deg=60.0\n",
            ),
        ],
        ids=["defaults", "hfov60-64x48"],
    )
    def test_manifest_text(self, tmp_path, capsys, flags, camera):
        out = tmp_path / "seq"
        assert run(["generate", str(out), "--frames", "2", *flags], capsys)[0] == 0
        spec = (
            "direction=head_on\nspeed=1.2\ndistance=4.0\nfps=50.0\nframes=2\nseed=0\n"
            "noise_amplitude=0.0\nobject_radius=0.35\nobject_luminance=224.0\n"
            "background=32.0\nentry_fraction=0.8\n"
        )
        assert (out / MANIFEST_NAME).read_text() == spec + camera

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
        # The flags parse as plain floats; the spec and the camera reject
        # a non-finite value by field name before any output is written.
        field = {"--noise": "noise_amplitude", "--hfov-deg": "hfov_deg"}.get(option, option[2:])
        out = tmp_path / "x"
        code, _, err = run(["generate", str(out), f"{option}={value}"], capsys)
        assert code == 1
        assert f"{field} must be a finite number, got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, text",
        [("--width", "1_00"), ("--height", "６４"), ("--fps", "٥0"), ("--speed", "1_.2"),
         ("--seed", "٣"), ("--distance", "4e0_0")],
    )
    def test_number_text_is_ascii_without_underscores(self, tmp_path, capsys, flag, text):
        out = tmp_path / "x"
        code, stdout, err = run(["generate", str(out), f"{flag}={text}"], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: invalid value for {flag}: {text!r}\n"
        assert not out.exists()

    def test_signs_and_exponents_are_read(self, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["generate", str(out), "--speed=-1.2", "--distance", "4e0", "--frames", "+2"]
        assert run(argv, capsys)[0] == 0
        assert "speed=-1.2\ndistance=4.0\n" in (out / MANIFEST_NAME).read_text()

    def test_distance_too_large_to_ray_cast_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run(
            ["generate", str(out), "--frames", "3", "--distance", "1e200"],
            capsys,
        )
        assert code == 1
        assert "too large to ray-cast" in err
        assert not out.exists()

    def test_receding_out_of_reach_exits_1(self, tmp_path, capsys):
        # The start is in reach; the sphere leaves it before the last frame.
        out = tmp_path / "x"
        code, stdout, err = run(["generate", str(out), "--frames", "4", "--speed=-1e160"], capsys)
        assert code == 1
        [line] = err.splitlines()
        assert line.startswith("error: ") and "too large to ray-cast" in line
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be non-negative, got -1"),
            (["--distance", "0.3"], "start distance 0.3 is inside the standoff 0.367"),
            # detect rejects a sequence with no frame, so generate writes none.
            (["--frames", "0"], "frames must be positive, got 0"),
            (
                ["--noise", "1e308"],
                "noise_amplitude must be non-negative and at most half the largest float",
            ),
            # A receding travel past the largest float, not a nan centre.
            (
                ["--speed=-1e308", "--frames", "3"],
                "speed -1e+308 at fps 50.0 overflows the travel over 3 frames",
            ),
        ],
    )
    def test_bad_spec_writes_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        code, _, err = run(["generate", str(out), *flags], capsys)
        assert code == 1
        assert message in err
        assert not out.exists()

    def test_shorter_rerun_into_a_used_directory_exits_1(self, tmp_path, capsys):
        # detect would read the old frames past the new count as part of
        # the new sequence.
        out = tmp_path / "d"
        argv = ["generate", str(out), "--width", "16", "--height", "16"]
        assert run([*argv, "--frames", "6", "--direction", "left"], capsys)[0] == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        code, stdout, err = run([*argv, "--frames", "3", "--seed", "5"], capsys)
        assert code == 1 and not stdout
        assert err == (
            f"error: {out / 'frame_000003.pgm'} is past --frames 3: {out} holds a longer "
            "sequence; generate into an empty directory\n"
        )
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        for frames in ("6", "8"):  # the same or a larger count overwrites
            assert run([*argv, "--frames", frames, "--direction", "up"], capsys)[0] == 0
        assert len(list(out.glob("*.pgm"))) == 8

    @pytest.mark.parametrize("stray", ["frame_1.pgm", "frame_0000007.pgm", "notes.pgm"])
    def test_directory_detect_would_refuse_exits_3_writing_nothing(
        self, tmp_path, capsys, monkeypatch, stray
    ):
        # The same rule as detect's: every *.pgm name must be a frame's.
        monkeypatch.chdir(tmp_path)
        Path("d").mkdir()
        write_pgm(Path("d", stray), np.zeros((9, 9), dtype=np.uint8))
        code, stdout, err = run(["generate", "d", "--frames", "2", "--width", "9"], capsys)
        assert (code, stdout) == (3, "")
        assert err == f"data error: d/{stray}: not a frame name, expected frame_000000.pgm, ...\n"
        assert len(err.encode()) <= 120
        assert sorted(path.name for path in Path("d").iterdir()) == [stray]

    def test_bad_direction_exits_1(self, tmp_path, capsys):
        code, _, err = run(
            ["generate", str(tmp_path / "x"), "--direction", "diagonal"], capsys
        )
        assert code == 1
        # The one rule for a bad choice, the one --set placement= takes.
        assert err == "error: unknown --direction 'diagonal'; choose from up/down/left/right/head_on\n"

    def test_direction_help_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        assert "[--direction {up,down,left,right,head_on}]" in capsys.readouterr().out


    def test_peak_memory_does_not_grow_with_the_frame_count(self, tmp_path, capsys):
        # Each frame is written as it is rendered and then dropped, and
        # nothing, not even its path, is kept: ten times the frames peak
        # within one frame's float64 image of each other.
        size = ["--width", "64", "--height", "48", "--noise", "5"]
        assert run(["generate", str(tmp_path / "warm"), "--frames", "2", *size], capsys)[0] == 0

        def peak(frames):
            argv = ["generate", str(tmp_path / f"seq{frames}"), "--frames", str(frames), *size]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(60) - peak(6)) < 64 * 48 * 8


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

    @pytest.mark.parametrize("digits", [4000, 5000])
    def test_huge_header_number_exits_3_on_one_short_line(
        self, tmp_path, capsys, monkeypatch, digits
    ):
        monkeypatch.chdir(tmp_path)
        Path("seq").mkdir()
        write_pgm("seq/frame_000000.pgm", np.zeros((9, 9), dtype=np.uint8))
        Path("seq/frame_000001.pgm").write_bytes(b"P5\n1" + b"0" * (digits - 1) + b" 9\n255\n")
        code, stdout, err = run(["detect", "seq", "--out", "o.csv"], capsys)
        assert (code, stdout) == (3, "")
        assert err.startswith("data error: seq/frame_000001.pgm: bad header token ")
        assert err.count("\n") == 1 and len(err.encode()) <= 120
        assert not Path("o.csv").exists()

    def test_dimension_drift_exits_3(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((16, 16), dtype=np.uint8))
        write_pgm(seq / "frame_000001.pgm", np.zeros((16, 17), dtype=np.uint8))
        code, _, err = run(["detect", str(seq), "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 3
        assert err == (
            f"data error: {seq / 'frame_000001.pgm'}: frame is 17x16, previous frame is 16x16\n"
        )

    def test_too_small_frame_names_its_file(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        for index in range(2):
            write_pgm(seq / f"frame_{index:06d}.pgm", np.zeros((4, 4), dtype=np.uint8))
        out = tmp_path / "o.csv"
        code, stdout, err = run(["detect", str(seq), "--out", str(out)], capsys)
        assert code == 3
        assert err == (
            f"data error: {seq / 'frame_000000.pgm'}: frame must be at least 5x5 "
            "so the inhibition radius fits, got 4x4\n"
        )
        assert not stdout and not out.exists()

    def test_one_frame_writes_the_header_only(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(seq / "frame_000000.pgm", np.zeros((9, 9), dtype=np.uint8))
        out = tmp_path / "o.csv"
        code, stdout, err = run(["detect", str(seq), "--out", str(out)], capsys)
        assert code == 0 and not err
        assert stdout == f"processed 1 frames, wrote 0 rows to {out}\n"
        assert out.read_bytes() == (",".join(cli.DETECT_COLUMNS) + "\n").encode()

    def test_error_on_the_first_row_writes_nothing(self, tmp_path, capsys, looming):
        # The grouping scale is checked against each frame's data, on the
        # first processed frame here, before any row exists.
        out = tmp_path / "o.csv"
        argv = ["detect", str(looming[0]), "--set", "delta_c=-1e308", "--out", str(out)]
        code, stdout, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: grouping scale is -1e+308;") and err.count("\n") == 1
        assert not stdout and not out.exists()

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
        # t_s is the one threshold for firing: no key rescales kappa.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c2=0.01\n")
        for given in (["--set", "c2=0.01"], ["--config", str(cfg)]):
            out = tmp_path / "c2.csv"
            code, _, err = run(["detect", str(seq), *given, "--out", str(out)], capsys)
            assert (code, err) == (1, "error: unknown config key: 'c2'\n")
            assert not out.exists()

    @pytest.mark.parametrize("key", KEYS_DETECT_DOES_NOT_READ)
    def test_unread_key_leaves_csv_unchanged(self, tmp_path, capsys, looming, key):
        # One config file serves both commands: detect checks every key, the
        # trial's cross-field rules included, but reads only the layer-stack,
        # normalization and steering ones.
        seq, default_csv = looming
        kind, default = FLAT_KEYS[key]
        value = "up" if kind is str else str(kind(default) + 1)
        assert value != str(default)
        out = tmp_path / "o.csv"
        argv = ["detect", str(seq), "--set", f"{key}={value}", "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        assert out.read_bytes() == default_csv

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

    @pytest.mark.parametrize(
        "source, message",
        [
            (["--config", "run.cfg"], "run.cfg:3: 't_s' is set again (run.cfg:1)"),
            (["--set", "t_s=100", "--set", "t_s=200"], "--set #2: 't_s' is set again (--set #1)"),
        ],
        ids=["config-file", "set-flag"],
    )
    def test_key_repeated_in_one_source_exits_1(
        self, tmp_path, capsys, monkeypatch, source, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("t_s=100\n# louder\nt_s=200\n")
        code, stdout, err = run(["simulate", *source, "--out", "t.csv"], capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not stdout and not (tmp_path / "t.csv").exists()

    def test_config_file_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"t_s=100\n\xff\xfe\n")
        out = tmp_path / "t.csv"
        code, stdout, err = run(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 1 and not stdout
        assert err.startswith(f"error: {cfg}: not UTF-8 text (") and err.count("\n") == 1
        assert not out.exists()

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
        # max_duration=1e308 fails its step count "must be finite in steps of dt".
        key = setting.split("=")[0]
        assert f"{key} must be a finite number" in err or f"{key} must be finite in" in err
        assert "OUTCOME" not in stdout

    @pytest.mark.parametrize(
        "setting",
        [
            "dt=-5",
            "placement=bogus",
            "width=3",
            "hfov_deg=500",
            "margin=-1",
            "arena_xmin=7",
            "obstacle_distance=0.3",
            "width=１００",
            "c_w=٤.0",
            "t_s=1_5_0",
            "width=1" + "0" * 400,
        ],
    )
    def test_detect_and_simulate_reject_alike(self, tmp_path, capsys, looming, setting):
        # Decided: one file serves both commands, so both check the whole
        # trial, its cross-field rules included, even where detect reads
        # none of the keys involved.
        seq, _ = looming
        csv_out, trace_out = tmp_path / "d.csv", tmp_path / "t.csv"
        detect = run(["detect", str(seq), "--set", setting, "--out", str(csv_out)], capsys)
        simulate = run(["simulate", "--set", setting, "--out", str(trace_out)], capsys)
        assert detect[0] == simulate[0] == 1
        assert detect[2] == simulate[2] and detect[2].startswith("error: ")
        assert not detect[1] and not simulate[1]
        assert not csv_out.exists() and not trace_out.exists()

    @pytest.mark.parametrize("command", ["simulate", "generate"])
    def test_integer_past_the_float_range_exits_1_naming_the_range(
        self, tmp_path, capsys, command
    ):
        # The message gives the integer's digit count, not its digits, and
        # the text is sized before int() reads it, so past int()'s 4,300-digit
        # limit the wording is the same.
        name = {"simulate": "width", "generate": "--width"}[command]
        for digits in (401, 5000):
            huge = "1" + "0" * (digits - 1)
            out = tmp_path / "out"
            argv = {
                "simulate": ["simulate", "--set", f"width={huge}", "--out", str(out)],
                "generate": ["generate", str(out), "--width", huge],
            }[command]
            code, stdout, err = run(argv, capsys)
            assert code == 1
            assert err == f"error: {name} must fit in a float, got an integer of {digits} digits\n"
            assert len(err) < 120
            assert not stdout and not out.exists()

    @pytest.mark.parametrize("digits", [401, 5000])
    def test_float_key_given_a_huge_integer_exits_1_naming_the_key(
        self, tmp_path, capsys, digits
    ):
        out = tmp_path / "out.csv"
        huge = "1" + "0" * (digits - 1)
        code, stdout, err = run(["simulate", "--set", f"c1={huge}", "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: c1 must fit in a float, got an integer of {digits} digits\n"
        assert not out.exists()

    @pytest.mark.parametrize("limit", [0, 640])
    def test_int_digit_limit_does_not_decide_the_message(self, tmp_path, capsys, limit):
        # 640 is the lowest limit CPython allows, 0 lifts it.
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            pytest.skip("this Python has no int() digit limit")
        before = sys.get_int_max_str_digits()
        set_limit(limit)
        try:
            # Leading zeros are not digits of the size.
            for text in ("1" + "0" * 1000, "-" + "0" * 2000 + "7" * 700):
                code, _, err = run(["simulate", "--set", f"width={text}"], capsys)
                digits = len(text.lstrip("-0"))
                assert (code, err) == (
                    1, f"error: width must fit in a float, got an integer of {digits} digits\n"
                )
        finally:
            set_limit(before)

    def test_long_text_is_quoted_by_its_start_and_length(self, tmp_path, capsys):
        text = "x" * 5000
        code, _, err = run(["simulate", "--set", f"t_s={text}"], capsys)
        shown = f"{'x' * 32!r}... of length 5000"
        assert (code, err) == (1, f"error: invalid value for t_s: {shown}\n")
        code, _, err = run(["simulate", "--set", text], capsys)
        assert (code, err) == (1, f"error: --set #1: expected KEY=VALUE, got {shown}\n")

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
            (
                ["noise_amplitude=1e308"],
                "noise_amplitude must be non-negative and at most half the largest float",
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

    @pytest.mark.parametrize("key", ["cruise_speed", "speed_0"])
    def test_speed_that_outruns_ray_casting_exits_1(self, tmp_path, capsys, key):
        out = tmp_path / "t.csv"
        argv = ["simulate", "--set", f"{key}=1e300", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(argv, capsys)
        assert code == 1
        assert f"error: {key}=1e+300 can carry the vehicle too far" in err
        assert not caught and "Traceback" not in err
        assert "OUTCOME" not in stdout
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "simulate"])
    @pytest.mark.parametrize("c_de", ["1e308", "-1e308"])
    def test_huge_decay_coefficient_runs_quietly(self, tmp_path, capsys, looming, command, c_de):
        # |G| * c_de overflows to +-inf, which keeps or decays the cell as
        # exact arithmetic would: no warning reaches stderr.
        argv = [command, "--set", f"c_de={c_de}", "--out", str(tmp_path / "o.csv")]
        if command == "detect":
            argv.insert(1, str(looming[0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(argv, capsys)
        assert code == 0
        assert not caught and err == ""

    def test_obstacle_enclosing_the_start_prints_a_short_clearance(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["simulate", "--set", "obstacle_radius=1e150", "--out", str(out)]
        code, stdout, err = run(argv, capsys)
        assert code == 1
        assert err == (
            "error: obstacle overlaps the start position: its clearance -1e+150 "
            "is within the margin 0.1\n"
        )
        assert "OUTCOME" not in stdout
        assert not out.exists()

    def test_seed_key_rejected(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--set", "seed=1", "--out", str(tmp_path / "t.csv")], capsys
        )
        assert code == 1
        assert "unknown config key: 'seed'" in err

    def test_step_count_above_cap_exits_1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, stdout, err = run(["simulate", "--set", "dt=1e-9", "--out", str(out)], capsys)
        assert code == 1
        assert "at most 1000000" in err
        assert "OUTCOME" not in stdout
        assert not out.exists()

    def test_huge_step_count_prints_the_ratio(self, tmp_path, capsys):
        # round(20 / 1e-300) has 302 digits; the message shows 2e+301.
        out = tmp_path / "t.csv"
        code, _, err = run(["simulate", "--set", "dt=1e-300", "--out", str(out)], capsys)
        assert code == 1
        [line] = err.splitlines()
        assert len(line) < 120 and "2e+301" in line and "at most 1000000" in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["simulate", "--set", "hfov_deg=180", "--out"], "180.0"),
            (["generate", "--hfov-deg", "0"], "0.0"),
        ],
        ids=["simulate", "generate"],
    )
    def test_field_of_view_outside_0_180_degrees_exits_1(
        self, tmp_path, capsys, argv, value
    ):
        out = tmp_path / "out"
        code, stdout, err = run([*argv, str(out)], capsys)
        assert code == 1
        assert err == f"error: hfov_deg must lie in (0, 180), got {value}\n"
        assert not stdout and not out.exists()


def counting(patch, module, names):
    """Wrap each ``module.<name>`` global so calls to it are counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        patch.setattr(module, name, wrapper)
    return calls


class TestBenchmarkHooks:
    """The benchmark times a frame from these module globals, looked up
    once per frame; were a call to bypass one, its timings would read 0."""

    def test_detect_reads_and_steers_through_cli_globals(self, tmp_path, capsys, monkeypatch):
        seq, frames = tmp_path / "seq", 9
        assert run(["generate", str(seq), "--frames", str(frames)], capsys)[0] == 0
        calls = counting(monkeypatch, cli, ("read_pgm", "Frame", "select_escape"))
        assert run(["detect", str(seq), "--out", str(tmp_path / "d.csv")], capsys)[0] == 0
        assert calls == {"read_pgm": frames, "Frame": frames, "select_escape": frames - 1}

    def test_trial_renders_through_flightsim_global(self, tmp_path, capsys, monkeypatch):
        calls = counting(monkeypatch, flightsim, ("render_frame",))
        out = tmp_path / "trace.csv"
        argv = ["simulate", "--set", "width=32", "--set", "height=24", "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        assert calls == {"render_frame": len(read_rows(out))} != {"render_frame": 0}


    def test_parser_is_built_once_and_a_patched_command_runs(self, tmp_path, capsys, monkeypatch):
        # The parser outlives a call, but the command is looked up at each
        # one, so a probe set on cli.cmd_detect after the first still runs.
        cli.build_parser.cache_clear()
        seq = tmp_path / "seq"
        assert run(["generate", str(seq), "--frames", "3"], capsys)[0] == 0
        calls = counting(monkeypatch, cli, ("cmd_detect",))
        argv = ["detect", str(seq), "--out", str(tmp_path / "d.csv"), "--set", "t_s=100"]
        assert run(argv, capsys)[0] == 0
        assert calls == {"cmd_detect": 1}
        assert cli.build_parser.cache_info().misses == 1
        # An appended flag does not leak into the next parse.
        assert cli.build_parser().parse_args(argv[:2]).overrides == []


# Set in the child before numpy loads: an address space that no camera
# of 100000x100000 fits in, so no test ever makes that allocation.
TOO_LARGE_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from clgmd.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--set", "width=100000", "--set", "height=100000", "--out"],
        ["generate", "--frames", "1", "--width", "100000", "--height", "100000"],
    ],
    ids=["simulate", "generate"],
)
def test_camera_too_large_to_allocate_exits_1(tmp_path, argv):
    out = tmp_path / "out"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(clgmd.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", TOO_LARGE_CHILD, *argv, str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: frame or camera too large to allocate")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not done.stdout and not out.exists()


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
        assert err == "error: --set #1: expected KEY=VALUE, got 't_s:150'\n"
