"""Binary PGM reader/writer and sequence handling."""

import numpy as np
import pytest

from clgmd.errors import DataError
from clgmd.pgm import (
    MANIFEST_NAME,
    frame_path,
    list_sequence,
    read_pgm,
    read_sequence,
    write_pgm,
    write_sequence,
)


class TestSingleFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        img = rng.integers(0, 256, (33, 47), dtype=np.uint8)
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_header_layout(self, tmp_path):
        img = np.zeros((5, 9), dtype=np.uint8)
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        assert path.read_bytes().startswith(b"P5\n9 5\n255\n")

    def test_reader_tolerates_comments_and_whitespace(self, tmp_path):
        payload = bytes(range(25))
        data = b"P5 # magic\n# a comment line\n  5\t5 # dims\n255\n" + payload
        path = tmp_path / "weird.pgm"
        path.write_bytes(data)
        img = read_pgm(path)
        assert img.shape == (5, 5)
        assert img[0, 3] == 3

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n5 5\n255\n" + b"0" * 25)
        with pytest.raises(DataError):
            read_pgm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n5 5\n65535\n" + bytes(50))
        with pytest.raises(DataError, match="max value"):
            read_pgm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n5 5\n255\n" + bytes(10))
        with pytest.raises(DataError, match="truncated"):
            read_pgm(path)

    def test_rejects_garbage_header_token(self, tmp_path):
        path = tmp_path / "tok.pgm"
        path.write_bytes(b"P5\nfive 5\n255\n" + bytes(25))
        with pytest.raises(DataError):
            read_pgm(path)

    def test_write_rejects_out_of_range(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(tmp_path / "x.pgm", np.full((5, 5), 300.0))


class TestSequence:
    def test_write_list_read(self, tmp_path):
        rng = np.random.default_rng(3)
        imgs = [rng.integers(0, 256, (8, 8), dtype=np.uint8) for _ in range(4)]
        out = tmp_path / "seq"
        paths = write_sequence(out, imgs, manifest={"speed": 1.2, "frames": 4})
        assert [p.name for p in paths] == [
            "frame_000000.pgm",
            "frame_000001.pgm",
            "frame_000002.pgm",
            "frame_000003.pgm",
        ]
        assert (out / MANIFEST_NAME).read_text() == "speed=1.2\nframes=4\n"
        back = read_sequence(out)
        assert len(back) == 4
        assert all(np.array_equal(a, b) for a, b in zip(imgs, back))

    def test_frame_path_zero_padded(self, tmp_path):
        assert frame_path(tmp_path, 42).name == "frame_000042.pgm"

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no frames"):
            list_sequence(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not a directory"):
            list_sequence(tmp_path / "nope")

    def test_dimension_drift_names_offender(self, tmp_path):
        write_pgm(tmp_path / "frame_000000.pgm", np.zeros((8, 8), dtype=np.uint8))
        write_pgm(tmp_path / "frame_000001.pgm", np.zeros((8, 9), dtype=np.uint8))
        with pytest.raises(DataError, match="frame_000001"):
            read_sequence(tmp_path)

    def test_frames_sorted_by_name(self, tmp_path):
        for i in (2, 0, 1):
            write_pgm(
                tmp_path / f"frame_{i:06d}.pgm",
                np.full((5, 5), i, dtype=np.uint8),
            )
        frames = read_sequence(tmp_path)
        assert [int(f[0, 0]) for f in frames] == [0, 1, 2]

    @pytest.mark.parametrize(
        "indices,missing", [((0, 1, 3), "frame_000002.pgm"), ((1, 2), "frame_000000.pgm")]
    )
    def test_gap_names_missing_frame(self, tmp_path, indices, missing):
        for i in indices:
            write_pgm(frame_path(tmp_path, i), np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(DataError, match=f"{missing}: missing"):
            list_sequence(tmp_path)

    @pytest.mark.parametrize(
        "name", ["background.pgm", "frame_1.pgm", "frame_0000001.pgm", "frame_00000a.pgm"]
    )
    def test_stray_pgm_name_rejected(self, tmp_path, name):
        for i in (0, 1):
            write_pgm(frame_path(tmp_path, i), np.zeros((5, 5), dtype=np.uint8))
        write_pgm(tmp_path / name, np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(DataError, match=f"{name}: not a frame name"):
            list_sequence(tmp_path)
