"""Binary PGM reader/writer and sequence handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgmd.errors import DataError
from clgmd.pgm import (
    MANIFEST_NAME,
    frame_path,
    list_sequence,
    read_pgm,
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
        # Header numbers are ASCII digits only; int() alone would take the
        # first as 10x10, and raises ValueError past its digit limit.
        for header in (
            b"P5\n1_0 +10\n2_55\n",
            b"P5 \xb25 5 255\n",
            b"P5 " + b"1" * 5000 + b" 5 255\n",
        ):
            path.write_bytes(header + bytes(100))
            with pytest.raises(DataError, match="bad header token"):
                read_pgm(path)

    def test_write_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "x.pgm"
        for value in (300.0, np.nan, np.inf, -np.inf, -0.5, 255.5):
            img = np.full((5, 5), 7.0)
            img[2, 3] = value
            with pytest.raises(DataError, match="finite and fit in"):
                write_pgm(path, img)
            assert not path.exists()

    def test_write_rounds_floats_half_to_even(self, tmp_path):
        values = np.array([[3.7, 3.2, 254.5, 0.5, 1.5]] * 5)
        path = tmp_path / "x.pgm"
        write_pgm(path, values)
        assert read_pgm(path)[0].tolist() == [4, 3, 254, 0, 2]


@pytest.fixture(scope="module")
def pgm_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.pgm"


_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT = st.builds(
    lambda text, end: b"#" + text + end,
    st.binary(max_size=8).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    st.sampled_from([b"\n", b"\r"]),
)
# Whitespace first, then any mix of whitespace and comments.
_GAP = st.builds(
    lambda first, rest: first + b"".join(rest),
    _SPACE,
    st.lists(st.one_of(_SPACE, _COMMENT), max_size=4),
)
# Header-like runs: separators, digits and what int() would also accept.
_HEADERISH = st.lists(
    st.sampled_from(
        [b" ", b"\n", b"\r", b"#", b"0", b"1", b"5", b"255"]
        + [b"+", b"_", b"-", b"\xb2", b"x"]
    ),
    max_size=12,
).map(b"".join)


class TestHeaderFuzz:
    @given(
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        gaps=st.lists(_GAP, min_size=3, max_size=3),
        end=_SPACE,
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_valid_header_parses_to_its_dimensions(
        self, pgm_file, width, height, gaps, end, data
    ):
        size = width * height
        payload = data.draw(st.binary(min_size=size, max_size=size))
        numbers = (str(width).encode(), str(height).encode(), b"255")
        header = b"P5" + b"".join(gap + n for gap, n in zip(gaps, numbers)) + end
        pgm_file.write_bytes(header + payload)
        img = read_pgm(pgm_file)
        assert img.shape == (height, width)
        assert img.tobytes() == payload

    @given(rest=st.one_of(st.binary(max_size=40), _HEADERISH))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_after_magic_give_an_array_or_data_error(self, pgm_file, rest):
        pgm_file.write_bytes(b"P5" + rest)
        try:
            img = read_pgm(pgm_file)
        except DataError:
            return
        assert img.dtype == np.uint8 and img.ndim == 2


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
        back = [read_pgm(path) for path in list_sequence(out)]
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

    def test_frames_sorted_by_name(self, tmp_path):
        for i in (2, 0, 1):
            write_pgm(
                tmp_path / f"frame_{i:06d}.pgm",
                np.full((5, 5), i, dtype=np.uint8),
            )
        frames = [read_pgm(path) for path in list_sequence(tmp_path)]
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
