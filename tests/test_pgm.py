"""Binary PGM reader/writer and sequence handling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clgmd.errors import DataError
from clgmd.pgm import (
    MANIFEST_NAME,
    frame_path,
    list_sequence,
    read_pgm,
    write_csv,
    write_pgm,
    write_sequence,
)
from oracles import csv_writer_table


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
        # first as 10x10, and raises ValueError past its digit limit.  A
        # number past 309 digits is bad whether or not int() reads it.
        for header in (
            b"P5\n1_0 +10\n2_55\n",
            b"P5 \xb25 5 255\n",
            b"P5 " + b"1" * 5000 + b" 5 255\n",
            b"P5 " + b"1" * 4000 + b" 5 255\n",
        ):
            path.write_bytes(header + bytes(100))
            with pytest.raises(DataError, match="bad header token"):
                read_pgm(path)

    def test_zero_padded_header_numbers_are_read(self, tmp_path):
        path = tmp_path / "pad.pgm"
        pad = b"0" * 5000
        path.write_bytes(b"P5 " + pad + b"5 " + pad + b"5 " + pad + b"255\n" + bytes(range(25)))
        assert np.array_equal(read_pgm(path), np.arange(25, dtype=np.uint8).reshape(5, 5))

    @staticmethod
    def assert_write_rejects_dtype(path, values):
        # Only the renderer turns an image into pixels; no other dtype is coerced.
        dtype = np.asarray(values).dtype
        message = rf"^image must be a 2-D uint8 array, got dtype {dtype}, shape \(5, 5\)$"
        with pytest.raises(DataError, match=message) as info:
            write_pgm(path, values)
        assert type(info.value) is DataError
        assert not path.exists()

    def test_write_rejects_out_of_range(self, tmp_path):
        # No value outside 0..255 can reach the file: only uint8 is taken.
        for value in (300.0, np.nan, np.inf, -np.inf, -0.5, 255.5):
            img = np.full((5, 5), 7.0)
            img[2, 3] = value
            self.assert_write_rejects_dtype(tmp_path / "x.pgm", img)
        self.assert_write_rejects_dtype(tmp_path / "x.pgm", np.full((5, 5), 256))

    @pytest.mark.parametrize(
        "values",
        [np.full((5, 5), 7 + 0j), np.full((5, 5), 7 + 1j), np.ones((5, 5), dtype=bool),
         np.full((5, 5), "7"), np.full((5, 5), 7, dtype=object)],
        ids=["complex", "complex-imaginary", "bool", "str", "object"],
    )
    def test_write_rejects_dtypes_other_than_integer_and_real(self, tmp_path, values):
        self.assert_write_rejects_dtype(tmp_path / "x.pgm", values)

    @pytest.mark.parametrize(
        "values",
        [np.full((5, 5), 7.0), np.full((5, 5), 7, dtype=np.int64),
         np.full((5, 5), 7, dtype=np.int16), [[7] * 5] * 5],
        ids=["float64", "int64", "int16", "nested-list"],
    )
    def test_write_rejects_integer_and_real_dtypes_but_uint8(self, tmp_path, values):
        self.assert_write_rejects_dtype(tmp_path / "x.pgm", values)


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
        assert write_sequence(out, imgs, manifest={"speed": 1.2, "frames": 4}) == 4
        assert [p.name for p in list_sequence(out)] == [
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


# Signed zeros, subnormals, the extremes of the tuned range and beyond,
# and the non-finite values, each drawn often.
CSV_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    float("nan"), float("inf"), -float("inf"), 0.0000005, -0.0000005,
)


@st.composite
def csv_tables(draw):
    """(columns, verbatim, rows): verbatim cells are ints or the axis
    strings, the others ints or floats of any magnitude."""
    # Two columns at least: csv.writer quotes a one-column row holding '',
    # and every table the package writes has ten or eighteen.
    columns = [f"c{i}" for i in range(draw(st.integers(2, 18)))]
    verbatim = tuple(c for c in columns if draw(st.booleans()))
    integers = st.integers(-(10**12), 10**12)
    fixed = st.one_of(integers, st.sampled_from(CSV_EDGE_FLOATS), st.floats())
    as_is = st.one_of(integers, st.sampled_from(("", "y", "z")))
    row = st.tuples(*(as_is if c in verbatim else fixed for c in columns))
    return columns, verbatim, draw(st.lists(row, max_size=6))


class TestCsv:
    @given(csv_tables())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_csv_writer(self, tmp_path, table):
        columns, verbatim, rows = table
        path = tmp_path / "t.csv"
        assert write_csv(path, columns, iter(rows), verbatim=verbatim) == len(rows)
        want = csv_writer_table(columns, rows, verbatim)
        assert path.read_bytes() == want.encode("ascii")

    def test_rows_before_an_error_stay_on_disk(self, tmp_path):
        def rows():
            yield (1, 2.5)
            raise DataError("frame 2 is corrupt")

        path = tmp_path / "t.csv"
        with pytest.raises(DataError):
            write_csv(path, ("frame", "x"), rows(), verbatim=("frame",))
        assert path.read_text() == "frame,x\n1,2.500000\n"
