"""Binary PGM (P5) sequence I/O, plus the CSV dialect of the output tables.

Frames are 8-bit grayscale, max value 255, written as frame_000000.pgm,
frame_000001.pgm, ... next to a manifest.txt recording the generating
parameters.  The reader tolerates comments and arbitrary whitespace in
the header, as the format allows; the header numbers must be ASCII digits.
"""

from __future__ import annotations

import itertools
import os
import re
from pathlib import Path

import numpy as np

from .errors import DataError
from .layers import to_uint8

FRAME_PATTERN = "frame_{:06d}.pgm"
_FRAME_NAME = re.compile(r"frame_(\d+)\.pgm")
MANIFEST_NAME = "manifest.txt"
# Whitespace and comments (``#`` to the end of the line), then one token.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def write_pgm(path, image: np.ndarray) -> None:
    """Write one P5 frame; values of any other integer or real dtype are
    rounded half to even."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise DataError(f"image must be 2-D, got shape {img.shape}")
    img = to_uint8(img, "image", "be finite and fit in [0, 255]", DataError)
    height, width = img.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(img.tobytes())


def _header_tokens(data: bytes, path) -> tuple[list[int], int]:
    """Magic check plus the three header integers; returns (ints, data offset)."""
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (missing P5 magic)")
    pos = 2
    tokens: list[int] = []
    for _ in range(3):
        match = _HEADER_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise DataError(f"{path}: truncated PGM header")
        try:
            if not token.isdigit():  # int() would also take b"+1" and b"1_0"
                raise ValueError
            tokens.append(int(token))  # or ValueError past int()'s digit limit
        except ValueError:
            raise DataError(f"{path}: bad header token {token!r}") from None
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DataError(f"{path}: missing whitespace after PGM header")
    return tokens, pos + 1


def read_pgm(path) -> np.ndarray:
    # Unbuffered: the whole file is read at once, so a buffer only copies.
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    (width, height, maxval), offset = _header_tokens(data, path)
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported max value {maxval}, expected 255")
    expected = width * height
    payload = data[offset : offset + expected]
    if len(payload) < expected:
        raise DataError(
            f"{path}: pixel data truncated ({len(payload)} of {expected} bytes)"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def frame_path(directory, index: int) -> Path:
    return Path(directory) / FRAME_PATTERN.format(index)


def write_sequence(directory, images, manifest: dict[str, object] | None = None) -> int:
    """Write numbered frames plus a key=value manifest; returns the count
    of frames.

    Each image is written as it is produced, and nothing is kept per
    frame.  The directory is made once the first image, or with no images
    the manifest, is ready, so an error raised while producing the first
    image leaves nothing behind; as in :func:`write_csv`, the frames before
    a later error stay on disk.
    """
    directory = Path(directory)
    count = 0
    for img in images:
        if not count:
            os.makedirs(directory, exist_ok=True)
        write_pgm(frame_path(directory, count), img)
        count += 1
    os.makedirs(directory, exist_ok=True)
    if manifest is not None:
        lines = [f"{key}={value}" for key, value in manifest.items()]
        (directory / MANIFEST_NAME).write_text("\n".join(lines) + "\n")
    return count


def first_frame_from(directory, start: int) -> Path | None:
    """The lowest-numbered frame file in ``directory`` whose index is
    ``start`` or more, or None."""
    indexed = [
        (int(match[1]), path)
        for path in Path(directory).glob("*.pgm")
        if (match := _FRAME_NAME.fullmatch(path.name)) and int(match[1]) >= start
    ]
    return min(indexed)[1] if indexed else None


def list_sequence(directory) -> list[Path]:
    """Numbered frame files in index order.

    Every ``*.pgm`` file must be named by ``FRAME_PATTERN`` and the indices
    must run from 0 without a gap, because frames are numbered by position
    and P is the change between neighbours: a stray name or a missing
    frame raises ``DataError``.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"{directory}: not a directory")
    paths = {}
    for path in directory.iterdir():
        if path.suffix != ".pgm":
            continue
        match = _FRAME_NAME.fullmatch(path.name)
        if match is None or path.name != FRAME_PATTERN.format(int(match[1])):
            raise DataError(
                f"{path}: not a frame name, expected {FRAME_PATTERN.format(0)}, "
                f"{FRAME_PATTERN.format(1)}, ..."
            )
        paths[int(match[1])] = path
    if not paths:
        raise DataError(f"{directory}: no frames found (*.pgm)")
    for index in range(len(paths)):
        if index not in paths:
            raise DataError(
                f"{frame_path(directory, index)}: missing, the sequence has a gap"
            )
    return [paths[index] for index in range(len(paths))]


def write_csv(path, columns, rows, verbatim=()) -> int:
    """Header plus one line per row, LF line endings; returns the row count.

    Column names, and values in the ``verbatim`` columns, are written as
    they are (``%s``, unquoted, so they must hold no comma, quote or line
    break), all other values as ``%.6f``, through one format string per
    row.  The file is opened once the first row is produced, or the rows
    end, so an error raised while producing the first leaves no file; later
    rows are written as they are produced, so an error raised while
    producing one leaves the rows before it on disk.
    """
    line = ",".join("%s" if column in verbatim else "%.6f" for column in columns) + "\n"
    rows = iter(rows)
    first = list(itertools.islice(rows, 1))
    count = 0
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for row in itertools.chain(first, rows):
            handle.write(line % tuple(row))
            count += 1
    return count
