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

from .errors import FLOAT_DIGITS, DataError, shown
from .layers import to_uint8

FRAME_PATTERN = "frame_{:06d}.pgm"
# FRAME_PATTERN's names: six digits, or more with no leading zero.
_FRAME_NAME = re.compile(r"frame_([0-9]{6}|[1-9][0-9]{6,})\.pgm")
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


def read_pgm(path) -> np.ndarray:
    # Unbuffered: the whole file is read at once, so a buffer only copies.
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (missing P5 magic)")
    pos, header = 2, []
    for _ in range(3):
        match = _HEADER_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise DataError(f"{path}: truncated PGM header")
        # ASCII digits, sized by their count: int() takes b"+1" and has a digit limit.
        digits = (token.lstrip(b"0") or b"0") if len(token) > FLOAT_DIGITS else token
        if not digits.isdigit() or len(digits) > FLOAT_DIGITS:
            raise DataError(f"{path}: bad header token {shown(token)}")
        header.append(int(digits))
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DataError(f"{path}: missing whitespace after PGM header")
    width, height, maxval = header
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: invalid dimensions {shown(width)}x{shown(height)}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported max value {shown(maxval)}, expected 255")
    expected = width * height
    payload = data[pos + 1 : pos + 1 + expected]
    if len(payload) < expected:
        raise DataError(f"{path}: pixel data truncated ({len(payload)} of {shown(expected)} bytes)")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def frame_path(directory, index: int) -> Path:
    return Path(directory) / FRAME_PATTERN.format(index)


def write_sequence(directory, images, manifest: dict[str, object]) -> int:
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
    lines = [f"{key}={value}" for key, value in manifest.items()]
    (directory / MANIFEST_NAME).write_text("\n".join(lines) + "\n")
    return count


def _frame_paths(directory: Path) -> dict[int, Path]:
    """``directory``'s ``*.pgm`` files by frame index (none if it is not a
    directory); frames are numbered by position, so any other name raises."""
    paths = {}
    for path in directory.iterdir() if directory.is_dir() else ():
        if path.suffix != ".pgm":
            continue
        match = _FRAME_NAME.fullmatch(path.name)
        if match is None:
            raise DataError(f"{path}: not a frame name, expected {FRAME_PATTERN.format(0)}, ...")
        paths[int(match[1])] = path
    return paths


def first_frame_from(directory, start: int) -> Path | None:
    """The lowest-numbered frame in ``directory`` from index ``start`` on, or None."""
    paths = _frame_paths(Path(directory))
    return paths[min(later)] if (later := [i for i in paths if i >= start]) else None


def list_sequence(directory) -> list[Path]:
    """Numbered frame files in index order; a gap, as P is the change
    between neighbours, or a stray ``*.pgm`` name raises ``DataError``."""
    directory = Path(directory)
    paths = _frame_paths(directory)
    if not paths:
        problem = "no frames found (*.pgm)" if directory.is_dir() else "not a directory"
        raise DataError(f"{directory}: {problem}")
    gap = next((index for index in range(len(paths)) if index not in paths), None)
    if gap is not None:
        raise DataError(f"{frame_path(directory, gap)}: missing, the sequence has a gap")
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
