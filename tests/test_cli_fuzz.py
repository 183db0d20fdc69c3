"""Drawn command lines and ``--config`` files at numeric extremes, and
corrupted frame sequences: ``main`` returns a documented exit code,
nothing escapes it, not even a warning, and a rejected run leaves no file
behind.

No drawn value may size an allocation or a loop: ``--frames`` stays at
most 3, a camera side at most 16 and a trial at most 50 steps, because a
10^5 x 10^5 camera asks numpy for 80 GB.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clgmd import cli, config
from clgmd.cli import main
from clgmd.errors import FLOAT_DIGITS
from clgmd.flightsim import MAX_STEPS
from clgmd.pgm import MANIFEST_NAME, frame_path, write_pgm, write_sequence

HUGE = str(10**30)
FLOATS = ("1e308", "-1e308", "1e160", "-1e160", "1e-320", "5e-324", "0", "-1", HUGE, "nan", "inf")
INTS = ("0", "-1", "1", HUGE, "1e308")
# A size or a frame count is small, or a value no loop or array can take.
VALUES = {
    "frames": ("0", "-1", "1", "2", "1e308"),
    "width": ("0", "-1", "5", "16", "1e308"),
    "height": ("0", "-1", "5", "16", "1e308"),
    "direction": ("left", "head_on", "diagonal", "1e308"),
    "placement": ("up", "centered", "1e308"),
}

# Each run starts from a small, short case; the drawn flags come after it
# and win.
GENERATE_BASE = ["--frames", "3", "--width", "16", "--height", "16"]
RUN_BASE = {"width": "16", "height": "16", "max_duration": "0.5"}
KINDS = {key: kind for key, kind, _ in config._flat_keys()}
DEFAULTS = {key: default for key, _, default in config._flat_keys()}
NUMBER_FLAGS = [flag for flag, _, name, _ in cli._GENERATE_FLAGS if name != "direction"]
NUMBER_KEYS = sorted(key for key, kind in KINDS.items() if kind is not str)

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def _values(name, kind):
    return st.sampled_from(VALUES.get(name, INTS if kind is int else FLOATS))


@st.composite
def generate_flags(draw):
    """One to three distinct ``generate`` flags, each at an extreme."""
    rows = st.sampled_from(cli._GENERATE_FLAGS)
    chosen = draw(st.lists(rows, min_size=1, max_size=3, unique=True))
    return [
        f"{flag}={draw(_values(name, type(getattr(owner, name))))}"
        for flag, owner, name, _ in chosen
    ]


@st.composite
def set_flags(draw, most=2, keys=tuple(sorted(DEFAULTS))):
    """One to ``most`` distinct ``--set`` keys of ``keys``, each at an extreme."""
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=most, unique=True))
    return {key: draw(_values(key, KINDS[key])) for key in chosen}


# The zero of four non-ASCII decimal scripts that int() and float() read:
# fullwidth, Arabic-Indic, Devanagari and Bengali.
NON_ASCII_ZEROS = "\uff10\u0660\u0966\u09e6"


@st.composite
def odd_number_text(draw):
    """A number that ``int()`` and ``float()`` read but the number rule
    rejects: ``_`` between two of its digits, or a non-ASCII digit."""
    digits = str(draw(st.integers(10, 10**6)))
    at = draw(st.integers(1, len(digits) - 1))
    if draw(st.booleans()):
        return f"{digits[:at]}_{digits[at:]}"
    zero = ord(draw(st.sampled_from(NON_ASCII_ZEROS)))
    return digits[:at] + chr(zero + int(digits[at])) + digits[at + 1 :]


# Lines a config file may hold besides its keys, the last three faults.
CONFIG_NOISE = {
    "comment": b"# a comment",
    "blank": b"  ",
    "no equals sign": b"t_s 150",
    "repeated key": None,  # the first drawn key, set again
    "not UTF-8": b"# caf\xe9",
}


@st.composite
def config_files(draw):
    """``--config`` bytes: the small base case and one to four drawn keys,
    each at an extreme, with some of ``CONFIG_NOISE`` among them; and the
    drawn keys' mapping."""
    drawn = draw(set_flags(4, sorted(set(DEFAULTS) - set(RUN_BASE))))
    lines = [f"{key}={value}".encode() for key, value in {**RUN_BASE, **drawn}.items()]
    for name in draw(st.lists(st.sampled_from(sorted(CONFIG_NOISE)), max_size=3)):
        line = CONFIG_NOISE[name] or f"{next(iter(drawn))}=1".encode()
        lines.insert(draw(st.integers(0, len(lines))), line)
    return b"\n".join(lines) + b"\n", drawn


def _run(argv):
    """main's exit code and stderr, with every warning raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    return code, err.getvalue()


def _files(root):
    return {path: path.read_bytes() for path in Path(root).rglob("*") if path.is_file()}


def _run_config(root, overrides):
    """``--config`` holding the small base case, then the drawn ``--set`` flags."""
    path = Path(root) / "base.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in RUN_BASE.items()))
    return ["--config", str(path), *(f"--set={key}={value}" for key, value in overrides.items())]


@FUZZ
@given(flags=generate_flags(), used=st.integers(0, 4))
@example(flags=["--speed=-1e308"], used=0)  # a receding travel that overflows
@example(flags=["--direction=up"], used=4)  # a shorter rerun into a used directory
def test_generate(flags, used):
    with tempfile.TemporaryDirectory() as root:
        out = Path(root) / "seq"
        if used:
            write_sequence(out, [np.zeros((16, 16), np.uint8)] * used, {"frames": used})
        before = _files(root)
        code, _ = _run(["generate", str(out), *GENERATE_BASE, *flags])
        if code == 1:
            assert _files(root) == before
        if code == 0:
            # The directory holds one sequence, the one its manifest names.
            manifest = (out / MANIFEST_NAME).read_text()
            frames = int(re.search(r"^frames=(\d+)$", manifest, re.M)[1])
            names = sorted(path.name for path in out.glob("*.pgm"))
            assert names == [frame_path(out, i).name for i in range(frames)]


@FUZZ
@given(
    text=odd_number_text(),
    flag=st.sampled_from(NUMBER_FLAGS),
    key=st.sampled_from(NUMBER_KEYS),
)
def test_number_text_is_ascii_without_underscores(text, flag, key):
    assert int(text) == float(text)  # what the rule turns away, Python reads
    with tempfile.TemporaryDirectory() as root:
        out = Path(root) / "out"
        code, err = _run(["generate", str(out), *GENERATE_BASE, f"{flag}={text}"])
        assert (code, err) == (1, f"error: invalid value for {flag}: {text!r}\n")
        code, err = _run(["simulate", "--out", str(out), "--set", f"{key}={text}"])
        assert (code, err) == (1, f"error: invalid value for {key}: {text!r}\n")
        assert not any(Path(root).iterdir())


@st.composite
def oversized_number_text(draw):
    """Integer text of 310 to 6,000 digits, past the float range, with an
    optional sign and leading zeros; or text as long with one character
    that no number holds."""
    size = draw(st.integers(FLOAT_DIGITS + 1, 6000))
    start = draw(st.integers(0, 9))
    digits = str(draw(st.integers(1, 9))) + ("0123456789" * 600)[start : start + size - 1]
    text = draw(st.sampled_from(["", "+", "-"])) + "0" * draw(st.integers(0, 40)) + digits
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(st.sampled_from("x#:")) + text[at + 1 :]
    return text


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(text=oversized_number_text())
def test_oversized_number_text_exits_1_on_one_short_line(text):
    # Sized by its digits, not by int()'s 4,300-digit limit, and quoted by
    # its start and length: no message echoes thousands of characters.
    with tempfile.TemporaryDirectory() as root:
        out = Path(root) / "out"
        runs = [["generate", str(out), *GENERATE_BASE, f"{flag}={text}"] for flag in NUMBER_FLAGS]
        runs += [["simulate", "--out", str(out), "--set", f"{key}={text}"] for key in NUMBER_KEYS]
        for argv in runs:
            code, err = _run(argv)
            assert code == 1, (argv[-1][:40], err)
            assert err.count("\n") == 1 and len(err.encode()) <= 120, err
        assert not any(Path(root).iterdir())


CORRUPTIONS = ("none", "truncated", "maxval", "mixed", "gap", "stray")
FRAMES = 4


def _write_frames(directory, corruption, at):
    """FRAMES noisy 8x8 frames, frame ``at`` corrupted; returns the index of
    the frame detect fails on (0 when it rejects the sequence unread), or
    None."""
    rng = np.random.default_rng(at)
    for i in range(FRAMES):
        write_pgm(frame_path(directory, i), rng.integers(0, 256, (8, 8), dtype=np.uint8))
    path = frame_path(directory, at)
    if corruption == "truncated":
        path.write_bytes(path.read_bytes()[:-5])
    elif corruption == "maxval":
        path.write_bytes(path.read_bytes().replace(b"\n255\n", b"\n254\n", 1))
    elif corruption == "mixed":
        write_pgm(path, np.zeros((9, 8), np.uint8))
        return max(at, 1)  # the first frame sets the size the others must match
    elif corruption == "gap":
        path.rename(frame_path(directory, FRAMES + 1))
        return 0
    elif corruption == "stray":
        path.rename(Path(directory) / "notes.pgm")
        return 0
    return None if corruption == "none" else at


@FUZZ
@given(set_flags(), st.sampled_from(CORRUPTIONS), st.integers(0, FRAMES - 1))
def test_detect(overrides, corruption, at):
    with tempfile.TemporaryDirectory() as root:
        seq, out = Path(root) / "seq", Path(root) / "out.csv"
        seq.mkdir()
        bad = _write_frames(seq, corruption, at)
        code, err = _run(["detect", str(seq), "--out", str(out), *_run_config(root, overrides)])
        assert code in ((0, 1) if bad is None else (1, 3)), err
        if code == 0:
            assert len(out.read_text().splitlines()) == FRAMES  # the header and a row a frame
        if code == 1:
            assert not out.exists()
        if code == 3:
            # write_csv's rule: the rows of frames 1..bad-1 stay on disk, and
            # an error while producing the first row leaves no file.
            if bad <= 1:
                assert not out.exists()
            else:
                assert len(out.read_text().splitlines()) == bad


def _steps(overrides):
    """max_duration / dt of the run, or None if either is not a positive float."""
    values = {**DEFAULTS, **RUN_BASE, **overrides}
    try:
        duration, dt = float(values["max_duration"]), float(values["dt"])
    except ValueError:
        return None
    return duration / dt if duration > 0 and dt > 0 else None


@FUZZ
@given(overrides=set_flags())
def test_simulate(overrides):
    steps = _steps(overrides)
    # Past MAX_STEPS the trial is rejected before its first step.
    assume(steps is None or steps <= 50 or steps > MAX_STEPS + 1)
    with tempfile.TemporaryDirectory() as root:
        out = Path(root) / "trace.csv"
        code, _ = _run(["simulate", "--out", str(out), *_run_config(root, overrides)])
        if code == 1:
            assert not out.exists()


@FUZZ
@given(config=config_files(), overrides=set_flags(3), command=st.sampled_from(["detect", "simulate"]))
def test_config_file_and_set_flags(config, overrides, command):
    text, in_file = config
    if command == "simulate":
        steps = _steps({**in_file, **overrides})
        assume(steps is None or steps <= 50 or steps > MAX_STEPS + 1)
    with tempfile.TemporaryDirectory() as root:
        path, out = Path(root) / "run.cfg", Path(root) / "out.csv"
        path.write_bytes(text)
        flags = ["--config", str(path), *(f"--set={key}={value}" for key, value in overrides.items())]
        argv = [command, "--out", str(out), *flags]
        if command == "detect":
            seq = Path(root) / "seq"
            seq.mkdir()
            _write_frames(seq, "none", 0)
            argv.insert(1, str(seq))
        code, err = _run(argv)
        if command == "detect":
            assert code in (0, 1), err
        if code == 1:
            assert not out.exists()
