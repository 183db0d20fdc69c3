"""Command-line front end: detect, generate, simulate.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error,
3 data error (corrupt or inconsistent frames).
"""

from __future__ import annotations

import argparse
import enum
import functools
import sys
from dataclasses import asdict

from .config import config_from_mappings, load_config_file, parse_number, parse_pairs
from .detector import CollisionDetector
from .errors import ConfigError, DataError, InputError, UsageError, check_value
from .layers import Frame
from .pgm import first_frame_from, list_sequence, read_pgm, write_csv, write_sequence
from .steering import select_escape
from .stimulus import CameraModel, ScenarioSpec, generate_sequence
from .flightsim import TrialConfig, run_trial, write_trace_csv

DETECT_COLUMNS = "frame,kappa,u,d,l,r,spike,confirmed,escape_axis,escape_value".split(",")

# generate's flags as (flag, owner dataclass, field, help): each flag takes
# its default, and its type, from the default of the field it sets.
_GENERATE_FLAGS = (
    ("--direction", ScenarioSpec, "direction", None),
    ("--speed", ScenarioSpec, "speed", "m/s, <0 recedes"),
    ("--distance", ScenarioSpec, "distance", "start distance m"),
    ("--frames", ScenarioSpec, "frames", None),
    ("--fps", ScenarioSpec, "fps", None),
    ("--seed", ScenarioSpec, "seed", None),
    ("--noise", ScenarioSpec, "noise_amplitude", "uniform noise amplitude, try 5.0"),
    ("--width", CameraModel, "width", None),
    ("--height", CameraModel, "height", None),
    ("--hfov-deg", CameraModel, "hfov_deg", None),
)


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _load_config(args) -> TrialConfig:
    in_file = {} if args.config is None else load_config_file(args.config)
    flags = enumerate(args.overrides, start=1)
    return config_from_mappings(in_file, parse_pairs((f"--set #{i}", text) for i, text in flags))


def _detect_rows(paths, detector: CollisionDetector, steering):
    """One CSV row per processed frame, read and detected as it is asked for."""
    for index, path in enumerate(paths):
        # An input fault is a data error naming the file; the try is free
        # until something raises.
        try:
            result = detector.process(Frame(index=index, luminance=read_pgm(path)))
        except InputError as exc:
            raise DataError(f"{path}: {exc}") from exc
        if result is None:
            continue
        escape = select_escape(result.potentials, steering)
        yield (result.frame_index, *result.cells(), escape.axis.value, escape.value)


def cmd_detect(args) -> int:
    cfg = _load_config(args)
    paths = list_sequence(args.frames_dir)
    detector = CollisionDetector(core=cfg.core, norm=cfg.norm)
    rows = write_csv(
        args.out,
        DETECT_COLUMNS,
        _detect_rows(paths, detector, cfg.steering),
        verbatim=("frame", "spike", "confirmed", "escape_axis"),
    )
    print(f"processed {len(paths)} frames, wrote {rows} rows to {args.out}")
    return 0


def cmd_generate(args) -> int:
    spec, camera = (
        owner(**{name: getattr(args, name) for _, cls, name, _ in _GENERATE_FLAGS if cls is owner})
        for owner in (ScenarioSpec, CameraModel)
    )
    # A frame left past the new count would join the new ones into one
    # sequence, which detect reads whole.
    stale = first_frame_from(args.out_dir, spec.frames)
    if stale is not None:
        raise UsageError(
            f"{stale} is past --frames {spec.frames}: {args.out_dir} holds a longer "
            "sequence; generate into an empty directory"
        )
    frames = generate_sequence(spec, camera)
    manifest = {**asdict(spec), "direction": spec.direction.value, **asdict(camera)}
    count = write_sequence(args.out_dir, (f.luminance for f in frames), manifest)
    print(f"wrote {count} frames to {args.out_dir}")
    return 0


def cmd_simulate(args) -> int:
    trace = run_trial(_load_config(args))
    write_trace_csv(trace, args.out)
    print(f"OUTCOME={trace.outcome.value}")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: a parse keeps no
    state in it."""
    parser = _Parser(
        prog="clgmd",
        description="Competitive looming detection: run it on frame sequences, "
        "generate synthetic stimuli, or fly a closed-loop avoidance trial.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    run_config = _Parser(add_help=False)
    run_config.add_argument("--config", default=None, help="key=value config file")
    run_config.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )

    detect = sub.add_parser(
        "detect", parents=[run_config], help="run the detector over a PGM sequence"
    )
    detect.add_argument("frames_dir", help="directory of numbered P5 PGM frames")
    detect.add_argument("--out", default="detections.csv", help="output CSV path")

    generate = sub.add_parser("generate", help="write a synthetic stimulus sequence")
    generate.add_argument("out_dir", help="output directory for frames + manifest")
    for flag, owner, name, help_text in _GENERATE_FLAGS:
        default = getattr(owner, name)
        if isinstance(default, enum.Enum):  # the choice rule --set placement= uses
            read, metavar = check_value, "{%s}" % ",".join(m.value for m in type(default))
        else:  # keep the metavar argparse takes from the flag, not from dest
            read, metavar = parse_number, flag[2:].replace("-", "_").upper()
        kind = functools.partial(read, flag, type(default), error=UsageError)
        generate.add_argument(
            flag, dest=name, type=kind, default=default, metavar=metavar, help=help_text
        )

    simulate = sub.add_parser(
        "simulate", parents=[run_config], help="run one closed-loop avoidance trial"
    )
    simulate.add_argument("--out", default="trace.csv", help="trace CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Looked up by name at each call, not bound into the parser built
        # once, so a cmd_* replaced on this module is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array; a bare MemoryError names nothing.
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: frame or camera too large to allocate{detail}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (DataError, InputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
