"""Command-line front end: detect, generate, simulate.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error,
3 data error (corrupt or inconsistent frames).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from .config import RunConfig, config_from_mappings, load_config_file
from .detector import CollisionDetector
from .errors import ConfigError, DataError, InputError, UsageError
from .layers import Frame
from .pgm import list_sequence, read_pgm, write_csv, write_sequence
from .steering import select_escape
from .stimulus import CameraModel, Direction, ScenarioSpec, generate_sequence
from .flightsim import run_trial, write_trace_csv

DETECT_COLUMNS = "frame,kappa,u,d,l,r,spike,confirmed,escape_axis,escape_value".split(",")


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type of the float options: a non-finite value is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _override_mapping(pairs: list[str]) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _load_run_config(args) -> RunConfig:
    mappings = []
    if args.config is not None:
        mappings.append(load_config_file(args.config))
    mappings.append(_override_mapping(args.overrides))
    return config_from_mappings(*mappings)


def _detect_rows(paths, first, detector: CollisionDetector, steering):
    """One CSV row per processed frame, read and detected as it is asked for."""
    for index, path in enumerate(paths):
        img = first if index == 0 else read_pgm(path)
        try:
            result = detector.process(Frame(index=index, luminance=img))
        except InputError as exc:
            raise DataError(f"{path}: {exc}") from exc
        if result is None:
            continue
        escape = select_escape(result.potentials, steering)
        yield (result.frame_index, *result.cells(), escape.axis.value, escape.value)


def cmd_detect(args) -> int:
    cfg = _load_run_config(args)
    paths = list_sequence(args.frames_dir)
    first = read_pgm(paths[0])
    height, width = first.shape
    detector = CollisionDetector(
        width, height, core=cfg.core_params(), norm=cfg.norm_params(width, height)
    )
    rows = write_csv(
        args.out,
        DETECT_COLUMNS,
        _detect_rows(paths, first, detector, cfg.steering_params()),
        verbatim=("frame", "spike", "confirmed", "escape_axis"),
    )
    print(f"processed {len(paths)} frames, wrote {rows} rows to {args.out}")
    return 0


def cmd_generate(args) -> int:
    spec = ScenarioSpec(
        direction=Direction(args.direction),
        speed=args.speed,
        distance=args.distance,
        fps=args.fps,
        frames=args.frames,
        seed=args.seed,
        noise_amplitude=args.noise,
    )
    camera = CameraModel(
        hfov=math.radians(args.hfov_deg), width=args.width, height=args.height
    )
    frames = generate_sequence(spec, camera)
    manifest = {
        **asdict(spec),
        "direction": spec.direction.value,
        "width": camera.width,
        "height": camera.height,
        "hfov_deg": args.hfov_deg,  # as given: the radians round-trip can drift
    }
    write_sequence(args.out_dir, (f.luminance for f in frames), manifest)
    print(f"wrote {len(frames)} frames to {args.out_dir}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    trace = run_trial(cfg.trial_config())
    write_trace_csv(trace, args.out)
    print(f"OUTCOME={trace.outcome.value}")
    return 0


def build_parser() -> _Parser:
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
    detect.set_defaults(func=cmd_detect)

    generate = sub.add_parser("generate", help="write a synthetic stimulus sequence")
    generate.add_argument("out_dir", help="output directory for frames + manifest")
    generate.add_argument(
        "--direction",
        choices=[d.value for d in Direction],
        default=ScenarioSpec.direction.value,
    )
    for flag, default, help_text in (
        ("--speed", ScenarioSpec.speed, "m/s, <0 recedes"),
        ("--distance", ScenarioSpec.distance, "start distance m"),
        ("--frames", ScenarioSpec.frames, None),
        ("--fps", ScenarioSpec.fps, None),
        ("--seed", ScenarioSpec.seed, None),
        ("--noise", ScenarioSpec.noise_amplitude, "uniform noise amplitude, try 5.0"),
        ("--width", CameraModel.width, None),
        ("--height", CameraModel.height, None),
        ("--hfov-deg", math.degrees(CameraModel.hfov), None),
    ):
        kind = int if isinstance(default, int) else _finite_float
        generate.add_argument(flag, type=kind, default=default, help=help_text)
    generate.set_defaults(func=cmd_generate)

    simulate = sub.add_parser(
        "simulate", parents=[run_config], help="run one closed-loop avoidance trial"
    )
    simulate.add_argument("--out", default="trace.csv", help="trace CSV path")
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
