"""Every pinned CLI output, and the one runner that checks it.

``run`` runs a script of ``clgmd`` lines as CI's console-script step does:
``$RUNNER_TEMP`` is a temporary directory, each line is split with ``shlex``,
and ``cli.main`` runs with warnings as errors.  The pin of what its last line
writes is the sha256 of a CSV's bytes or of a sequence's PGMs in frame order,
then a simulate run's ``OUTCOME=`` line.  The CI scripts are read from
``tier1.yml``, never copied, so a CI edit that adds, drops or changes a line
fails until its pin is updated.  A failed check prints the output's new pin:
to record an intended output change, paste it into ``PINS``.
"""

import contextlib
import hashlib
import io
import shlex
import warnings
from pathlib import Path

from clgmd import cli

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def ci_lines() -> list[str]:
    """The workflow's ``clgmd`` lines, in its order."""
    lines = (line.strip() for line in WORKFLOW.read_text().splitlines())
    return [line for line in lines if line.startswith("clgmd ")]


def _output(argv: list[str]) -> str:
    """What a line writes: its ``--out`` CSV, or the sequence ``generate`` makes."""
    return argv[argv.index("--out") + 1] if "--out" in argv else argv[2]


def ci_scripts() -> dict[str, str]:
    """Each CI output's script by name: a ``detect`` follows its input's."""
    scripts = {}
    for line in ci_lines():
        argv = shlex.split(line)
        reads = scripts.get(Path(argv[2]).name, "") if argv[1] == "detect" else ""
        scripts[Path(_output(argv)).name] = f"{reads}\n{line}".strip()
    return scripts


CI = ci_scripts()

# 120 noisy frames from seed 0, detected at 100x100 with the defaults, or at
# 320x240 with delayed inhibition.
_DETECT_100 = (
    'clgmd generate "$RUNNER_TEMP/seq" --direction {} --seed 0 --noise 5 --frames 120\n'
    'clgmd detect "$RUNNER_TEMP/seq" --out "$RUNNER_TEMP/out.csv"'
)
_DETECT_QVGA = (
    'clgmd generate "$RUNNER_TEMP/seq" --direction {} --seed 0 --noise 5 --frames 120 '
    "--width 320 --height 240\n"
    'clgmd detect "$RUNNER_TEMP/seq" --set inhibition_delay=1 --out "$RUNNER_TEMP/out.csv"'
)
_SIMULATE = 'clgmd simulate {} --out "$RUNNER_TEMP/out.csv"'
_GENERATE = 'clgmd generate "$RUNNER_TEMP/seq" {}'
_WAYS = ("up", "down", "left", "right")

GOLDEN = {
    **{f"detect-100-{way}": _DETECT_100.format(way) for way in _WAYS},
    **{f"detect-qvga-{way}": _DETECT_QVGA.format(way) for way in _WAYS},
    **{f"simulate-{way}": _SIMULATE.format(f"--set placement={way}") for way in _WAYS[1:]},
    # CI's up.csv and collide.csv lines are these two goldens' invocations,
    # so each is run and pinned once, from tier1.yml.
    "simulate-up": CI.pop("up.csv", ""),
    "simulate-centered": CI.pop("collide.csv", ""),
    # Only these three see the obstacle's time base.
    "simulate-moving-vx": _SIMULATE.format("--set obstacle_vx=-1.0"),
    "simulate-moving-vz-down-noise":
        _SIMULATE.format("--set obstacle_vz=0.37 --set placement=down --set noise_amplitude=5"),
    "simulate-moving-vy-right-64x48": _SIMULATE.format(
        "--set placement=right --set obstacle_vy=0.3 --set width=64 --set height=48 "
        "--set hfov_deg=60"
    ),
    # Object 224 + 40 and background 32 - 40 clip at both ends of [0, 255].
    "clipped-noise":
        _GENERATE.format("--noise 40 --width 64 --height 48 --frames 5 --direction left"),
    # Receding (negative speed) through a 60 degree field of view.
    "receding-hfov60": _GENERATE.format(
        "--direction up --speed -1.2 --hfov-deg 60 --noise 5 --frames 5 --seed 2"
    ),
}

_QVGA = "fc2d4258ee31eb1ac326c36a1bf20c087e8fcee82cbd66663268e91a448e88f9"  # kappa 0 on every row
_AVOIDED, _TIMEOUT = " OUTCOME=AVOIDED", " OUTCOME=TIMEOUT"
_ALL_ZERO = "0f046812d904d73989cec0c655909b5024c25d5526520a764b14e4716208d577"

PINS = {
    "detect-100-up": "ec78db0501c5b132163934c24d97f92b5d9aa38901ae4850420d592db65078de",
    "detect-100-down": "9a06f956ccc0312221073fb6112c031a33d060fb2830899c6bc2d65eecf49be2",
    "detect-100-left": "f48468379027c6bcefcc2bc2025aa2b6a3106f07930d6cb17d52e676211bebe0",
    "detect-100-right": "a5d295a1542b9b71a2dfc22b02907d368203d202b9b3a255bcb14bd9d82116c8",
    **{f"detect-qvga-{way}": _QVGA for way in _WAYS},
    "simulate-left": "96cb6fe0e7f9d5d3a1c2e61643019fa8084a4fdbe52ef61acd0386a9aaf039f6" + _AVOIDED,
    "simulate-right": "bafcf296e4ff759ef77ed4e3f3702549b8f0f7afde332334402f4195ad8c5fdf" + _AVOIDED,
    # A full trial: the obstacle passes beside, then behind, the camera's plane.
    "simulate-up": "c97b94ef92d1002db230527d208a12c80adfc6cc37ff8eaa52c0493ba2311fc8" + _AVOIDED,
    "simulate-down": "5e88cd020591702e39395bc7dffeaa82182200a63f49bb45351284c59d765b17" + _AVOIDED,
    # Spiking disabled, it flies on until check_collision ends it, as in the benchmark.
    "simulate-centered":
        "58c13ea1f0146b48df1d434cb5d11a1f65347a6b1f399665aeaa288a907a457d OUTCOME=COLLIDED",
    "simulate-moving-vx":
        "c6a120a7751681aa2484fe6455fd849d1629d22de106811777c0146506018565" + _AVOIDED,
    "simulate-moving-vz-down-noise":
        "c95e06ea8a422fdeaf4ef5f6ce83f1ca600af9aadda72948b32b99e768132a16" + _AVOIDED,
    "simulate-moving-vy-right-64x48":
        "841dbc556ee1b9cb5938dc1a33f64573bf4aea9f7e5754510910fb6902c4d8d8" + _AVOIDED,
    "clipped-noise": "38766c4450c0f4838c7b51ae782d691a406239cbaf634191aacf8fa059dfb764",
    "receding-hfov60": "572833fc109fd7d0c08a69e8d0c3ec0dba654ae2aa3440d9a9698bc38d0683f5",
    # The default sequence, which detect reads back.
    "seq": "dbb020ff2af06a323f934b1cf42e1a4b9f52b52f964a58080215c3e582df6d53",
    # Its detections: all-zero rows, so they pin no detector numerics.
    "detections.csv": _ALL_ZERO,
    # The default trial cut short at 0.5 s, so it times out.
    "trace.csv": "2dc3ec33e7c411199c7a8abe3dd11d54593a731b1810904e117865b325674bfb" + _TIMEOUT,
    # Receding from 0.8 m: the reach check runs on the farthest, last frame.
    "recede": "17a8e8d01f190048e6159c79734cebcdae4a12bb653cef7c57d4448f96406ac0",
    # Noisy 320x240: the float64 render image is past glibc's 128 KiB mmap threshold.
    "qvga": "0eefbc27640253b64223cd4561e67780e087f75bbab91c07276e0dbd5eb3e19d",
    # Delayed inhibition spreads the previous P; c1=0.0005 lifts kappa to 255, so
    # u, d, l and r pin the quadrant sums of the delayed path.
    "qvga.csv": "fdd157dff66b1a07f6daa5d96e749a61859a5f075e2c5b294fb80733f4585786",
    # A noisy closed loop, the only kind of trial the benchmark runs.
    "noisy.csv": "1fa11516d437bb96b627f3fdbd37ad014ba7d1af5ba16cade306e7c52e7c762d" + _TIMEOUT,
    # A sphere 0.5 m ahead: full-grid windows, NaN roots past the silhouette, no warning.
    "close": "6449bdde83c4604d7f4f4e744fc7bd3205d838bdb5758487a4581981197f46b5",
    # Its detections, every window the full grid.
    "close.csv": "7d7619094f34fdd39cf3165defb5b493b067b35df411b4e4f40849b8a60273ae",
    # The smallest legal frame, noisy.
    "tiny": "5dfeb836c65ed123525bed241dfe526370fc4b24fa2c7e66a1de6130a0364f4b",
    # Delayed, inhibition runs start and end at the padded buffers' ends; t_de=5
    # leaves a sparse G and non-zero potentials.
    "tiny.csv": "d188f3ba1e1f42977a5f25df7b053afde29ecee1783a40e4ebcd663dd418daa3",
    # A noisy odd size from the left, whose quadrant mask splits unevenly.
    "odd": "f178f20d52d30f4d02d65775d3f74aa98591424056926191df17751c9897e90f",
    # Read back with delay 0.
    "odd.csv": "88ee8b4ccf72f0b454ebd25ff335c458d135dda18a84c76116119e619009b734",
    # t_de=0: no cell of G decays, so each frame rewrites the whole G grid.
    "dense.csv": "f247de0dd632de73f627a2c9fa74ce0f8cc0d00a7efe122d1370a1c94282a1cd",
    # Delayed at an odd size, with the scratch grid written on every cell.
    "odd-delayed.csv": "ad73b40977d03c423687513bee6b4db8dfeda528dec8a540ac6a776a1187e5be",
}


def run(script: str, tmp_path: Path) -> str:
    """Run ``script`` in-process; return the pin of what its last line wrote."""
    printed = io.StringIO()
    for line in script.splitlines():
        argv = shlex.split(line.replace("$RUNNER_TEMP", str(tmp_path)))
        with warnings.catch_warnings(), contextlib.redirect_stdout(printed):
            warnings.simplefilter("error")
            assert cli.main(argv[1:]) == 0, line
    out = Path(_output(argv))
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.pgm")) if out.is_dir() else [out]:
        digest.update(path.read_bytes())
    outcome = [text for text in printed.getvalue().splitlines() if text.startswith("OUTCOME=")]
    return " ".join([digest.hexdigest(), *outcome])


def check(name: str, tmp_path: Path) -> None:
    """Run the script that writes ``name`` and compare its pin."""
    script = GOLDEN.get(name) or CI.get(name)
    assert script, f"{name} is pinned, but no line writes it"
    pin = run(script, tmp_path)
    assert pin == PINS.get(name), f"{name} now pins {pin!r}, not {PINS.get(name)!r}"
