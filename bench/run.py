"""clgmd benchmark: three workloads through the public ``clgmd.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload detect-100 --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
times the same commands untraced and then traced, and reports per-layer
metrics from spans recorded around the package's public functions.  Every
output is checked (see checks.py).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run metadata, the result and, for
traced runs, every span are written under ``.bench_runs/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gzip
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
from scipy import signal

import checks
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 0
SETUP_REPEATS = 5
# frame_p99_us needs at least ten intervals beyond it.
MIN_INTERVALS = 1100
NOISE = "5"
DIRECTIONS = ("up", "down", "left", "right")
PLACEMENTS = ("left", "right", "up", "down")
DISABLED_T_S = 256.0
DEFAULT_T_S = 150.0
# Calibration: about this many convolved cells plus this many loop turns,
# which take about equal time; CALIBRATION_MS is near their total on an
# idle 2-vCPU Xeon VM.
CALIBRATION_CELLS = 100_000
CALIBRATION_LOOP = 60_000
CALIBRATION_MS = 12.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import clgmd.cli; "
    "print(time.perf_counter() - t)"
)

cli = None  # clgmd.cli, bound by load_clgmd()


@dataclasses.dataclass(frozen=True)
class Workload:
    """One set of inputs: ``command`` is the clgmd subcommand it times."""

    name: str
    command: str
    width: int = 100
    height: int = 100
    frames: int = 120
    options: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-100", "detect"),
        Workload(
            "detect-qvga-delayed", "detect", 320, 240,
            options=("--set", "inhibition_delay=1"),
        ),
        Workload("closed-loop", "simulate"),
    )
}


@dataclasses.dataclass
class Job:
    """One ``clgmd`` invocation, repeated for the whole run."""

    name: str
    argv: list[str]
    out: Path
    t_s: float
    verified: tuple[bytes, str] | None = None
    rows: int = 0
    success: bool = False


def load_clgmd():
    """Import clgmd from this checkout's src/, or stop with exit code 2."""
    global cli
    if not (SRC / "clgmd" / "__init__.py").is_file():
        print(f"error: {SRC} holds no clgmd package", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import clgmd.cli

    if not Path(clgmd.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported clgmd from {clgmd.cli.__file__}", file=sys.stderr)
        raise SystemExit(2)
    cli = clgmd.cli
    return cli


def call_main(argv: list[str]) -> tuple[int | None, int, str]:
    """(exit code or None on an exception, elapsed ns, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a counted failure, not the end of the run
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter_ns() - start
    return code, elapsed, out.getvalue()


def prepare(workload: Workload, seed: int, work: Path) -> list[Job]:
    """Generate the workload's inputs from ``seed``; returns its jobs."""
    work.mkdir(parents=True)
    size = ("--width", str(workload.width), "--height", str(workload.height))
    if workload.command == "detect":
        jobs = []
        for direction in DIRECTIONS:
            frames = work / direction
            code, _, _ = call_main(
                ["generate", str(frames), "--direction", direction, "--seed", str(seed),
                 "--noise", NOISE, "--frames", str(workload.frames), *size]
            )
            if code != 0:
                raise RuntimeError(f"clgmd generate exited with {code}")
            out = work / f"{direction}.csv"
            jobs.append(Job(direction, ["detect", str(frames), "--out", str(out),
                                        *workload.options], out, DEFAULT_T_S))
        return jobs
    rng = random.Random(seed)
    common = ["--set", f"noise_amplitude={NOISE}", "--set", f"noise_seed={seed}",
              "--set", f"width={workload.width}", "--set", f"height={workload.height}",
              *workload.options]
    trials = [(p, [f"placement={p}", f"obstacle_offset={rng.uniform(0.2, 0.3):.6f}"],
               DEFAULT_T_S) for p in PLACEMENTS]
    trials.append(("centered", ["placement=centered", f"t_s={DISABLED_T_S:g}"], DISABLED_T_S))
    jobs = []
    for name, settings, t_s in trials:
        out = work / f"{name}.csv"
        argv = ["simulate", *itertools.chain(*(("--set", s) for s in settings)),
                *common, "--out", str(out)]
        jobs.append(Job(name, argv, out, t_s))
    return jobs


def load_reference(workload: Workload) -> dict | None:
    path = REFERENCE_DIR / f"{workload.name}.json.gz"
    if WORKLOADS.get(workload.name) != workload or not path.is_file():
        return None
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


def verify(job: Job, workload: Workload, text: str, outcome: str, reference) -> list[str]:
    """Invariants on any output; plus the stored reference when one is given."""
    try:
        header, rows = checks.parse_csv(text)
        if workload.command == "detect":
            problems = checks.detect_invariants(header, rows, workload.frames, job.t_s)
            success = not problems and checks.detect_success(rows, job.name)
        else:
            problems = checks.trace_invariants(header, rows, outcome, job.t_s)
            success = not problems and checks.trial_success(rows, outcome, job.name)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]
    if reference is not None:
        expected = reference["outputs"][job.name]
        if outcome != expected["outcome"]:
            problems.append(f"outcome {outcome!r} != reference {expected['outcome']!r}")
        problems += checks.compare(rows, checks.parse_csv(expected["csv"])[1])
    job.rows, job.success = len(rows), success
    return problems


def check(job: Job, workload: Workload, code, stdout: str, reference) -> list[str]:
    """Problems with one command's result; empty when it is correct.

    The first correct output of a job is verified in full; later runs of
    the same job must reproduce it byte for byte.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        data = job.out.read_bytes()
    except OSError as exc:
        return [f"no output: {exc}"]
    outcome = stdout.rpartition("OUTCOME=")[2].strip() if workload.command == "simulate" else ""
    if job.verified is not None:
        return [] if job.verified == (data, outcome) else ["output differs from its first run"]
    problems = verify(job, workload, data.decode("ascii", "replace"), outcome, reference)
    if not problems:
        job.verified = (data, outcome)
    return problems


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, job: Job, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            shown = "; ".join(problems[:5])
            print(f"FAILED {job.name}: {shown}", file=sys.stderr)


class Calibrator:
    """Fixed reference work, timed between the benchmark's calls.

    Other tenants of a shared host slow everything a run does by a factor
    that drifts over seconds and minutes (on a shared 2-vCPU Xeon VM one 20 s
    window of detect-100 ran at 505 frames/s and another at 861, with CPU
    time tracking wall time).  The same work timed next to each call moves
    with that factor, so every time the benchmark reports is scaled by
    CALIBRATION_MS / (calibration time around it): it reads as if the
    calibration took CALIBRATION_MS.  Half the work is a synthetic frame at
    the workload's size (difference, 5x5 convolution, subtraction, product,
    threshold: the kinds of numpy/scipy passes the detector makes), half an
    interpreted loop.  It never calls clgmd, so a change to the package
    cannot move it.
    """

    def __init__(self, width: int, height: int) -> None:
        rng = np.random.default_rng(0)
        self.frames = rng.integers(0, 256, size=(2, height, width)).astype(np.float64)
        self.kernel = np.full((5, 5), 1.0 / 25.0)
        self.repeats = max(1, round(CALIBRATION_CELLS / (width * height)))

    def __call__(self) -> float:
        """Milliseconds taken by the reference work."""
        start = time.perf_counter_ns()
        for _ in range(self.repeats):
            p = self.frames[1] - self.frames[0]
            s = p - signal.convolve2d(p, self.kernel, mode="same")
            g = s * np.abs(s) / 4.0
            np.where(np.abs(g) >= 15.0, g, 0.0).sum()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        return (time.perf_counter_ns() - start) / 1e6


@dataclasses.dataclass
class Sample:
    """Figures from one measured phase, calibrated unless named raw."""

    rounds: list[float] = dataclasses.field(default_factory=list)  # frames/s per round
    raw_rounds: list[float] = dataclasses.field(default_factory=list)
    intervals: list[float] = dataclasses.field(default_factory=list)  # us between frame starts
    raw_intervals: list[float] = dataclasses.field(default_factory=list)
    calibration_ms: list[float] = dataclasses.field(default_factory=list)
    timed_ns: int = 0


def measure(jobs, workload, reference, tally: Tally, seconds: float, min_intervals: int,
            calibrate: Calibrator, spans: tracer.Tracer | None = None) -> Sample:
    """Run rounds (every job once, in order) until ``seconds`` of timed calls
    and ``min_intervals`` frame intervals are collected.  Each call is scaled
    by the mean of the calibrations just before and just after it.  A
    round's rate is its frames over its time, so every input of the seed
    weighs the same in it whatever its length."""
    sample = Sample()
    stamps: list[int] = []
    deadline = time.monotonic() + 4 * seconds + 30
    before = calibrate()
    with tracer.stamping(stamps):
        while sample.timed_ns < seconds * 1e9 or (
            len(sample.intervals) < min_intervals and time.monotonic() < deadline
        ):
            frames, raw_ns, scaled_ns = 0, 0, 0.0
            for job in jobs:
                stamps.clear()
                code, elapsed, stdout = call_main(job.argv)
                after = calibrate()
                scale = CALIBRATION_MS / ((before + after) / 2)
                if spans is not None:
                    spans.close_segment(scale)
                sample.calibration_ms.append(after)
                before = after
                sample.timed_ns += elapsed
                problems = check(job, workload, code, stdout, reference)
                tally.add(job, problems)
                if not problems:
                    raw_intervals = np.diff(stamps) / 1e3
                    sample.raw_intervals.extend(raw_intervals.tolist())
                    sample.intervals.extend((raw_intervals * scale).tolist())
                frames += job.rows
                raw_ns += elapsed
                scaled_ns += elapsed * scale
            sample.raw_rounds.append(frames / (raw_ns / 1e9))
            sample.rounds.append(frames / (scaled_ns / 1e9))
    return sample


def fresh_import_seconds() -> float:
    """Time ``import clgmd.cli`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def set_up(workload, seed, work: Path, repeats: int, calibrate: Calibrator):
    """Import time plus input generation, ``repeats`` times, each scaled by
    the calibration around it; keeps the last inputs."""
    times, raw = [], []
    before = calibrate()
    for attempt in range(repeats):
        imports = fresh_import_seconds()
        target = work / f"inputs{attempt}"
        start = time.perf_counter()
        jobs = prepare(workload, seed, target)
        raw.append(imports + time.perf_counter() - start)
        after = calibrate()
        times.append(raw[-1] * CALIBRATION_MS / ((before + after) / 2))
        before = after
        if attempt < repeats - 1:
            shutil.rmtree(target)
    return jobs, times, raw


def warm_up(jobs, workload, reference, tally: Tally) -> None:
    """One untimed call so lazy set-up inside numpy/scipy is not timed."""
    code, _, stdout = call_main(jobs[0].argv)
    tally.add(jobs[0], check(jobs[0], workload, code, stdout, reference))


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _percentiles(values) -> tuple[float, float, int]:
    """(p50, p99, how many values lie above p99)."""
    if not values:
        return 0.0, 0.0, 0
    p50, p99 = np.percentile(values, [50, 99])
    return float(p50), float(p99), int(np.count_nonzero(np.asarray(values) > p99))


def end_to_end(workload, seed, work, seconds, tally, reference, min_intervals, setup_repeats):
    calibrate = Calibrator(workload.width, workload.height)
    jobs, setups, raw_setups = set_up(workload, seed, work, setup_repeats, calibrate)
    warm_up(jobs, workload, reference, tally)
    sample = measure(jobs, workload, reference, tally, seconds, min_intervals, calibrate)
    p50, p99, beyond = _percentiles(sample.intervals)
    raw_p50, raw_p99, _ = _percentiles(sample.raw_intervals)
    succeeded = sum(job.success for job in jobs)
    count = len(sample.intervals)
    metrics = {
        "frames_per_s": (_median(sample.rounds), "frames/s",
                         f"median over {len(sample.rounds)} rounds of {len(jobs)} main calls"),
        "frame_p50_us": (p50, "us", f"{count} frame intervals"),
        "setup_s": (_median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
                        "max RSS of this process"),
    }
    # Not bounded in BENCHMARK.json: brief stalls from other tenants set the
    # tail, and its run-to-run spread exceeds any bound the benchmark may set.
    extra = {
        "frame_p99_us": (p99, "us", f"{count} intervals, {beyond} above p99"),
        "error_rate": (tally.failed / max(tally.attempted, 1), "ratio",
                       f"{tally.failed} failed of {tally.attempted} attempted"),
        "task_success_rate": (succeeded / len(jobs), "ratio",
                              f"{succeeded} of {len(jobs)} inputs"),
        "calibration_ms": (_median(sample.calibration_ms), "ms",
                           f"median over {len(sample.calibration_ms)}; times above are "
                           f"scaled to {CALIBRATION_MS:g} ms"),
        "raw frames_per_s": (_median(sample.raw_rounds), "frames/s", "unscaled"),
        "raw frame_p50_us": (raw_p50, "us", "unscaled"),
        "raw frame_p99_us": (raw_p99, "us", "unscaled"),
        "raw setup_s": (_median(raw_setups), "s",
                        "unscaled: " + ", ".join(f"{s:.3f}" for s in raw_setups)),
    }
    return metrics, extra, None


# Per-layer timings: (span name, statistic).  "us" is the median duration
# per call, "self_us" the median of duration minus direct children.
LAYER_TIMES = (
    ("cli.main", "self_us"),
    ("cli.cmd_detect", "self_us"),
    ("cli.cmd_simulate", "self_us"),
    ("pgm.read_pgm", "us"),
    ("pgm.write_pgm", "us"),
    ("layers.Frame", "us"),
    ("layers.compute_p_layer", "us"),
    ("layers.compute_inhibition", "us"),
    ("layers.compute_s_layer", "us"),
    ("layers.compute_g_layer", "us"),
    ("competition.accumulate_quadrants", "us"),
    ("competition.normalize", "us"),
    ("competition.update_spike_state", "us"),
    ("detector.process", "us"),
    ("detector.process", "self_us"),
    ("stimulus.render_frame", "us"),
    ("stimulus.Sphere.intersect", "us"),
    ("flightsim.run_trial", "self_us"),
    ("flightsim.step_vehicle", "us"),
    ("flightsim.check_collision", "us"),
    ("flightsim.write_trace_csv", "us"),
    ("steering.select_escape", "us"),
    ("steering.command_to_setpoint", "us"),
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(timed: tracer.Tracer, setup: tracer.Tracer, overhead: float, self_sum: float):
    """Layer metrics from the traced timed calls; a layer those calls never
    reach (PGM writing and rendering on detect) is reported from set-up."""
    groups = {"timed": timed.by_name(), "setup": setup.by_name()}

    def source(name):
        return "timed" if name in groups["timed"] else "setup"

    def spans(name):
        return groups[source(name)].get(name, {"us": [], "self_us": []})

    def counts(name):
        return (timed if source(name) == "timed" else setup).counts.get(name, {})

    metrics = {}
    for name, statistic in LAYER_TIMES:
        metrics[f"{name}.{statistic}"] = (_median(spans(name)[statistic]), "us")
    for name in dict.fromkeys(name for name, _ in LAYER_TIMES):
        metrics[f"{name}.calls"] = (len(spans(name)["us"]), "count")
    detections = counts("detector.process")
    frames = detections.get("frames", 0)
    g = counts("layers.compute_g_layer")
    render = counts("stimulus.render_frame")
    object_pixels = counts("stimulus.Sphere.intersect").get("object_pixels", 0)
    metrics.update({
        "layers.g_survivor_ratio": (_ratio(g.get("survivors", 0), g.get("cells", 0)), "ratio"),
        "competition.spike_ratio": (_ratio(detections.get("spikes", 0), frames), "ratio"),
        "competition.confirm_ratio": (_ratio(detections.get("confirms", 0), frames), "ratio"),
        "detector.frames": (frames, "count"),
        "pgm.bytes_read": (counts("pgm.read_pgm").get("bytes", 0), "bytes"),
        "stimulus.rays_cast": (render.get("rays", 0), "count"),
        "stimulus.object_pixel_ratio": (_ratio(object_pixels, render.get("rays", 0)), "ratio"),
        "flightsim.steps": (render.get("steps", 0), "count"),
        "steering.escapes": (counts("steering.select_escape").get("escapes", 0), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.self_sum_ratio": (self_sum, "ratio"),
    })
    return metrics


def traced(workload, seed, work, seconds, tally, reference):
    calibrate = Calibrator(workload.width, workload.height)
    setup_tracer, timed_tracer = tracer.Tracer(), tracer.Tracer()
    before = calibrate()
    with setup_tracer.probes():
        jobs = prepare(workload, seed, work / "inputs")
    setup_tracer.close_segment(CALIBRATION_MS / ((before + calibrate()) / 2))
    warm_up(jobs, workload, reference, tally)
    plain = measure(jobs, workload, reference, tally, seconds / 2, 0, calibrate)
    with timed_tracer.probes():
        spanned = measure(jobs, workload, reference, tally, seconds / 2, 0, calibrate,
                          timed_tracer)
    overhead = _ratio(_median(plain.rounds), _median(spanned.rounds)) - 1.0
    self_sum = _ratio(float(timed_tracer.self_times().sum()), spanned.timed_ns)
    metrics = per_layer(timed_tracer, setup_tracer, overhead, self_sum)
    notes = {
        "untraced frames_per_s": (_median(plain.rounds), "frames/s",
                                  f"median over {len(plain.rounds)} rounds"),
        "traced frames_per_s": (_median(spanned.rounds), "frames/s",
                                f"median over {len(spanned.rounds)} rounds"),
        "calibration_ms": (_median(plain.calibration_ms + spanned.calibration_ms), "ms",
                           f"span times are scaled to {CALIBRATION_MS:g} ms"),
    }
    return metrics, notes, timed_tracer


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libraries = []
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                found[Path(library).name] = getter()
                break
    return found


def run_metadata(load_start) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "clgmd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def declared_metrics(trace: bool) -> dict[str, str] | None:
    """name -> unit from BENCHMARK.json, or None if the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 min_intervals: int = MIN_INTERVALS, setup_repeats: int = SETUP_REPEATS):
    """One benchmark run: (result JSON object, report lines, tracer or None, metadata)."""
    load_start = os.getloadavg()
    tally = Tally()
    reference = load_reference(workload) if seed == REFERENCE_SEED else None
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS_DIR))
    try:
        if trace:
            metrics, notes, spans = traced(workload, seed, work, seconds, tally, reference)
        else:
            metrics, notes, spans = end_to_end(workload, seed, work, seconds, tally, reference,
                                               min_intervals, setup_repeats)
    finally:
        shutil.rmtree(work)
    meta = run_metadata(load_start)
    lines = [f"workload {workload.name}  seed {seed}  trace {int(trace)}"]
    for name, (value, unit, *note) in {**metrics, **notes}.items():
        lines.append(f"  {name:<38} {value:>14.6g} {unit:<9} {' '.join(note)}".rstrip())
    lines.append("meta " + json.dumps(meta))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }
    return result, lines, spans, meta


def write_reference() -> None:
    """Store the reference-seed output of every workload's jobs."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    RUNS_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        work = Path(tempfile.mkdtemp(prefix="reference-", dir=RUNS_DIR))
        try:
            jobs = prepare(workload, REFERENCE_SEED, work / "inputs")
            outputs = {}
            for job in jobs:
                code, _, stdout = call_main(job.argv)
                problems = check(job, workload, code, stdout, None)
                if problems:
                    raise SystemExit(f"{workload.name} {job.name}: {'; '.join(problems[:5])}")
                outputs[job.name] = {"outcome": job.verified[1], "csv": job.verified[0].decode()}
        finally:
            shutil.rmtree(work)
        payload = json.dumps({"seed": REFERENCE_SEED, "outputs": outputs}, indent=0)
        path = REFERENCE_DIR / f"{workload.name}.json.gz"
        path.write_bytes(gzip.compress(payload.encode(), mtime=0))
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store every workload's seed-{REFERENCE_SEED} outputs and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    load_clgmd()
    if args.write_reference:
        write_reference()
        return 0
    trace = bool(args.trace)
    result, lines, spans, meta = run_workload(WORKLOADS[args.workload], args.seed,
                                              args.seconds, trace)
    declared = declared_metrics(trace)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared is not None and declared != emitted:
        print(f"error: metrics {emitted} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 3
    stem = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if spans is not None:
        spans.write(stem.with_suffix(".spans.csv.gz"))
    stem.with_suffix(".json").write_text(
        json.dumps({"result": result, "meta": meta, "report": lines}, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
