"""Span tracing and frame stamping for the clgmd benchmark.

Nothing here touches the package's source.  Each probe replaces a public
function at the attribute its caller looks it up through (for example
``clgmd.detector.compute_inhibition``, which ``CollisionDetector.process``
calls by that global name) and restores the original on exit.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
from collections import Counter
from time import perf_counter_ns

import numpy as np

HOOK_SPAN = "trace.hooks"


def _rays(counts, result):
    counts["rays"] += result.luminance.size


def _step(counts, result):
    counts["rays"] += result.luminance.size
    counts["steps"] += 1


def _object_pixels(counts, result):
    counts["object_pixels"] += int(np.count_nonzero(np.isfinite(result)))


def _g_cells(counts, result):
    counts["cells"] += result.size
    counts["survivors"] += int(np.count_nonzero(result))


def _detections(counts, result):
    if result is not None:
        counts["frames"] += 1
        counts["spikes"] += int(result.spike)
        counts["confirms"] += int(result.confirmed)


def _bytes_read(counts, result):
    counts["bytes"] += result.nbytes


def _escapes(counts, result):
    counts["escapes"] += 1


# (module, attribute, span name, frame start, counter).  A dotted attribute
# patches a method on a class.  The same function can be listed under
# several callers; each entry wraps the original, never another probe.
PROBES = (
    ("clgmd.cli", "main", "cli.main", False, None),
    ("clgmd.cli", "cmd_detect", "cli.cmd_detect", False, None),
    ("clgmd.cli", "cmd_simulate", "cli.cmd_simulate", False, None),
    ("clgmd.cli", "list_sequence", "pgm.list_sequence", False, None),
    ("clgmd.cli", "read_pgm", "pgm.read_pgm", True, _bytes_read),
    ("clgmd.cli", "Frame", "layers.Frame", False, None),
    ("clgmd.cli", "select_escape", "steering.select_escape", False, None),
    ("clgmd.cli", "run_trial", "flightsim.run_trial", False, None),
    ("clgmd.cli", "write_trace_csv", "flightsim.write_trace_csv", False, None),
    ("clgmd.pgm", "write_pgm", "pgm.write_pgm", False, None),
    ("clgmd.detector", "CollisionDetector.process", "detector.process", False, _detections),
    ("clgmd.detector", "compute_p_layer", "layers.compute_p_layer", False, None),
    ("clgmd.detector", "compute_inhibition", "layers.compute_inhibition", False, None),
    ("clgmd.detector", "compute_s_layer", "layers.compute_s_layer", False, None),
    ("clgmd.detector", "compute_g_layer", "layers.compute_g_layer", False, _g_cells),
    ("clgmd.detector", "accumulate_quadrants", "competition.accumulate_quadrants", False, None),
    ("clgmd.detector", "normalize", "competition.normalize", False, None),
    ("clgmd.detector", "update_spike_state", "competition.update_spike_state", False, None),
    ("clgmd.stimulus", "render_frame", "stimulus.render_frame", False, _rays),
    ("clgmd.stimulus", "Frame", "layers.Frame", False, None),
    ("clgmd.stimulus", "Sphere.intersect", "stimulus.Sphere.intersect", False, _object_pixels),
    ("clgmd.flightsim", "render_frame", "stimulus.render_frame", True, _step),
    ("clgmd.flightsim", "step_vehicle", "flightsim.step_vehicle", False, None),
    ("clgmd.flightsim", "check_collision", "flightsim.check_collision", False, None),
    ("clgmd.flightsim", "select_escape", "steering.select_escape", False, _escapes),
    ("clgmd.flightsim", "command_to_setpoint", "steering.command_to_setpoint", False, None),
)

# Where a frame starts: detect reads one PGM per frame, simulate renders one.
FRAME_STARTS = (("clgmd.cli", "read_pgm"), ("clgmd.flightsim", "render_frame"))


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def patched(replacements):
    """Install ``(module, attribute, make_wrapper)`` probes, restore on exit."""
    saved = []
    try:
        for module, attribute, make_wrapper in replacements:
            owner, name = _owner(module, attribute)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make_wrapper(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def stamping(stamps: list[int]):
    """Probes that only append a timestamp each time a frame starts."""

    def make_wrapper(fn):
        def stamped(*args, **kwargs):
            stamps.append(perf_counter_ns())
            return fn(*args, **kwargs)

        return stamped

    return patched((module, attr, make_wrapper) for module, attr in FRAME_STARTS)


class Tracer:
    """In-memory spans (name, start, end, parent, frame id) plus counters.

    Counters are updated after a span closes and their cost is recorded
    as a ``trace.hooks`` child of the caller, so no layer's self time
    includes the tracer's own bookkeeping.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.frames: list[int] = []
        self.scales: list[float] = []
        self.counts: dict[str, Counter] = {}
        self.frame_id = -1
        self._open: list[int] = []

    def _record(self, name: str, parent: int) -> int:
        self.names.append(name)
        self.starts.append(0)
        self.ends.append(0)
        self.parents.append(parent)
        self.frames.append(self.frame_id)
        return len(self.names) - 1

    def _wrapper(self, name, frame_start, counter):
        counts = self.counts.setdefault(name, Counter())

        def make_wrapper(fn):
            def traced(*args, **kwargs):
                parent = self._open[-1] if self._open else -1
                if frame_start:
                    self.frame_id += 1
                span = self._record(name, parent)
                self._open.append(span)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    self._open.pop()
                    self.starts[span], self.ends[span] = start, end
                if counter is not None:
                    hook = self._record(HOOK_SPAN, parent)
                    counter(counts, result)
                    self.starts[hook], self.ends[hook] = end, perf_counter_ns()
                return result

            return traced

        return make_wrapper

    def probes(self):
        return patched(
            (module, attr, self._wrapper(name, frame_start, counter))
            for module, attr, name, frame_start, counter in PROBES
        )

    def close_segment(self, scale: float) -> None:
        """Spans recorded since the last call are reported times ``scale``."""
        self.scales.extend([scale] * (len(self.names) - len(self.scales)))

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        durations = np.asarray(self.ends, dtype=np.int64) - np.asarray(
            self.starts, dtype=np.int64
        )
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        return durations - covered

    def by_name(self) -> dict[str, dict[str, np.ndarray]]:
        """Scaled durations and self times in microseconds, by span name."""
        self.close_segment(1.0)
        scales = np.asarray(self.scales) / 1e3
        durations = (np.asarray(self.ends) - np.asarray(self.starts)) * scales
        selfs = self.self_times() * scales
        names = np.asarray(self.names)
        return {
            name: {"us": durations[names == name], "self_us": selfs[names == name]}
            for name in dict.fromkeys(self.names)
        }

    def write(self, path) -> None:
        """All spans as gzip CSV, one row per span, parents by row number.
        Times are raw; ``scale`` is the calibration factor applied to them."""
        self.close_segment(1.0)
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["span", "name", "start_ns", "end_ns", "parent", "frame", "scale"])
            rows = zip(self.names, self.starts, self.ends, self.parents, self.frames, self.scales)
            for number, row in enumerate(rows):
                writer.writerow([number, *row])
