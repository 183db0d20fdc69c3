"""Stateful frame-to-frame collision detector.

Wires the layer stack, the four-field competition and the spike logic
into a single object that consumes frames one at a time.  The first
frame only primes the differencing buffer and yields no result; it also
sizes the detector.  Every grid the layer stack writes after P lives in
one stencil scratch, allocated at that frame's size and reused for each
later frame, which must have the same size, as ``compute_p_layer``
checks; the normalization's n_cell is its pixel count.  P is a fresh
int16 grid per frame, so inhibition sums it in int16; with
``inhibition_delay`` 1 it spreads the previous frame's P, which the
detector keeps.  I and S share the scratch's float64 grid, S written
over I, its last reader.  G lives in the scratch's own grid, and the
scratch lists the cells where it may be non-zero, so the quadrant sums
read only those.
"""

from __future__ import annotations

from dataclasses import dataclass

from .competition import (
    CLgmdPotentials,
    DetectorState,
    NormParams,
    accumulate_quadrants,
    build_quadrant_mask,
    normalize,
    update_spike_state,
)
from .layers import (
    CoreParams,
    Frame,
    Grid,
    StencilScratch,
    compute_g_layer,
    compute_inhibition,
    compute_p_layer,
    compute_s_layer,
)


@dataclass(frozen=True)
class DetectionResult:
    """Per-frame detector output: potentials plus spike/confirmation bits."""

    frame_index: int
    potentials: CLgmdPotentials
    spike: bool
    confirmed: bool

    def cells(self) -> tuple[float, float, float, float, float, int, int]:
        """(kappa, u, d, l, r, spike, confirmed): the detection's CSV cells,
        shared by the detect and the trace rows."""
        p = self.potentials
        return (p.kappa, p.u, p.d, p.l, p.r, int(self.spike), int(self.confirmed))


class CollisionDetector:
    """Runs the full pipeline over a stream of frames of one size, the
    size of the first."""

    def __init__(
        self, *, core: CoreParams = CoreParams(), norm: NormParams = NormParams()
    ) -> None:
        self.core = core
        self.norm = norm
        self.state = DetectorState()
        self._prev_frame: Frame | None = None
        self._prev_p: Grid | None = None

    def _allocate(self, width: int, height: int) -> None:
        self._n_cell = width * height
        self._mask = build_quadrant_mask(width, height)
        self._scratch = StencilScratch(height, width)

    def process(self, frame: Frame) -> DetectionResult | None:
        """Feed one frame; returns None for the very first frame."""
        prev = self._prev_frame
        if prev is None:
            self._allocate(frame.width, frame.height)
            self._prev_frame = frame
            return None
        p = compute_p_layer(prev, frame)
        # inhibition_delay 1 spreads the previous frame's P; the first
        # processed frame has none and spreads its own.
        source = self._prev_p if self.core.inhibition_delay and self._prev_p is not None else p
        i = compute_inhibition(source, scratch=self._scratch)
        s = compute_s_layer(p, i, scratch=self._scratch)
        g = compute_g_layer(s, self.core, scratch=self._scratch)
        u0, d0, l0, r0, k_f0 = accumulate_quadrants(g, self._mask, self._scratch.g_cells)
        potentials = normalize(u0, d0, l0, r0, k_f0, self.norm, n_cell=self._n_cell)
        self.state = update_spike_state(potentials.kappa, self.norm, self.state)
        spike = self.state.spike_run > 0
        self._prev_frame = frame
        self._prev_p = p
        return DetectionResult(
            frame_index=frame.index,
            potentials=potentials,
            spike=spike,
            confirmed=self.state.collision_confirmed,
        )
