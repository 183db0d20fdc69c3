"""Stateful frame-to-frame collision detector.

Wires the layer stack, the four-field competition and the spike logic
into a single object that consumes frames one at a time.  The first
frame only primes the differencing buffer and yields no result.  Every
layer grid and stencil buffer is allocated once, when the detector is
built, and reused for each frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .competition import (
    CLgmdPotentials,
    DetectorState,
    NormParams,
    accumulate_quadrants,
    build_quadrant_mask,
    normalize,
    update_spike_state,
)
from .errors import InputError
from .layers import (
    CoreParams,
    Frame,
    Grid,
    InhibitionKernel,
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
    """Runs the full pipeline over a stream of same-sized frames."""

    def __init__(
        self,
        width: int,
        height: int,
        core: CoreParams | None = None,
        norm: NormParams | None = None,
    ) -> None:
        self.width = width
        self.height = height
        self.core = core if core is not None else CoreParams()
        self.norm = (
            norm if norm is not None else NormParams.for_resolution(width, height)
        )
        self.kernel = InhibitionKernel()
        self.mask = build_quadrant_mask(width, height)
        self._prev_frame: Frame | None = None
        # P is double-buffered: each frame writes P into the first grid and
        # then swaps them, so the previous P, which inhibition reads when
        # inhibition_delay is 1, survives in the other.
        self._p_grids = [np.empty((height, width)), np.empty((height, width))]
        self._prev_p: Grid | None = None
        self._i: Grid = np.empty((height, width))
        self._s: Grid = np.empty((height, width))
        self._g: Grid = np.empty((height, width))
        self._scratch = StencilScratch(height, width)
        self.state = DetectorState()

    def process(self, frame: Frame) -> DetectionResult | None:
        """Feed one frame; returns None for the very first frame."""
        if frame.width != self.width or frame.height != self.height:
            raise InputError(
                f"frame is {frame.width}x{frame.height}, "
                f"detector expects {self.width}x{self.height}"
            )
        if self._prev_frame is None:
            self._prev_frame = frame
            return None
        p = compute_p_layer(self._prev_frame, frame, out=self._p_grids[0])
        delayed = self._prev_p if self._prev_p is not None else p
        i = compute_inhibition(
            p, delayed, self.kernel, self.core, out=self._i, scratch=self._scratch
        )
        s = compute_s_layer(p, i, out=self._s)
        g = compute_g_layer(s, self.core, out=self._g, scratch=self._scratch)
        u0, d0, l0, r0, k_f0 = accumulate_quadrants(g, self.mask)
        potentials = normalize(u0, d0, l0, r0, k_f0, self.norm)
        self.state = update_spike_state(potentials.kappa, self.norm, self.state)
        spike = self.state.spike_run > 0
        self._prev_frame = frame
        self._p_grids.reverse()
        self._prev_p = p
        return DetectionResult(
            frame_index=frame.index,
            potentials=potentials,
            spike=spike,
            confirmed=self.state.collision_confirmed,
        )
