"""Per-frame neural layers of the looming detector.

The stack turns two consecutive grayscale frames into a noise-suppressed
excitation grid:

    P  luminance difference between the current and previous frame
    E  excitation, the P values passed through unchanged
    I  inhibition, P spread by a distance-weighted 5x5 kernel
    S  linear subtraction E - I, sign preserved
    G  clustered excitation boosted, sporadic isolated change decayed to zero

Grids are float64 numpy arrays shaped (height, width) with row 0 at the top
of the image.  Every convolution zero-pads the border so output dimensions
match the input.  All functions here are pure; streaming state (previous
frame buffers) lives in :class:`clgmd.detector.CollisionDetector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from .errors import ConfigError, InputError

# A layer grid is a plain 2-D float64 array; the alias only documents intent.
Grid = np.ndarray


@dataclass(frozen=True)
class Frame:
    """One 8-bit grayscale frame and its position in the stream."""

    index: int
    luminance: np.ndarray

    def __post_init__(self) -> None:
        lum = np.asarray(self.luminance)
        if lum.ndim != 2:
            raise InputError(f"luminance must be 2-D, got shape {lum.shape}")
        if lum.shape[0] < 5 or lum.shape[1] < 5:
            raise InputError(
                f"frame must be at least 5x5 so the inhibition radius fits, "
                f"got {lum.shape[1]}x{lum.shape[0]}"
            )
        if self.index < 0:
            raise InputError(f"frame index must be >= 0, got {self.index}")
        if lum.dtype != np.uint8:
            if not np.all((lum >= 0) & (lum <= 255)):
                raise InputError("luminance values must lie in [0, 255]")
            lum = lum.astype(np.uint8)
        object.__setattr__(self, "luminance", lum)

    @property
    def width(self) -> int:
        return self.luminance.shape[1]

    @property
    def height(self) -> int:
        return self.luminance.shape[0]


@dataclass(frozen=True)
class InhibitionKernel:
    """5x5 lateral-inhibition weights, reciprocal to distance from center.

    The center weight is zero; every other weight is ``0.25 / r`` where
    ``r`` is the Euclidean distance to the center cell.  The two-pixel
    radius suits fast image motion.
    """

    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ys, xs = np.mgrid[-2:3, -2:3]
        dist = np.hypot(xs, ys)
        w = np.zeros((5, 5))
        off = dist > 0
        w[off] = 0.25 / dist[off]
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class CoreParams:
    """Tuning constants for the layer stack.

    ``inhibition_delay`` selects whether inhibition spreads the current P
    grid (0) or the previous frame's P grid (1).  The grouping constants
    control the G stage: ``delta_c`` and ``c_w`` shape the adaptive scale,
    while cells with ``|G| * c_de < t_de`` are decayed to zero.
    """

    inhibition_delay: int = 0
    delta_c: float = 0.5
    c_w: float = 4.0
    c_de: float = 0.5
    t_de: float = 15.0

    def __post_init__(self) -> None:
        if self.inhibition_delay not in (0, 1):
            raise ConfigError(
                f"inhibition_delay must be 0 or 1, got {self.inhibition_delay}"
            )
        if not self.c_w > 0:
            raise ConfigError(f"c_w must be positive, got {self.c_w}")
        if self.t_de < 0:
            raise ConfigError(f"t_de must be >= 0, got {self.t_de}")


def _require_same_shape(a: Grid, b: Grid, what: str) -> None:
    if a.shape != b.shape:
        raise InputError(f"{what}: shapes differ, {a.shape} vs {b.shape}")


def compute_p_layer(prev: Frame, curr: Frame) -> Grid:
    """Luminance change per pixel between two consecutive frames."""
    if prev.luminance.shape != curr.luminance.shape:
        raise InputError(
            f"frame dimensions differ: {prev.luminance.shape} vs {curr.luminance.shape}"
        )
    if curr.index != prev.index + 1:
        raise InputError(
            f"frames must be consecutive, got indices {prev.index} -> {curr.index}"
        )
    return curr.luminance.astype(np.float64) - prev.luminance.astype(np.float64)


def compute_inhibition(
    p: Grid, p_delayed: Grid, kernel: InhibitionKernel, params: CoreParams
) -> Grid:
    """Spread excitation into inhibition by convolving with the 5x5 kernel.

    The source grid is the current P layer, or the previous frame's P layer
    when ``params.inhibition_delay`` is 1.  Borders are zero-padded.
    """
    _require_same_shape(p, p_delayed, "inhibition input")
    source = p if params.inhibition_delay == 0 else p_delayed
    return signal.convolve2d(
        source, kernel.weights, mode="same", boundary="fill", fillvalue=0.0
    )


def compute_s_layer(e: Grid, i: Grid) -> Grid:
    """Combine excitation and inhibition by linear subtraction, sign kept."""
    _require_same_shape(e, i, "summing input")
    return e - i


_MEAN_3X3 = np.full((3, 3), 1.0 / 9.0)


def compute_g_layer(s: Grid, params: CoreParams) -> Grid:
    """Boost clustered excitation and decay sporadic change to zero.

    Steps: a 3x3 mean of S gives the passing coefficient Ce; the adaptive
    scale is ``delta_c + max|Ce| / c_w``; each cell becomes
    ``S * Ce / scale`` and is then zeroed unless ``|G| * c_de >= t_de``.
    """
    ce = signal.convolve2d(s, _MEAN_3X3, mode="same", boundary="fill", fillvalue=0.0)
    omega = params.delta_c + float(np.abs(ce).max()) / params.c_w
    if omega <= 0:
        raise ConfigError(
            f"grouping scale is {omega}; delta_c must keep it positive when Ce is zero"
        )
    g = s * ce / omega
    return np.where(np.abs(g) * params.c_de >= params.t_de, g, 0.0)
