"""Per-frame neural layers of the looming detector.

The stack turns two consecutive grayscale frames into a noise-suppressed
excitation grid:

    P  luminance difference between the current and previous frame
    E  excitation, the P values passed through unchanged
    I  inhibition, P spread by a distance-weighted 5x5 kernel
    S  linear subtraction E - I, sign preserved
    G  clustered excitation boosted, sporadic isolated change decayed to zero

Grids are numpy arrays shaped (height, width) with row 0 at the top of the
image.  I, S and G are float64.  P is float64 unless the caller hands
``compute_p_layer`` an int16 ``out=`` grid, as the detector does: P is an
integer in [-255, 255], so int16 holds it exactly.  Both stencils zero-pad
the border so output dimensions match the input:

- the 5x5 inhibition kernel is symmetric, so it has five distinct weights
  (at r = 1, sqrt 2, 2, sqrt 5 and sqrt 8).  It reads shifted slices of one
  zero-bordered copy of the source.  The taps of each weight group are
  summed from shared horizontal pair sums at x+-1 and x+-2, and each group
  sum is multiplied by its weight once.  An int16 source whose values lie
  in [-4095, 4095] is summed in int16: a group has at most eight taps, so
  every sum stays within 8 * 4095 = 32,760 and equals the float64 sum
  exactly.  Any other source, an int16 one outside that range included, is
  summed in float64, so no sum can wrap;
- the 3x3 G-layer mean is a separable box sum, a row sum then a column
  sum, divided by 9.  It needs no padded copy of S: the row sums add runs
  of S at flat offsets, only the edge columns redone with the zero pad
  written out, and land between two zero rows, the column sum's pad.  The
  decay rule then runs only on the few cells that can survive it.

``compute_p_layer``, ``compute_inhibition``, ``compute_s_layer`` and
``compute_g_layer`` take a keyword-only ``out=`` grid to write into, and
the two stencils a ``scratch=`` :class:`StencilScratch` of work buffers.
Omitted, each is allocated fresh.  Each scratch buffer has one role: the
int16 ones belong to inhibition, the row sums and candidate mask to G, and
``tmp`` holds one stage's float work at a time.  A float64 inhibition
source, which the detector never hands over, gets its padded copy and pair
sums allocated per call.  The functions keep no state between calls;
streaming state (previous frame, previous P grid) and the reused buffers
belong to :class:`clgmd.detector.CollisionDetector`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .errors import (
    ConfigError, Count, InputError, Kind, NonNegative, Positive, Real, check_fields,
)

# A layer grid is a plain 2-D array, float64 or, for P, int16; the alias
# only documents intent.
Grid = np.ndarray

# The largest |value| of an int16 inhibition source whose eight-tap group
# sums cannot overflow int16.
INT16_SOURCE_LIMIT = 4095

# The smallest frame side: the 5x5 inhibition radius must fit.
MIN_SIDE = 5


def to_uint8(values: np.ndarray, name: str, rule: str, error) -> np.ndarray:
    """``values`` as uint8, rounded half to even.  Only an integer or real
    array whose values all lie in [0, 255] converts; ``error`` names
    ``name`` and, for a value outside, ``rule``."""
    if values.dtype == np.uint8:
        return values
    if values.dtype.kind not in "iuf":
        raise error(f"{name} must be integer or real, got dtype {values.dtype}")
    if not np.all((values >= 0) & (values <= 255)):
        raise error(f"{name} values must {rule}")
    return np.rint(values).astype(np.uint8)


@dataclass(frozen=True)
class Frame:
    """One 8-bit grayscale frame and its position in the stream.

    Luminance in [0, 255] of any other integer or real dtype is rounded
    half to even.
    """

    index: Count
    luminance: np.ndarray

    def __post_init__(self) -> None:
        check_fields(self, InputError)
        lum = np.asarray(self.luminance)
        if lum.ndim != 2:
            raise InputError(f"luminance must be 2-D, got shape {lum.shape}")
        if lum.shape[0] < MIN_SIDE or lum.shape[1] < MIN_SIDE:
            raise InputError(
                f"frame must be at least {MIN_SIDE}x{MIN_SIDE} so the inhibition radius fits, "
                f"got {lum.shape[1]}x{lum.shape[0]}"
            )
        lum = to_uint8(lum, "luminance", "lie in [0, 255]", InputError)
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


# Inhibition spreads the current P grid (0) or the previous frame's (1).
_Delay = Annotated[int, Kind("be 0 or 1", lambda v: v in (0, 1), integer=True)]


@dataclass(frozen=True)
class CoreParams:
    """Tuning constants for the layer stack.

    ``inhibition_delay`` selects whether inhibition spreads the current P
    grid (0) or the previous frame's P grid (1).  The grouping constants
    control the G stage: ``delta_c`` and ``c_w`` shape the adaptive scale,
    while cells with ``|G| * c_de < t_de`` are decayed to zero.
    """

    inhibition_delay: _Delay = 0
    delta_c: Real = 0.5
    c_w: Positive = 4.0
    c_de: Real = 0.5
    t_de: NonNegative = 15.0

    def __post_init__(self) -> None:
        check_fields(self)


def _require_same_shape(a: Grid, b: Grid, what: str) -> None:
    if a.shape != b.shape:
        raise InputError(f"{what}: shapes differ, {a.shape} vs {b.shape}")


class StencilScratch:
    """Work buffers for the detector's two stencils on grids of one shape.

    Inhibition of an int16 source within ``INT16_SOURCE_LIMIT`` owns the
    ``*16`` buffers: ``padded16`` holds the source inside a two-cell zero
    border (nothing writes the border, so one allocation serves every
    call), ``near16`` and ``far16`` its pair sums at x+-1 and x+-2, and
    ``acc16`` one group sum.  The G layer owns ``rows``, its box row sums
    between a zero row above and below (again a border nothing writes),
    and ``keep``, its candidate mask.  ``tmp`` holds a weighted inhibition
    group, then G's Ce and S * Ce; neither stage reads it on entry.
    """

    def __init__(self, height: int, width: int) -> None:
        self.padded16 = np.zeros((height + 4, width + 4), dtype=np.int16)
        self.near16 = np.empty((height + 4, width), dtype=np.int16)
        self.far16 = np.empty((height + 4, width), dtype=np.int16)
        self.acc16 = np.empty((height, width), dtype=np.int16)
        self.tmp = np.empty((height, width))
        self.rows = np.zeros((height + 2, width))
        self.keep = np.empty((height, width), dtype=bool)


def _sums_fit_int16(grid: Grid) -> bool:
    """True when ``grid`` is int16 and no inhibition group sum can overflow."""
    return (
        grid.dtype == np.int16
        and -INT16_SOURCE_LIMIT <= grid.min(initial=0)  # initial: empty grids fit
        and grid.max(initial=0) <= INT16_SOURCE_LIMIT
    )


def compute_p_layer(prev: Frame, curr: Frame, *, out: Grid | None = None) -> Grid:
    """Luminance change per pixel between two consecutive frames.

    The uint8 frames are subtracted in int16, where every difference in
    [-255, 255] is exact, and written into ``out`` in its own dtype: a
    float64 grid, allocated when ``out`` is omitted, or an int16 grid, which
    keeps P integer for the int16 inhibition path.
    """
    if prev.luminance.shape != curr.luminance.shape:
        raise InputError(
            f"frame dimensions differ: {prev.luminance.shape} vs {curr.luminance.shape}"
        )
    if curr.index != prev.index + 1:
        raise InputError(
            f"frames must be consecutive, got indices {prev.index} -> {curr.index}"
        )
    out = np.empty(curr.luminance.shape) if out is None else out
    return np.subtract(curr.luminance, prev.luminance, out=out, dtype=np.int16)


def compute_inhibition(
    p: Grid,
    p_delayed: Grid,
    kernel: InhibitionKernel,
    params: CoreParams,
    *,
    out: Grid | None = None,
    scratch: StencilScratch | None = None,
) -> Grid:
    """Spread excitation into inhibition by convolving with the 5x5 kernel.

    The source grid is the current P layer, or the previous frame's P layer
    when ``params.inhibition_delay`` is 1.  Borders are zero-padded.  An
    int16 source with every |value| <= ``INT16_SOURCE_LIMIT`` has its group
    sums taken in int16; any other source, in float64.  Either way each
    group sum is widened to float64 once, multiplied by its weight, and the
    five weighted groups are added in the same order, so an integer source
    gives bit-identical I in either dtype.
    """
    _require_same_shape(p, p_delayed, "inhibition input")
    source = p if params.inhibition_delay == 0 else p_delayed
    h, w = source.shape
    if scratch is None:
        scratch = StencilScratch(h, w)
    in_int16 = _sums_fit_int16(source)
    if in_int16:
        q, near, far = scratch.padded16, scratch.near16, scratch.far16
        q[2:-2, 2:-2] = source
    else:
        q, near, far = np.pad(np.asarray(source, dtype=np.float64), 2), None, None
    out = np.empty((h, w)) if out is None else out
    near = np.add(q[:, 1 : w + 1], q[:, 3 : w + 3], out=near)
    far = np.add(q[:, 0:w], q[:, 4 : w + 4], out=far)
    centre = q[:, 2 : w + 2]
    weights = kernel.weights
    # (weight, taps): a tap (rows, dy) reads rows[y + dy], x-shifts folded in.
    groups = (
        (weights[2, 3], ((near, 0), (centre, -1), (centre, 1))),
        (weights[3, 3], ((near, -1), (near, 1))),
        (weights[2, 4], ((far, 0), (centre, -2), (centre, 2))),
        (weights[3, 4], ((far, -1), (far, 1), (near, -2), (near, 2))),
        (weights[4, 4], ((far, -2), (far, 2))),
    )
    for n, (weight, taps) in enumerate(groups):
        weighted = out if n == 0 else scratch.tmp
        acc = scratch.acc16 if in_int16 else weighted
        (first, dy0), (second, dy1), *rest = taps
        np.add(first[2 + dy0 : 2 + dy0 + h], second[2 + dy1 : 2 + dy1 + h], out=acc)
        for rows, dy in rest:
            acc += rows[2 + dy : 2 + dy + h]
        if in_int16:
            # Widen, then scale in float64: faster than one mixed-dtype multiply.
            np.copyto(weighted, acc)
        weighted *= weight
        if n:
            out += weighted
    return out


def compute_s_layer(e: Grid, i: Grid, *, out: Grid | None = None) -> Grid:
    """Combine excitation and inhibition by linear subtraction, sign kept.

    ``e`` may be the int16 P grid: it is widened to float64 exactly, then
    the float64 ``i`` is subtracted, so S equals the float64 subtraction.
    """
    _require_same_shape(e, i, "summing input")
    return np.subtract(e, i, out=out)


def _grouping_bound(omega: float, c_de: float, t_de: float) -> float:
    """A lower bound of |S * Ce| on every cell the decay rule keeps, or 0.0.

    A cell survives when ``abs(S * Ce / omega) * c_de >= t_de``.  With
    ``t_de``, ``t_de / c_de`` and the bound all finite and normal, each of
    the three roundings here and the two in the rule is within a factor
    1 +- 2**-53, and (1 + 2**-53)**6 < 1 / (1 - 2**-20), so no survivor has
    |S * Ce| below the bound.  Anywhere else, zero keeps every cell a
    candidate.  Python floats keep an overflow quiet, and ``c_de`` is
    checked first because their division by zero raises.
    """
    omega, c_de, t_de = float(omega), float(c_de), float(t_de)
    if not c_de > 0:
        return 0.0
    ratio = t_de / c_de
    bound = ratio * omega * (1 - 2**-20)
    if all(sys.float_info.min <= v < math.inf for v in (t_de, ratio, bound)):
        return bound
    return 0.0


def compute_g_layer(
    s: Grid,
    params: CoreParams,
    *,
    out: Grid | None = None,
    scratch: StencilScratch | None = None,
) -> Grid:
    """Boost clustered excitation and decay sporadic change to zero.

    Steps: a 3x3 mean of S gives the passing coefficient Ce; the adaptive
    scale is ``delta_c + max|Ce| / c_w``; each cell becomes
    ``S * Ce / scale`` and is then zeroed unless ``|G| * c_de >= t_de``.

    The box sum adds whole rows: ``(s[x-1] + s[x+1]) + s[x]`` at flat
    offsets +-1, the first and last column redone with their zero pad
    written out, then ``(r[y-1] + r[y]) + r[y+1]`` between the scratch's
    zero rows, so a -0.0 rounds as it would in a zero-padded grid.  The
    decay rule runs only on the cells whose |S * Ce| reaches a provable
    lower bound of every survivor's (see ``_grouping_bound``), and the rest
    of ``out`` is zero.  The cost follows the number of candidates: with
    ``t_de=0`` every cell is one.
    """
    h, w = s.shape
    if scratch is None:
        scratch = StencilScratch(h, w)
    s = np.ascontiguousarray(s, dtype=np.float64)
    out = np.empty((h, w)) if out is None else out
    rows, inner, ce = scratch.rows, scratch.rows[1:-1], scratch.tmp
    flat, row_flat = s.ravel(), inner.ravel()
    np.add(flat[:-2], flat[2:], out=row_flat[1:-1])
    row_flat[1:-1] += flat[1:-1]
    for x in {0, w - 1}:
        left = s[:, x - 1] if x > 0 else 0.0
        right = s[:, x + 1] if x + 1 < w else 0.0
        np.add(left, right, out=inner[:, x])
        inner[:, x] += s[:, x]
    np.add(rows[:-2], rows[1:-1], out=ce)
    ce += rows[2:]
    ce /= 9.0
    omega = params.delta_c + max(float(ce.max()), -float(ce.min())) / params.c_w
    if omega <= 0:
        raise ConfigError(
            f"grouping scale is {omega}; delta_c must keep it positive when Ce is zero"
        )
    product = np.multiply(ce, s, out=ce)
    np.abs(product, out=out)
    bound = _grouping_bound(omega, params.c_de, params.t_de)
    candidates = np.flatnonzero(np.greater_equal(out, bound, out=scratch.keep))
    g = product.ravel()[candidates] / omega
    g[~(np.abs(g) * params.c_de >= params.t_de)] = 0.0
    out.fill(0.0)
    np.put(out, candidates, g)
    return out
