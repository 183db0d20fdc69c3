"""Per-frame neural layers of the looming detector.

The stack turns two consecutive grayscale frames into a noise-suppressed
excitation grid:

    P  luminance difference between the current and previous frame
    E  excitation, the P values passed through unchanged
    I  inhibition, P spread by a distance-weighted 5x5 kernel
    S  linear subtraction E - I, sign preserved
    G  clustered excitation boosted, sporadic isolated change decayed to zero

Grids are numpy arrays shaped (height, width) with row 0 at the top of the
image.  P is int16: it is an integer in [-255, 255], which int16 holds
exactly.  I, S and G are float64.  Both stencils zero-pad the border so
output dimensions match the input:

- the 5x5 inhibition kernel is symmetric, so it has five distinct weights
  (at r = 1, sqrt 2, 2, sqrt 5 and sqrt 8), read once at import.  It
  spreads the one grid it is given, through one zero-bordered copy of it
  read flat, at its row pitch, as G's row sums read S.  The pair sums at
  x+-1 and x+-2 are one 1-D add each; the taps of each weight group are
  runs of whole padded rows summed into one buffer, and each group sum is
  widened to float64 from that buffer's interior, pad columns dropped, and
  multiplied by its weight once.  One tap table lists those runs; for the
  detector's int16 buffers it is built once, with the scratch, so a frame
  slices nothing.  An int16 source whose values lie in [-4095, 4095] is
  summed in int16: a group has at most eight taps, so every sum stays
  within 8 * 4095 = 32,760 and equals the float64 sum exactly.  Any other
  source, an int16 one outside that range included, is summed in float64,
  so no sum can wrap;
- the 3x3 G-layer mean is a separable box sum, a row sum then a column
  sum, divided by 9.  It needs no padded copy of S: the row sums add runs
  of S at flat offsets, only the edge columns redone with the zero pad
  written out, and land between two zero rows, the column sum's pad.  The
  division by 9 is made only where needed: the extremes of the box sum
  give the adaptive scale, a bound on |box * S| picks the few cells that
  can survive the decay rule, and only those get their mean and the rule.
  The decay coefficient is the paper's fixed ``C_DE``: ``t_de`` sets the cut.

``compute_p_layer`` returns a fresh grid.  ``compute_inhibition``,
``compute_s_layer`` and ``compute_g_layer`` take a keyword-only
``scratch=`` :class:`StencilScratch`, the one place their grids live;
omitted, a fresh one is used, except that S is then a fresh grid
alone.  A scratch sized for another grid, or a grid that is not 2-D or
has a side of zero cells, raises ``InputError`` before anything is
written.
I and S are written into the scratch's ``grid``, S over I when it is
handed that I.  G is written only into the scratch's own grid ``g``,
which stays zero outside the last call's candidates, ``g_cells``: each
call re-zeroes those cells and writes its own, so the grid is never
cleared whole, and the quadrant sums bin only those cells.  Each scratch
buffer has one role: the int16 ones belong to inhibition, ``grid`` to I
and then S, the row sums, then |box * S|, the candidate mask and ``g``
to G, and ``tmp`` holds one stage's float work at a time.  A float64
inhibition source, which the detector never hands over, gets its padded
copy and a tap table over it built per call.  Apart from the scratch,
the functions keep no state between calls; streaming state (previous
frame, previous P grid), the choice of inhibition source that
``inhibition_delay`` makes, and the reused scratch belong to
:class:`clgmd.detector.CollisionDetector`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .errors import Count, InputError, Kind, NonNegative, Positive, check_fields

# A layer grid is a plain 2-D array, float64 or, for P, int16; the alias
# only documents intent.
Grid = np.ndarray

# The largest |value| of an int16 inhibition source whose eight-tap group
# sums cannot overflow int16.
INT16_SOURCE_LIMIT = 4095

# The smallest frame side: the 5x5 inhibition radius must fit.
MIN_SIDE = 5

# G keeps a cell when |G| * C_DE >= t_de; a power of two, so t_de / C_DE is exact.
C_DE = 0.5


@dataclass(frozen=True)
class Frame:
    """One 8-bit grayscale frame and its position in the stream.

    ``luminance`` is a 2-D uint8 array of at least ``MIN_SIDE`` cells a
    side; any other dtype or shape raises ``InputError``.
    """

    index: Count
    luminance: np.ndarray

    def __post_init__(self) -> None:
        check_fields(self, InputError)
        lum = np.asarray(self.luminance)
        if lum.dtype != np.uint8 or lum.ndim != 2:
            raise InputError(
                f"luminance must be a 2-D uint8 array, got dtype {lum.dtype}, shape {lum.shape}"
            )
        if lum.shape[0] < MIN_SIDE or lum.shape[1] < MIN_SIDE:
            raise InputError(
                f"frame must be at least {MIN_SIDE}x{MIN_SIDE} so the inhibition radius fits, "
                f"got {lum.shape[1]}x{lum.shape[0]}"
            )
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
        # Exact integer sums under a correctly rounded sqrt, not libm's hypot.
        dist = np.sqrt(xs * xs + ys * ys)
        w = np.zeros((5, 5))
        off = dist > 0
        w[off] = 0.25 / dist[off]
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


# The kernel's five distinct weights, at r = 1, sqrt 2, 2, sqrt 5 and sqrt 8,
# in the order of the inhibition tap table's groups.
_GROUP_WEIGHTS = tuple(
    float(InhibitionKernel().weights[at]) for at in ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4))
)

# Inhibition spreads the current P grid (0) or the previous frame's (1).
_Delay = Annotated[int, Kind("be 0 or 1", lambda v: v in (0, 1), integer=True)]


@dataclass(frozen=True)
class CoreParams:
    """Tuning constants for the layer stack.

    ``inhibition_delay`` selects whether inhibition spreads the current P
    grid (0) or the previous frame's P grid (1).  The layers never read it:
    :class:`clgmd.detector.CollisionDetector` picks the grid it hands
    ``compute_inhibition``.  The grouping constants control the G stage:
    ``delta_c`` and ``c_w`` shape the adaptive scale ``delta_c + max|Ce| /
    c_w``, which is at least ``delta_c`` and so positive, while cells with
    ``|G| * C_DE < t_de`` are decayed to zero.
    """

    inhibition_delay: _Delay = 0
    delta_c: Positive = 0.5
    c_w: Positive = 4.0
    t_de: NonNegative = 15.0

    def __post_init__(self) -> None:
        check_fields(self)


class StencilScratch:
    """Every grid the layer stack writes after P, and the work buffers of
    its two stencils, for grids of one shape, with the views of them each
    call reads, built once.

    Inhibition of an int16 source within ``INT16_SOURCE_LIMIT`` owns
    ``padded16``, which holds the source inside a two-cell zero border
    (nothing writes the border, so one allocation serves every call), its
    view ``interior16`` that the source is copied into, and ``taps16``, the
    flat inhibition tap table over it with its int16 pair sums and group
    sum (see ``_inhibition_taps``).  ``grid`` is the float64 grid that
    inhibition returns I in and the S layer S.  The G layer owns ``rows``,
    its box row sums between a zero row above and below (again a border
    nothing writes), with ``row_sums`` the flat run the row adds write and
    ``above``, ``centre`` and ``below`` the three row views the column sum
    adds, after which ``centre`` takes |box * S|; ``keep``, its candidate
    mask; and ``g``, the G grid it returns, zero but at ``g_cells``, the
    ascending flat indices of the last call's candidates (none for a fresh
    scratch).  ``tmp`` holds a weighted inhibition group, then G's box
    sum; neither stage reads it on entry.
    """

    def __init__(self, height: int, width: int) -> None:
        self.padded16 = np.zeros((height + 4, width + 4), dtype=np.int16)
        self.interior16 = self.padded16[2:-2, 2:-2]
        self.taps16 = _inhibition_taps(self.padded16)
        self.grid = np.empty((height, width))
        self.tmp = np.empty((height, width))
        self.rows = np.zeros((height + 2, width))
        self.above, self.centre, self.below = self.rows[:-2], self.rows[1:-1], self.rows[2:]
        # Whole rows of a C-contiguous array, so the ravel is a view.
        self.row_sums = self.centre.ravel()[1:-1]
        self.keep = np.empty((height, width), dtype=bool)
        self.g = np.zeros((height, width))
        self.g_cells = np.empty(0, dtype=np.intp)


def _check_2d(shape: tuple[int, ...]) -> None:
    """A layer grid that is not 2-D, or has a side of zero cells, raises
    ``InputError``."""
    if len(shape) != 2:
        raise InputError(f"layer grid must be 2-D, got shape {shape}")
    if 0 in shape:
        raise InputError(f"layer grid must not be empty, got shape {shape}")


def _fitting(scratch: StencilScratch | None, shape: tuple[int, ...]) -> StencilScratch:
    """``scratch``, or a fresh one when it is None; a grid that is not 2-D
    or is empty, or a scratch for grids of another shape, raises
    ``InputError``."""
    _check_2d(shape)
    if scratch is None:
        return StencilScratch(*shape)
    if scratch.g.shape != shape:
        raise InputError(f"scratch shape {scratch.g.shape} does not match grid shape {shape}")
    return scratch


def _inhibition_taps(q: Grid):
    """The inhibition tap table over the zero-bordered source ``q``, read
    flat at its row pitch ``p``: every view is a 1-D run.

    Returns ``(pairs, groups, acc, interior)``.  Each pair ``(left, right,
    into)`` adds the cells at x+-1 into ``near`` or at x+-2 into ``far``,
    whose one or two end cells stay zero.  Each group lists, in kernel
    order, the runs of h * p cells, rows y+dy, whose sum into ``acc`` is
    the group sum of the matching entry of ``_GROUP_WEIGHTS``;
    ``interior`` is the (h, w) view of ``acc`` without the pad columns.
    """
    h, p = q.shape[0] - 4, q.shape[1]
    flat = q.ravel()
    near, far = np.zeros(q.size, q.dtype), np.zeros(q.size, q.dtype)
    acc = np.empty(h * p, q.dtype)
    pairs = ((flat[:-2], flat[2:], near[1:-1]), (flat[:-4], flat[4:], far[2:-2]))

    def tap(cells: Grid, dy: int) -> Grid:
        return cells[(2 + dy) * p : (2 + dy + h) * p]

    groups = (
        (tap(near, 0), tap(flat, -1), tap(flat, 1)),
        (tap(near, -1), tap(near, 1)),
        (tap(far, 0), tap(flat, -2), tap(flat, 2)),
        (tap(far, -1), tap(far, 1), tap(near, -2), tap(near, 2)),
        (tap(far, -2), tap(far, 2)),
    )
    return pairs, groups, acc, acc.reshape(h, p)[:, 2:-2]


def _sums_fit_int16(grid: Grid) -> bool:
    """True when ``grid`` is int16 and no inhibition group sum can overflow."""
    return (
        grid.dtype == np.int16
        and -INT16_SOURCE_LIMIT <= grid.min()
        and grid.max() <= INT16_SOURCE_LIMIT
    )


def compute_p_layer(prev: Frame, curr: Frame) -> Grid:
    """Luminance change per pixel between two consecutive frames of one
    size, as a fresh int16 grid; other frames raise ``InputError``.

    The uint8 frames are subtracted in int16, where every difference in
    [-255, 255] is exact, so P feeds the int16 inhibition path.
    """
    if prev.luminance.shape != curr.luminance.shape:
        raise InputError(
            f"frame is {curr.width}x{curr.height}, "
            f"previous frame is {prev.width}x{prev.height}"
        )
    if curr.index != prev.index + 1:
        raise InputError(
            f"frames must be consecutive, got indices {prev.index} -> {curr.index}"
        )
    return np.subtract(curr.luminance, prev.luminance, dtype=np.int16)


def compute_inhibition(source: Grid, *, scratch: StencilScratch | None = None) -> Grid:
    """Spread ``source`` into inhibition by convolving it with the 5x5 kernel,
    written into the scratch's ``grid``.

    Borders are zero-padded.  An int16 source with every |value| <=
    ``INT16_SOURCE_LIMIT`` has its group sums taken in int16; any other
    source, in float64.  Either way each group sum is widened to float64
    once, multiplied by its weight, and the five weighted groups are added
    in the same order, so an integer source gives bit-identical I in either
    dtype.
    """
    scratch = _fitting(scratch, source.shape)
    if _sums_fit_int16(source):
        np.copyto(scratch.interior16, source)
        pairs, groups, acc, interior = scratch.taps16
    else:
        q = np.pad(np.asarray(source, dtype=np.float64), 2)
        pairs, groups, acc, interior = _inhibition_taps(q)
    out = scratch.grid
    for left, right, into in pairs:
        np.add(left, right, out=into)
    for n, (weight, (first, second, *rest)) in enumerate(zip(_GROUP_WEIGHTS, groups)):
        np.add(first, second, out=acc)
        for tap in rest:
            acc += tap
        weighted = out if n == 0 else scratch.tmp
        # Copy out, then scale in float64: faster than one mixed-dtype multiply.
        np.copyto(weighted, interior)
        weighted *= weight
        if n:
            out += weighted
    return out


def compute_s_layer(e: Grid, i: Grid, *, scratch: StencilScratch | None = None) -> Grid:
    """Combine excitation and inhibition by linear subtraction, sign kept,
    in float64, written into the scratch's ``grid``, or a fresh grid
    without a scratch.

    ``e`` may be the int16 P grid: it is widened to float64 exactly, so S
    equals the float64 subtraction.  ``i`` may be the scratch's ``grid``,
    as I is: each cell is read before it is written.
    """
    if e.shape != i.shape:
        raise InputError(f"summing input: shapes differ, {e.shape} vs {i.shape}")
    if scratch is None:
        _check_2d(e.shape)
        return np.subtract(e, i, dtype=np.float64)
    return np.subtract(e, i, out=_fitting(scratch, e.shape).grid, dtype=np.float64)


def _grouping_bound(omega: float, t_de: float) -> float:
    """A lower bound of |box * S| on every cell the decay rule keeps, or 0.0.

    ``box`` is the 3x3 box sum and Ce = box / 9.0, so a cell survives when
    ``abs(Ce * S / omega) * C_DE >= t_de``.  The bound is 9 * t_de / C_DE *
    omega less a slack.  With ``t_de`` normal and the bound in [2**-20,
    inf), t_de / C_DE = 2 * t_de is exact, and each of the other eight
    roundings, the three here, the three in the rule (a survivor's halving
    reaches ``t_de``, so is exact or rounds up to the least normal), the
    division forming Ce and the product box * S of the candidate test, is
    within a factor 1 +- 2**-53, and (1 + 2**-53)**8 < 1 / (1 - 2**-20), so
    no survivor has |box * S| below the bound.  The one exception, a Ce
    rounded into the subnormal range, is off by at most 2**-1075, which a
    finite |S| < 2**1024 turns into at most 2**-51 in Ce * S: at a bound of
    2**-20 or more the slack covers that too.  Anywhere else, an overflow
    to inf included, zero keeps every cell a candidate.
    """
    omega, t_de = float(omega), float(t_de)
    bound = t_de / C_DE * omega * 9.0 * (1 - 2**-20)
    normal = sys.float_info.min <= t_de
    return bound if normal and 2**-20 <= bound < math.inf else 0.0


def compute_g_layer(
    s: Grid, params: CoreParams, *, scratch: StencilScratch | None = None
) -> Grid:
    """Boost clustered excitation and decay sporadic change to zero.

    Steps: a 3x3 mean of S gives the passing coefficient Ce; the adaptive
    scale is ``delta_c + max|Ce| / c_w``, positive since ``delta_c`` is;
    each cell becomes ``S * Ce / scale`` and is then zeroed unless
    ``|G| * C_DE >= t_de``.

    The box sum adds whole rows: ``(s[x-1] + s[x+1]) + s[x]`` at flat
    offsets +-1, the first and last column redone with their zero pad
    written out, then ``(r[y-1] + r[y]) + r[y+1]`` between the scratch's
    zero rows, so a -0.0 rounds as it would in a zero-padded grid.  Ce is
    never formed over the grid: division by 9 rounds monotonically, so
    max(Ce) and min(Ce) are ``max(box) / 9.0`` and ``min(box) / 9.0``, and
    the candidates are the cells whose |box * S| reaches a provable lower
    bound of every survivor's (see ``_grouping_bound``).  Only there is
    Ce = box / 9.0 formed and the decay rule run, with the same roundings
    as on the whole grid.  G is the scratch's grid ``g``: the last call's
    candidates there are re-zeroed and this call's written, so the rest of
    ``g`` stays zero and the cost follows the number of candidates (with
    ``t_de=0`` every cell is one).  An S whose box sums are not all
    finite, an overflowing sum or +inf next to -inf included, raises
    ``InputError`` and no numpy warning; a call that raises leaves ``g``
    and ``g_cells`` as they were.  Finite box sums whose product with S
    overflows give +-inf cells in G, again with no warning.
    """
    scratch = _fitting(scratch, s.shape)
    w = s.shape[1]
    s = np.ascontiguousarray(s, dtype=np.float64)
    inner, box, flat = scratch.centre, scratch.tmp, s.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(flat[:-2], flat[2:], out=scratch.row_sums)
        scratch.row_sums += flat[1:-1]
        for x in {0, w - 1}:
            left = s[:, x - 1] if x > 0 else 0.0
            right = s[:, x + 1] if x + 1 < w else 0.0
            np.add(left, right, out=inner[:, x])
            inner[:, x] += s[:, x]
        np.add(scratch.above, inner, out=box)
        box += scratch.below
        # Division by 9 rounds monotonically: these are max(Ce) and min(Ce).
        top, bottom = float(box.max()) / 9.0, float(box.min()) / 9.0
        if not (math.isfinite(top) and math.isfinite(bottom)):  # a NaN or +-inf in S
            raise InputError("S must be finite: a 3x3 sum of it is NaN or infinite")
        # max(top, -bottom) >= 0 as bottom <= top, so omega >= delta_c > 0.
        omega = params.delta_c + max(top, -bottom) / params.c_w
        bound = _grouping_bound(omega, params.t_de)
        # The row sums are dead once the box sum exists.
        np.abs(np.multiply(box, s, out=inner), out=inner)
        candidates = np.flatnonzero(np.greater_equal(inner, bound, out=scratch.keep))
        # Ce, Ce * S and G on the candidates, rounded as on the whole grid.
        g = box.ravel()[candidates]
        g /= 9.0
        g *= flat[candidates]
        g /= omega
        g[~(np.abs(g) * C_DE >= params.t_de)] = 0.0
    grid = scratch.g.ravel()
    grid[scratch.g_cells] = 0.0
    grid[candidates] = g
    scratch.g_cells = candidates
    return scratch.g
