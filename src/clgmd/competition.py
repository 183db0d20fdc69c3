"""Four-field competition over the excitation grid.

The image is split along its two diagonals into UP, DOWN, LEFT and RIGHT
triangles.  Each field sums the magnitude of the G-layer excitation inside
it, giving four competing membrane potentials.  The whole-field sum is
squashed into [0, 255] and split proportionally back onto the four fields;
a spike fires when the whole-field potential crosses a threshold, and a
collision is confirmed after enough consecutive spikes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PositiveCount, Real, check_fields, check_value
from .layers import MIN_SIDE, Grid


class Quadrant(enum.IntEnum):
    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3


# Body-frame unit vector toward each side (+y left, +z up): where an
# obstacle placed on that side sits, and where an escape toward it goes.
SIDE_UNIT: dict[Quadrant, tuple[float, float, float]] = {
    Quadrant.UP: (0.0, 0.0, 1.0),
    Quadrant.DOWN: (0.0, 0.0, -1.0),
    Quadrant.LEFT: (0.0, 1.0, 0.0),
    Quadrant.RIGHT: (0.0, -1.0, 0.0),
}


def build_quadrant_mask(width: int, height: int) -> np.ndarray:
    """Label every pixel UP, DOWN, LEFT or RIGHT along the image diagonals.

    In normalized coordinates u = x/(width-1), v = y/(height-1) with v = 0
    at the top: UP is strictly above both diagonals (v < min(u, 1-u)),
    DOWN strictly below both, LEFT is the closed band between them on the
    left half (u < 0.5), and RIGHT is everything else.  The comparisons
    are done with integer cross-multiplication, so boundary pixels land
    deterministically and symmetric pixels compare exactly.  The labels
    are a (height, width) uint8 array of ``Quadrant`` values.
    """
    if width < MIN_SIDE or height < MIN_SIDE:
        raise InputError(f"mask needs at least {MIN_SIDE}x{MIN_SIDE} pixels, got {width}x{height}")
    wm, hm = width - 1, height - 1
    # v <> u  <=>  y*(width-1) <> x*(height-1), all integers.
    a = (np.arange(height) * wm)[:, None]
    b = (np.arange(width) * hm)[None, :]
    cb = wm * hm - b  # the v <> 1-u comparison term
    up = (a < b) & (a < cb)
    down = (a > b) & (a > cb)
    left_half = (2 * np.arange(width) < wm)[None, :]
    labels = np.full((height, width), int(Quadrant.RIGHT), dtype=np.uint8)
    labels[~(up | down) & left_half] = int(Quadrant.LEFT)
    labels[up] = int(Quadrant.UP)
    labels[down] = int(Quadrant.DOWN)
    return labels


def accumulate_quadrants(
    g: Grid, labels: np.ndarray, cells: np.ndarray | None = None
) -> tuple[float, float, float, float, float]:
    """Sum |G| per field of ``labels`` and return (u0, d0, l0, r0, k_f0).

    Only the non-zero cells are binned: the G layer decays all but a few
    per cent of them to zero.  ``cells``, the ascending flat indices of
    any cells that include every non-zero one (the G layer's
    ``g_cells``), saves the scan for them.  Each field sum starts at +0.0
    and adds non-negative terms in row-major order, so a skipped cell, or
    a zero one binned, would only have added +0.0, which leaves any such
    sum unchanged; the kept cells are added in the same order, so every
    sum is bit-identical to binning the whole grid.  The whole-field sum
    k_f0 is formed as the sum of the four field sums, so the
    decomposition identity holds exactly.  A binned label outside 0-3,
    and ``cells`` that are not strictly ascending integers within ``g``,
    raise ``InputError``.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != labels.shape:
        raise InputError(
            f"grid shape {g.shape} does not match mask shape {labels.shape}"
        )
    flat = g.ravel()
    if cells is None:
        # Integer indices from a bool compare: flatnonzero on the float grid,
        # or boolean-mask indexing, is several times slower.
        hit = np.flatnonzero(flat != 0.0)
    else:
        hit = np.asarray(cells)
        # Strictly ascending, so no cell is binned twice and its ends bound it.
        if hit.dtype.kind not in "iu" or hit.ndim != 1 or len(hit) and not (
            0 <= hit[0] and hit[-1] < flat.size and (hit[1:] > hit[:-1]).all()
        ):
            raise InputError(f"cells must lie in [0, {flat.size}) as strictly ascending integers")
    try:
        sums = np.bincount(labels.ravel()[hit], weights=np.abs(flat[hit]), minlength=4)
    except ValueError:  # a negative label
        sums = None
    if sums is None or sums.size > 4:
        raise InputError("labels must lie in 0-3")
    # With no cell to bin, bincount returns int64 zeros.
    u0, d0, l0, r0 = sums.astype(np.float64).tolist()  # in Quadrant order
    return u0, d0, l0, r0, u0 + d0 + l0 + r0


@dataclass(frozen=True)
class NormParams:
    """Normalization and spiking constants.

    ``c1`` offsets the tanh squashing of the whole-field sum by the
    frame's n_cell pixels, so a strong full-field stimulus maps near 255.
    A spike fires when the squashed potential reaches ``t_s``, the one
    threshold for firing; ``n_sp`` consecutive spikes confirm a collision.
    Setting ``t_s`` above 255 disables spiking entirely (useful as a
    baseline).
    """

    c1: Real = 0.005
    t_s: Real = 150.0
    n_sp: PositiveCount = 4

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class CLgmdPotentials:
    """The four competitive membrane potentials for one frame.

    ``k_f0`` is the raw whole-field magnitude sum, ``kappa`` its squashed
    value in [0, 255], and u/d/l/r the proportional split of kappa.
    """

    k_f0: float
    kappa: float
    u: float
    d: float
    l: float
    r: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.u, self.d, self.l, self.r)


def normalize(
    u0: float, d0: float, l0: float, r0: float, k_f0: float, params: NormParams, *, n_cell: int
) -> CLgmdPotentials:
    """Squash the whole-field sum into [0, 255] and split it by proportion.

    kappa = max(tanh(sqrt(k_f0) - n_cell*c1), 0) * 255, where ``n_cell``
    is the frame's pixel count; tanh never exceeds 1, so kappa never
    exceeds 255.  Each directional potential is its share of the raw sum
    times kappa.
    A zero-activity frame maps to all zeros.  ``k_f0`` must be finite and
    equal ``((u0 + d0) + l0) + r0``, as :func:`accumulate_quadrants` forms
    it, so the four shares split kappa.
    """
    n_cell = check_value("n_cell", PositiveCount, n_cell, InputError)
    for name, value in (("u0", u0), ("d0", d0), ("l0", l0), ("r0", r0)):
        if value < 0:
            raise InputError(f"{name} must be non-negative, got {value}")
    if not (k_f0 == ((u0 + d0) + l0) + r0 and k_f0 < math.inf):  # NaN fails the ==
        raise InputError(f"k_f0 must be the finite sum u0 + d0 + l0 + r0, got {k_f0}")
    if k_f0 <= 0.0:
        return CLgmdPotentials(k_f0=0.0, kappa=0.0, u=0.0, d=0.0, l=0.0, r=0.0)
    kappa = max(math.tanh(math.sqrt(k_f0) - n_cell * params.c1), 0.0) * 255.0
    share = kappa / k_f0
    return CLgmdPotentials(
        k_f0=k_f0, kappa=kappa, u=u0 * share, d=d0 * share, l=l0 * share, r=r0 * share
    )


@dataclass(frozen=True)
class DetectorState:
    """Length of the current spike run and the confirmation flag."""

    spike_run: int = 0
    collision_confirmed: bool = False


def update_spike_state(
    kappa: float, params: NormParams, state: DetectorState
) -> DetectorState:
    """Extend or reset the spike run and re-evaluate collision confirmation.

    A spike fires when kappa >= t_s; the collision flag is set exactly when
    the last n_sp frames all spiked, so any sub-threshold frame resets the
    run.
    """
    if not 0.0 <= kappa <= 255.0:
        raise InputError(f"kappa must lie in [0, 255], got {kappa}")
    run = state.spike_run + 1 if kappa >= params.t_s else 0
    return DetectorState(spike_run=run, collision_confirmed=run >= params.n_sp)
