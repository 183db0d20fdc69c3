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

from .errors import ConfigError, InputError
from .layers import Grid


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
    if width < 5 or height < 5:
        raise InputError(f"mask needs at least 5x5 pixels, got {width}x{height}")
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
    g: Grid, labels: np.ndarray
) -> tuple[float, float, float, float, float]:
    """Sum |G| per field of ``labels`` and return (u0, d0, l0, r0, k_f0).

    The whole-field sum k_f0 is formed as the sum of the four field sums,
    so the decomposition identity holds exactly.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != labels.shape:
        raise InputError(
            f"grid shape {g.shape} does not match mask shape {labels.shape}"
        )
    sums = np.bincount(labels.ravel(), weights=np.abs(g).ravel(), minlength=4)
    u0, d0, l0, r0 = sums[:4].tolist()  # in Quadrant order
    return u0, d0, l0, r0, u0 + d0 + l0 + r0


@dataclass(frozen=True)
class NormParams:
    """Normalization and spiking constants.

    ``c1`` and ``c2`` shape the tanh squashing of the whole-field sum;
    by default ``c2`` is ``1 / n_cell`` so a strong full-field stimulus
    maps near 255.  A spike fires when the squashed potential reaches
    ``t_s``; ``n_sp`` consecutive spikes confirm a collision.  Setting
    ``t_s`` above 255 disables spiking entirely (useful as a baseline).
    """

    n_cell: int
    c1: float = 0.005
    c2: float | None = None
    t_s: float = 150.0
    n_sp: int = 4

    def __post_init__(self) -> None:
        if self.n_cell <= 0:
            raise ConfigError(f"n_cell must be positive, got {self.n_cell}")
        if self.c2 is None:
            object.__setattr__(self, "c2", 1.0 / self.n_cell)
        if not self.c2 > 0:
            raise ConfigError(f"c2 must be positive, got {self.c2}")
        if self.n_sp < 1:
            raise ConfigError(f"n_sp must be >= 1, got {self.n_sp}")

    @classmethod
    def for_resolution(cls, width: int, height: int, **overrides) -> "NormParams":
        return cls(n_cell=width * height, **overrides)


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
    u0: float, d0: float, l0: float, r0: float, k_f0: float, params: NormParams
) -> CLgmdPotentials:
    """Squash the whole-field sum into [0, 255] and split it by proportion.

    kappa = clamp(tanh(sqrt(k_f0) - n_cell*c1) / (n_cell*c2) * 255, 0, 255);
    each directional potential is its share of the raw sum times kappa.
    A zero-activity frame maps to all zeros.
    """
    for name, value in (("u0", u0), ("d0", d0), ("l0", l0), ("r0", r0)):
        if value < 0:
            raise InputError(f"{name} must be non-negative, got {value}")
    if k_f0 <= 0.0:
        return CLgmdPotentials(k_f0=0.0, kappa=0.0, u=0.0, d=0.0, l=0.0, r=0.0)
    raw = math.tanh(math.sqrt(k_f0) - params.n_cell * params.c1)
    kappa = raw / (params.n_cell * params.c2) * 255.0
    kappa = min(max(kappa, 0.0), 255.0)
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
