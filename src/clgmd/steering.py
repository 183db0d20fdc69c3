"""Escape manoeuvre selection from the four competitive potentials.

The vehicle dodges toward the quietest field, on the grounds that the
looming object excites the fields it covers and leaves the opposite one
clear.  The selected escape is a signed speed setpoint on one body axis,
held for a fixed duration during which it replaces the cruise setpoint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .competition import SIDE_UNIT, CLgmdPotentials, Quadrant
from .errors import InputError, NonNegative, Positive, check_fields, check_value


class Axis(enum.Enum):
    """Body axes used for escape setpoints (+z up, +y left)."""

    VERTICAL_Z = "z"
    LATERAL_Y = "y"


@dataclass(frozen=True)
class SteeringParams:
    speed_0: Positive = 0.6
    hold_duration: Positive = 1.0

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class EscapeCommand:
    """A signed speed setpoint on one body axis, held for ``duration`` s."""

    axis: Axis
    value: float
    duration: float
    quadrant: Quadrant


def select_quietest(potentials: CLgmdPotentials) -> Quadrant:
    """Pick the quietest field by a chain of running-minimum comparisons.

    Start from UP and replace the candidate whenever the next field in
    D, L, R order is at least as quiet, so ties resolve toward RIGHT.
    """
    u, d, l, r = potentials.as_tuple()
    # Each value, not their sum, which can overflow to inf from finite ones.
    if not (math.isfinite(u) and math.isfinite(d) and math.isfinite(l) and math.isfinite(r)):
        raise InputError(f"potentials must be finite, got {(u, d, l, r)}")
    best, best_value = Quadrant.UP, u
    if best_value >= d:
        best, best_value = Quadrant.DOWN, d
    if best_value >= l:
        best, best_value = Quadrant.LEFT, l
    if best_value >= r:
        best = Quadrant.RIGHT
    return best


def select_escape(
    potentials: CLgmdPotentials, params: SteeringParams
) -> EscapeCommand:
    """Move toward the quietest field at speed_0, along its ``SIDE_UNIT``:
    UP climbs, DOWN descends, LEFT slides left and RIGHT slides right.
    """
    quadrant = select_quietest(potentials)
    _, y, z = SIDE_UNIT[quadrant]
    return EscapeCommand(
        axis=Axis.VERTICAL_Z if z else Axis.LATERAL_Y,
        value=(y + z) * params.speed_0,
        duration=params.hold_duration,
        quadrant=quadrant,
    )


def command_to_setpoint(
    cmd: EscapeCommand, elapsed: float
) -> tuple[float, float, float]:
    """Body-frame (vx, vy, vz) for the command at ``elapsed`` seconds.

    While the hold is active the escape axis carries the full setpoint and
    the other axes are zero, forward cruise included; after the hold the
    setpoint is all zeros and the caller resumes cruise.
    """
    check_value("elapsed", NonNegative, elapsed, InputError)
    if elapsed >= cmd.duration:
        return (0.0, 0.0, 0.0)
    if cmd.axis is Axis.LATERAL_Y:
        return (0.0, cmd.value, 0.0)
    return (0.0, 0.0, cmd.value)
