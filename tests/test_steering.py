"""Escape selection chain and setpoint hold semantics."""

import itertools
import math

import numpy as np
import pytest

from clgmd.competition import SIDE_UNIT, CLgmdPotentials, Quadrant
from clgmd.errors import ConfigError, InputError
from clgmd.flightsim import TrialConfig
from clgmd.steering import (
    Axis,
    EscapeCommand,
    SteeringParams,
    command_to_setpoint,
    select_escape,
    select_quietest,
)
from clgmd.stimulus import ScenarioSpec, make_scenario

from oracles import last_argmin

ORDER = (Quadrant.UP, Quadrant.DOWN, Quadrant.LEFT, Quadrant.RIGHT)


def pot(u, d, l, r):
    return CLgmdPotentials(k_f0=u + d + l + r, kappa=0.0, u=u, d=d, l=l, r=r)


@pytest.mark.parametrize("side", list(Quadrant))
def test_placement_escape_and_bearing_agree_with_side_unit(side):
    """Obstacle placement, escape setpoint and scenario bearing all take the
    side's direction from ``SIDE_UNIT``, so no one of them can flip alone."""
    unit = np.array(SIDE_UNIT[side])
    config = TrialConfig(placement=side.name.lower(), obstacle_offset=0.25)
    center = np.array(config.obstacle_center())
    ahead = np.array(config.camera.position) + (config.obstacle_distance, 0.0, 0.0)
    assert np.array_equal(center - ahead, 0.25 * unit)

    values = [0.0 if q is side else 10.0 for q in Quadrant]
    cmd = select_escape(pot(*values), SteeringParams(speed_0=0.6))
    assert cmd.quadrant is side
    assert np.array_equal(command_to_setpoint(cmd, 0.0), 0.6 * unit)

    (scene,) = make_scenario(ScenarioSpec(direction=side.name.lower(), frames=1))
    _, y, z = scene.objects[0].center
    along, across = np.dot((y, z), unit[1:]), np.dot((z, y), unit[1:])
    assert along > abs(across)


class TestSelect:
    def test_unique_minimum_down(self):
        cmd = select_escape(pot(200, 10, 30, 40), SteeringParams(speed_0=0.6))
        assert cmd.axis is Axis.VERTICAL_Z and cmd.value == -0.6
        assert cmd.quadrant is Quadrant.DOWN

    def test_all_equal_resolves_right(self):
        cmd = select_escape(pot(7, 7, 7, 7), SteeringParams(speed_0=0.6))
        assert cmd.axis is Axis.LATERAL_Y and cmd.value == -0.6
        assert cmd.quadrant is Quadrant.RIGHT

    def test_unique_minimum_up(self):
        cmd = select_escape(pot(10, 200, 200, 200), SteeringParams(speed_0=0.5))
        assert cmd.axis is Axis.VERTICAL_Z and cmd.value == +0.5

    def test_exhaustive_patterns_match_tie_oracle(self):
        for values in itertools.product((0.0, 1.0, 2.0), repeat=4):
            got = select_quietest(pot(*values))
            assert got == ORDER[last_argmin(values)], values

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        params = SteeringParams()
        for _ in range(100):
            values = rng.uniform(0.0, 255.0, 4)
            scale = float(rng.uniform(1e-6, 1e6))
            a = select_escape(pot(*values), params)
            b = select_escape(pot(*(values * scale)), params)
            assert (a.axis, math.copysign(1, a.value)) == (
                b.axis,
                math.copysign(1, b.value),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            select_quietest(pot(1.0, float("nan"), 2.0, 3.0))
        with pytest.raises(InputError):
            select_quietest(pot(float("inf"), 1.0, 2.0, 3.0))

    def test_opposition_property(self):
        # stimulus loudest UP, quietest DOWN: the vehicle must descend
        cmd = select_escape(pot(200, 1, 50, 50), SteeringParams(speed_0=0.6))
        assert cmd.axis is Axis.VERTICAL_Z and cmd.value < 0
        # loudest LEFT, quietest RIGHT: slide rightward (-y)
        cmd = select_escape(pot(50, 50, 200, 1), SteeringParams(speed_0=0.6))
        assert cmd.axis is Axis.LATERAL_Y and cmd.value < 0


class TestCommandToSetpoint:
    def test_lateral_hold_active(self):
        cmd = EscapeCommand(Axis.LATERAL_Y, -0.5, 1.0, Quadrant.RIGHT)
        assert command_to_setpoint(cmd, 0.2) == (0.0, -0.5, 0.0)

    def test_hold_expired(self):
        cmd = EscapeCommand(Axis.LATERAL_Y, -0.5, 1.0, Quadrant.RIGHT)
        assert command_to_setpoint(cmd, 1.5) == (0.0, 0.0, 0.0)
        assert command_to_setpoint(cmd, 1.0) == (0.0, 0.0, 0.0)

    def test_vertical_inside_hold_boundary(self):
        cmd = EscapeCommand(Axis.VERTICAL_Z, 0.5, 1.0, Quadrant.UP)
        assert command_to_setpoint(cmd, 0.99) == (0.0, 0.0, 0.5)

    def test_negative_elapsed_rejected(self):
        cmd = EscapeCommand(Axis.VERTICAL_Z, 0.5, 1.0, Quadrant.UP)
        with pytest.raises(InputError):
            command_to_setpoint(cmd, -0.01)


class TestParams:
    def test_command_magnitude_and_duration(self):
        params = SteeringParams(speed_0=0.7, hold_duration=2.5)
        cmd = select_escape(pot(1, 2, 3, 4), params)
        assert abs(cmd.value) == 0.7
        assert cmd.duration == 2.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            SteeringParams(speed_0=0.0)
        with pytest.raises(ConfigError):
            SteeringParams(hold_duration=0.0)
