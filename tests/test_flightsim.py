"""Vehicle integration, collision geometry and closed-loop trials."""

import math

import numpy as np
import pytest

from clgmd import flightsim
from clgmd.competition import NormParams
from clgmd.errors import ConfigError, InputError
from clgmd.flightsim import (
    MAX_STEPS,
    Outcome,
    Placement,
    TRACE_COLUMNS,
    TrialConfig,
    TrialTrace,
    VehicleState,
    check_collision,
    run_trial,
    step_vehicle,
    write_trace_csv,
)
from clgmd.stimulus import Sphere

from oracles import first_order_response


class TestStepVehicle:
    def test_setpoint_equal_velocity_integrates_linearly(self):
        state = VehicleState(velocity=(1.0, 0.0, 0.0))
        out = step_vehicle(state, (1.0, 0.0, 0.0), dt=0.5, tau=0.3)
        assert out.velocity == (1.0, 0.0, 0.0)
        assert out.position == (0.5, 0.0, 0.0)

    def test_coarse_step_lands_on_setpoint(self):
        state = VehicleState()
        out = step_vehicle(state, (2.0, -1.0, 0.5), dt=1.0, tau=0.25)
        assert out.velocity == (2.0, -1.0, 0.5)

    def test_matches_closed_form_within_one_percent(self):
        tau, sp = 0.3, 1.5
        dt = tau / 100.0
        state = VehicleState()
        t = 0.0
        while t < 2.0 * tau - 1e-12:
            state = step_vehicle(state, (sp, 0.0, 0.0), dt, tau=tau)
            t += dt
        v_ref, x_ref = first_order_response(sp, tau, 2.0 * tau)
        assert state.velocity[0] == pytest.approx(v_ref, rel=0.01)
        assert state.position[0] == pytest.approx(x_ref, rel=0.01)

    def test_velocity_approach_is_monotone(self):
        state = VehicleState()
        last = 0.0
        for _ in range(100):
            state = step_vehicle(state, (1.0, 0.0, 0.0), 0.02, tau=0.3)
            assert state.velocity[0] >= last
            last = state.velocity[0]
        assert last <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            step_vehicle(VehicleState(), (0.0, 0.0, 0.0), dt=0.0, tau=0.3)
        with pytest.raises(ConfigError):
            step_vehicle(VehicleState(), (0.0, 0.0, 0.0), dt=0.1, tau=0.0)
        with pytest.raises(InputError):
            step_vehicle(VehicleState(), (float("nan"), 0.0, 0.0), dt=0.1, tau=0.3)
        for dt in (math.nan, math.inf, "0.1"):
            with pytest.raises(InputError, match="dt must be"):
                step_vehicle(VehicleState(), (0.0, 0.0, 0.0), dt=dt, tau=0.3)
        for tau in (math.nan, "a"):
            with pytest.raises(ConfigError, match="tau must be"):
                step_vehicle(VehicleState(), (0.0, 0.0, 0.0), dt=0.1, tau=tau)

    def test_state_validation(self):
        with pytest.raises(InputError):
            VehicleState(position=(float("inf"), 0.0, 0.0))
        for vector in (("x", 0.0, 0.0), 5, "123", (b"1", 0, 0), (True, 0, 0)):
            with pytest.raises(InputError, match="position must be a finite 3-vector"):
                VehicleState(position=vector)


def seen_from(x: float) -> Sphere:
    """A sphere of radius 0.3 at (4, 0, 0), as seen from a vehicle at
    (x, 0, 0)."""
    return Sphere((4.0 - x, 0.0, 0.0), 0.3, 200.0)


class TestCheckCollision:
    def test_far_away_false(self):
        assert not check_collision(seen_from(0.0), margin=0.1)

    def test_at_center_true(self):
        assert check_collision(seen_from(4.0), margin=0.1)

    def test_boundary_inclusive(self):
        assert check_collision(seen_from(4.0 - 0.4), margin=0.1)
        assert not check_collision(seen_from(4.0 - 0.41), margin=0.1)

    def test_sphere_behind_the_camera_false(self):
        assert not check_collision(Sphere((-2.0, 0.0, 0.0), 0.3, 200.0), margin=0.1)

    def test_obstacle_at_is_seen_from_the_vehicle(self):
        # The trial's obstacle at a point within margin of the surface, and
        # at one just outside it, both relative to the vehicle.
        cfg = TrialConfig(placement="centered")
        assert check_collision(cfg.obstacle_at(0.0, (4.0 - 0.4, 0.0, 0.0)), cfg.margin)
        assert not check_collision(cfg.obstacle_at(0.0, (4.0 - 0.41, 0.0, 0.0)), cfg.margin)
        moving = TrialConfig(placement="centered", obstacle_velocity=(-1.0, 0.5, 0.0))
        assert moving.obstacle_at(2.0, (1.0, 1.0, -0.5)).center == (1.0, 0.0, 0.5)

    def test_negative_margin_rejected(self):
        with pytest.raises(InputError):
            check_collision(seen_from(0.0), margin=-0.1)

    def test_nan_margin_rejected(self):
        # At the obstacle's center: a NaN margin must not read as no collision.
        for margin in (math.nan, "0.1"):
            with pytest.raises(InputError, match="margin must be"):
                check_collision(seen_from(4.0), margin=margin)


class TestTrialConfig:
    def test_defaults_valid(self):
        TrialConfig()

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrialConfig(dt=0.0)
        with pytest.raises(ConfigError):
            TrialConfig(max_duration=0.01)
        with pytest.raises(ConfigError):
            TrialConfig(arena=(1.0, -1.0, -3.0, 3.0, -3.0, 3.0))
        with pytest.raises(ConfigError):
            TrialConfig(obstacle_distance=10.0)  # outside the default arena
        with pytest.raises(ConfigError):
            TrialConfig(placement="sideways")
        with pytest.raises(ConfigError):
            TrialConfig(cruise_speed=0.0)
        with pytest.raises(ConfigError, match="noise_seed must be non-negative"):
            TrialConfig(noise_seed=-1)
        # Non-numeric elements, numeric strings and bools as elements, a
        # scalar, a string and an int too large for a float all raise the
        # configuration error, not TypeError or ValueError.
        for vector in (
            (math.nan, 0.0, 0.0),
            (1.0, 0.0),
            ("a", 0, 0),
            ("1.5", True, 0),
            (np.True_, 0, 0),
            5,
            "123",
            (10**400, 0, 0),
        ):
            with pytest.raises(ConfigError, match="obstacle_velocity must be"):
                TrialConfig(obstacle_velocity=vector)
        short, nan = (-1.0, 6.0, -3.0, 3.0, -3.0), (-1.0, 6.0, -3.0, math.nan, -3.0, 3.0)
        for arena in (short, nan, ("a", 6, -3, 3, -3, 3), 5, "090909"):
            with pytest.raises(ConfigError, match="arena must be six finite bounds"):
                TrialConfig(arena=arena)

    def test_step_cap(self):
        # 20 s / 2e-5 s rounds to exactly MAX_STEPS, the largest trial accepted.
        assert round(TrialConfig().max_duration / 2e-5) == MAX_STEPS
        TrialConfig(dt=2e-5)
        with pytest.raises(ConfigError):
            TrialConfig(dt=1.9e-5)

    def test_obstacle_too_far_to_ray_cast(self):
        arena = (-1.0, 1e301, -3.0, 3.0, -3.0, 3.0)
        with pytest.raises(ConfigError, match="too large to ray-cast"):
            TrialConfig(obstacle_distance=1e200, arena=arena)
        # in range at the start, out of range by the end of the trial
        TrialConfig(obstacle_distance=1e150, arena=arena)
        with pytest.raises(ConfigError, match="too large to ray-cast"):
            TrialConfig(
                obstacle_distance=1e150, obstacle_velocity=(1e300, 0, 0), arena=arena
            )

    def test_placement_accepts_strings(self):
        assert TrialConfig(placement="up").placement is Placement.UP

    def test_centered_start_inside_margin_rejected(self):
        # clearance 0.38 - 0.3 = 0.08 from the start, inside the 0.1 margin
        with pytest.raises(ConfigError, match="overlaps the start position"):
            TrialConfig(placement="centered", obstacle_distance=0.38)
        TrialConfig(placement="centered", obstacle_distance=0.41)

    @pytest.mark.parametrize("placement", ["left", "right", "up", "down"])
    def test_offset_start_inside_margin_rejected(self, placement):
        # |(0.35, 0.1)| - 0.3 = 0.064 from the start, inside the 0.1 margin
        with pytest.raises(ConfigError, match="overlaps the start position"):
            TrialConfig(placement=placement, obstacle_distance=0.35, obstacle_offset=0.1)
        # |(0.2, 0.1)| - 0.3 < 0: the start is inside the obstacle
        with pytest.raises(ConfigError, match="overlaps the start position"):
            TrialConfig(placement=placement, obstacle_distance=0.2, obstacle_offset=0.1)
        TrialConfig(placement=placement, obstacle_distance=0.4, obstacle_offset=0.1)

    def test_moving_obstacle_center(self):
        cfg = TrialConfig(placement="centered", obstacle_velocity=(0.0, 0.5, 0.0))
        assert cfg.obstacle_center(0.0)[1] == 0.0
        assert cfg.obstacle_center(2.0)[1] == pytest.approx(1.0)


def _quiet_norm():
    return NormParams(t_s=256.0)


class TestRunTrial:
    def test_each_step_renders_the_sphere_it_then_checks(self, monkeypatch):
        # The obstacle that ends step i, which decides the collision, is the
        # one step i + 1 draws, over the trial's background and noise.
        render, collide = flightsim.render_frame, flightsim.check_collision
        rendered, checked = [], []

        def rendering(obstacle, camera, **kwargs):
            frame = render(obstacle, camera, **kwargs)
            rendered.append((obstacle, frame))
            return frame

        def checking(obstacle, margin):
            checked.append(obstacle)
            return collide(obstacle, margin)

        monkeypatch.setattr(flightsim, "render_frame", rendering)
        monkeypatch.setattr(flightsim, "check_collision", checking)
        run_trial(TrialConfig(background=100.0, noise_amplitude=3.0, max_duration=0.2))
        assert len(rendered) == len(checked) == 10
        assert all(seen is ended for (seen, _), ended in zip(rendered[1:], checked))
        for _, frame in rendered:  # the top row is background and noise
            assert np.abs(frame.luminance[0].astype(int) - 100).max() <= 3
        assert len(np.unique(rendered[0][1].luminance[0])) > 1

    def test_determinism(self):
        cfg = TrialConfig(placement="left", max_duration=6.0)
        a, b = run_trial(cfg), run_trial(cfg)
        assert a.outcome == b.outcome
        assert a.records == b.records

    def test_timestamps_strictly_increasing(self):
        trace = run_trial(TrialConfig(placement="left", max_duration=6.0))
        ts = [r.t for r in trace.records]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_left_right_trajectories_mirror(self):
        left = run_trial(TrialConfig(placement="left"))
        right = run_trial(TrialConfig(placement="right"))
        assert left.outcome == right.outcome
        assert len(left.records) == len(right.records)
        for lr, rr in zip(left.records, right.records):
            assert lr.px == rr.px
            assert lr.py == -rr.py
            assert lr.pz == rr.pz

    def test_speed_never_exceeds_envelope(self):
        cfg = TrialConfig(placement="left")
        trace = run_trial(cfg)
        limit = max(cfg.cruise_speed, cfg.steering.speed_0) + 1e-9
        for rec in trace.records:
            assert math.hypot(rec.vx, rec.vy, rec.vz) <= limit

    def test_obstacle_outside_view_cruises_through(self):
        cfg = TrialConfig(
            placement="up",
            obstacle_offset=5.0,
            arena=(-1.0, 6.0, -3.0, 3.0, -6.0, 6.0),
        )
        trace = run_trial(cfg)
        assert trace.outcome == Outcome.AVOIDED
        assert all(rec.cmd_axis == "" for rec in trace.records)

    def test_disabled_detector_collides_centered(self):
        cfg = TrialConfig(placement="centered", norm=_quiet_norm())
        trace = run_trial(cfg)
        assert trace.outcome == Outcome.COLLIDED
        assert all(rec.spike == 0 for rec in trace.records)

    def test_enabled_detector_avoids_all_offsets(self):
        for placement in ("left", "right", "up", "down"):
            trace = run_trial(TrialConfig(placement=placement))
            assert trace.outcome == Outcome.AVOIDED, placement

    def test_net_displacement_opposes_obstacle(self):
        net_left = run_trial(TrialConfig(placement="left")).net_displacement()
        assert net_left[1] < 0  # obstacle on the left, vehicle went right
        net_up = run_trial(TrialConfig(placement="up")).net_displacement()
        assert net_up[2] < 0  # obstacle above, vehicle went down

    def test_moving_intruder_runs_deterministically(self):
        cfg = TrialConfig(
            placement="left", obstacle_velocity=(0.0, -0.1, 0.0), max_duration=10.0
        )
        a, b = run_trial(cfg), run_trial(cfg)
        assert a.outcome == b.outcome
        assert a.records == b.records
        assert a.outcome in (Outcome.AVOIDED, Outcome.COLLIDED, Outcome.TIMEOUT)


class TestTraceCsv:
    def test_roundtrip_schema(self, tmp_path):
        trace = run_trial(TrialConfig(placement="left", max_duration=4.0))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == len(trace.records) + 1
        assert "\r" not in text
        first = lines[1].split(",")
        assert len(first) == len(TRACE_COLUMNS)
        assert first[0] == "0"

    def test_net_displacement_empty_trace(self):
        trace = TrialTrace(records=(), outcome=Outcome.TIMEOUT, final_state=VehicleState())
        assert trace.net_displacement() == (0.0, 0.0, 0.0)
