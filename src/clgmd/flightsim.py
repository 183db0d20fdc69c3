"""Point-mass quadcopter closed with the collision detector.

The vehicle starts at the origin and cruises along +x toward a spherical
obstacle, rendering it from its own camera every step.  The camera keeps
its +x heading, so body-frame setpoints are world-frame velocities, and
the sphere it sees is the obstacle shifted by the vehicle's position: its
center relative to the vehicle.  A confirmed collision picks an escape
setpoint that replaces cruise for a fixed hold; re-confirmation during
the hold restarts it with the freshly selected direction.  The trial ends
when the vehicle hits the obstacle, leaves the arena, or runs out of
time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Annotated, NamedTuple

from .competition import SIDE_UNIT, NormParams, Quadrant
from .detector import CollisionDetector
from .errors import (
    Amplitude, ConfigError, Count, InputError, Kind, Luminance, NonNegative, Positive, Vec3,
    check_fields, check_value,
)
from .layers import CoreParams
from .pgm import write_csv
from .steering import EscapeCommand, SteeringParams, command_to_setpoint, select_escape
from .stimulus import BACKGROUND, CameraModel, Sphere, check_reach, render_frame

# (xmin, xmax, ymin, ymax, zmin, zmax)
_Arena = Annotated[tuple[float, ...], Kind("be six finite bounds", size=6)]

# A trial renders and detects one frame per step, so the step count bounds
# its run time; a tiny dt would otherwise run for hours and write nothing.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class VehicleState:
    position: Vec3 = (0.0, 0.0, 0.0)
    velocity: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        check_fields(self, InputError)


def step_vehicle(
    state: VehicleState, setpoint: Vec3, dt: float, tau: float
) -> VehicleState:
    """First-order velocity tracking followed by position integration.

    The velocity moves a fraction dt/tau of the way to the setpoint, capped
    at 1 so a coarse step lands exactly on the setpoint instead of ringing;
    the position then integrates the updated velocity.
    """
    check_value("dt", Positive, dt, InputError)
    check_value("tau", Positive, tau, ConfigError)
    sp = check_value("setpoint", Vec3, setpoint, InputError)
    alpha = min(dt / tau, 1.0)
    vel = tuple(v + (s - v) * alpha for v, s in zip(state.velocity, sp))
    pos = tuple(p + v * dt for p, v in zip(state.position, vel))
    return VehicleState(position=pos, velocity=vel)


def check_collision(obstacle: Sphere, margin: float) -> bool:
    """True iff the vehicle, at the origin of the camera frame ``obstacle``
    is given in, is within margin of its surface."""
    obstacle = check_value("obstacle", Sphere, obstacle, InputError)
    check_value("margin", NonNegative, margin, InputError)
    return obstacle.clearance() <= margin


class Placement(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    UP = "up"
    DOWN = "down"
    CENTERED = "centered"


class Outcome(enum.Enum):
    AVOIDED = "AVOIDED"
    COLLIDED = "COLLIDED"
    TIMEOUT = "TIMEOUT"


@dataclass(frozen=True)
class TrialConfig:
    """Everything a closed-loop trial needs, obstacles through detector."""

    cruise_speed: Positive = 1.0
    placement: Placement = Placement.LEFT
    obstacle_distance: Positive = 4.0
    obstacle_radius: Positive = 0.3
    obstacle_offset: NonNegative = 0.25
    obstacle_velocity: Vec3 = (0.0, 0.0, 0.0)
    obstacle_luminance: Luminance = 224.0
    background: Luminance = BACKGROUND
    noise_amplitude: Amplitude = 0.0
    noise_seed: Count = 0
    arena: _Arena = (-1.0, 6.0, -3.0, 3.0, -3.0, 3.0)
    dt: Positive = 0.02
    max_duration: Positive = 20.0
    margin: NonNegative = 0.1
    tau: Positive = 0.3
    camera: CameraModel = field(default_factory=CameraModel)
    core: CoreParams = field(default_factory=CoreParams)
    norm: NormParams = field(default_factory=NormParams)
    steering: SteeringParams = field(default_factory=SteeringParams)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_duration <= self.dt:
            raise ConfigError("max_duration must exceed the time step")
        if not math.isfinite(self.max_duration / self.dt):
            raise ConfigError(
                f"max_duration must be finite in steps of dt, got "
                f"{self.max_duration} / {self.dt}"
            )
        steps = self.max_duration / self.dt
        if round(steps) > MAX_STEPS:
            raise ConfigError(
                f"max_duration / dt is {steps:.6g} steps; at most {MAX_STEPS} allowed"
            )
        xmin, xmax, ymin, ymax, zmin, zmax = self.arena
        if not (xmin < xmax and ymin < ymax and zmin < zmax):
            raise ConfigError(f"arena bounds are inverted: {self.arena}")
        cx, cy, cz = self.obstacle_center()
        if not (xmin <= cx <= xmax and ymin <= cy <= ymax and zmin <= cz <= zmax):
            raise ConfigError(
                f"obstacle center {(cx, cy, cz)} lies outside the arena {self.arena}"
            )
        # The obstacle moves linearly, so its offset from the start is
        # largest at one end of the trial.
        ends = [self.obstacle_center(t) for t in (0.0, self.max_duration)]
        for center in ends:
            check_reach(center, self.obstacle_radius, self.camera)
        # step_vehicle moves the velocity at most onto its setpoint, so no
        # component outruns the faster setpoint speed; max_duration + dt
        # covers the rounded step count.
        speed, name = max(
            (self.cruise_speed, "cruise_speed"), (self.steering.speed_0, "speed_0")
        )
        travel = speed * (self.max_duration + self.dt)
        farthest = [max(abs(a), abs(b)) + travel for a, b in zip(*ends)]
        try:
            check_reach(farthest, self.obstacle_radius, self.camera)
        except ConfigError as exc:
            raise ConfigError(
                f"{name}={speed} can carry the vehicle too far within "
                f"max_duration={self.max_duration}: {exc}"
            ) from None
        gap = self.obstacle_at(0.0, VehicleState().position).clearance()
        if gap <= self.margin:
            raise ConfigError(
                f"obstacle overlaps the start position: its clearance {gap:.6g} "
                f"is within the margin {self.margin}"
            )

    def obstacle_center(self, t: float = 0.0) -> Vec3:
        """Obstacle center at time t; the vehicle starts at the origin."""
        if self.placement is Placement.CENTERED:
            ox, oy, oz = 0.0, 0.0, 0.0
        else:
            ox, oy, oz = SIDE_UNIT[Quadrant[self.placement.name]]
        vx, vy, vz = self.obstacle_velocity
        return (
            self.obstacle_distance + ox * self.obstacle_offset + vx * t,
            oy * self.obstacle_offset + vy * t,
            oz * self.obstacle_offset + vz * t,
        )

    def obstacle_at(self, t: float, position: Vec3) -> Sphere:
        """The obstacle at time t as seen from a vehicle at ``position``."""
        return Sphere(
            center=tuple(c - p for c, p in zip(self.obstacle_center(t), position)),
            radius=self.obstacle_radius,
            luminance=self.obstacle_luminance,
        )


class TrialRecord(NamedTuple):
    """One row of the closed-loop trace (state at render time); the field
    names are the trace CSV columns."""

    frame: int
    t: float
    px: float
    py: float
    pz: float
    vx: float
    vy: float
    vz: float
    kappa: float
    u: float
    d: float
    l: float
    r: float
    spike: int
    confirmed: int
    cmd_axis: str
    cmd_value: float
    cmd_remaining: float


TRACE_COLUMNS = TrialRecord._fields


@dataclass(frozen=True)
class TrialTrace:
    records: tuple[TrialRecord, ...]
    outcome: Outcome
    final_state: VehicleState

    def net_displacement(self) -> Vec3:
        if not self.records:
            return (0.0, 0.0, 0.0)
        first = self.records[0]
        x, y, z = self.final_state.position
        return (x - first.px, y - first.py, z - first.pz)


def run_trial(config: TrialConfig) -> TrialTrace:
    """Render, detect, steer and integrate until the trial resolves.

    The obstacle at the end of step i is the one for t = (i+1)·dt, seen
    from where the step left the vehicle: it decides the collision and the
    arena exit, and step i+1 renders it.
    """
    camera = config.camera
    detector = CollisionDetector(core=config.core, norm=config.norm)
    state = VehicleState(velocity=(config.cruise_speed, 0.0, 0.0))
    records: list[TrialRecord] = []
    outcome = Outcome.TIMEOUT
    command: EscapeCommand | None = None
    command_started = 0.0
    was_confirmed = False
    obstacle = config.obstacle_at(0.0, state.position)
    steps = int(round(config.max_duration / config.dt))
    xmin, xmax, ymin, ymax, zmin, zmax = config.arena
    for i in range(steps):
        t = i * config.dt
        frame = render_frame(
            obstacle, camera, index=i, seed=config.noise_seed,
            background=config.background, noise_amplitude=config.noise_amplitude,
        )
        result = detector.process(frame)
        # A new confirmation is the flag rising, not merely staying set:
        # ego-motion keeps the detector excited through the whole dodge, so
        # re-arming on every confirmed frame would never hand back cruise.
        now_confirmed = result is not None and result.confirmed
        if now_confirmed and not was_confirmed:
            command = select_escape(result.potentials, config.steering)
            command_started = t
        was_confirmed = now_confirmed
        elapsed = t - command_started
        if command is not None and elapsed < command.duration:
            setpoint = command_to_setpoint(command, elapsed)
            held = (command.axis.value, command.value, command.duration - elapsed)
        else:
            command = None
            setpoint = (config.cruise_speed, 0.0, 0.0)
            held = ("", 0.0, 0.0)
        cells = (0.0,) * 5 + (0, 0) if result is None else result.cells()
        row = (i, t, *state.position, *state.velocity, *cells, *held)
        records.append(TrialRecord(*row))
        state = step_vehicle(state, setpoint, config.dt, tau=config.tau)
        obstacle = config.obstacle_at((i + 1) * config.dt, state.position)
        if check_collision(obstacle, config.margin):
            outcome = Outcome.COLLIDED
            break
        px, py, pz = state.position
        if not (xmin <= px <= xmax and ymin <= py <= ymax and zmin <= pz <= zmax):
            passed = obstacle.center[0] < 0.0
            outcome = Outcome.AVOIDED if passed else Outcome.TIMEOUT
            break
    return TrialTrace(records=tuple(records), outcome=outcome, final_state=state)


def write_trace_csv(trace: TrialTrace, path) -> None:
    """CSV trace, one row per frame, LF line endings, header included."""
    verbatim = ("frame", "spike", "confirmed", "cmd_axis")
    write_csv(path, TRACE_COLUMNS, trace.records, verbatim=verbatim)
