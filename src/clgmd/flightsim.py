"""Point-mass quadcopter closed with the collision detector.

The vehicle cruises along +x toward a spherical obstacle while rendering
the scene from its own camera every step.  A confirmed collision picks an
escape setpoint that replaces cruise for a fixed hold; re-confirmation
during the hold restarts it with the freshly selected direction.  The
camera keeps its +x heading, so body-frame setpoints are world-frame
velocities.  The trial ends when the vehicle hits the obstacle, leaves
the arena, or runs out of time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .competition import SIDE_UNIT, NormParams, Quadrant
from .detector import CollisionDetector
from .errors import ConfigError, InputError
from .layers import CoreParams
from .pgm import write_csv
from .steering import EscapeCommand, SteeringParams, command_to_setpoint, select_escape
from .stimulus import (
    CameraModel,
    Scene,
    Sphere,
    check_reach,
    finite_vec3,
    render_frame,
)

Vec3 = tuple[float, float, float]

# A trial renders and detects one frame per step, so the step count bounds
# its run time; a tiny dt would otherwise run for hours and write nothing.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class VehicleState:
    position: Vec3 = (0.0, 0.0, 0.0)
    velocity: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("position", "velocity"):
            vec = finite_vec3(getattr(self, name), name, InputError)
            object.__setattr__(self, name, vec)


def step_vehicle(
    state: VehicleState, setpoint: Vec3, dt: float, tau: float
) -> VehicleState:
    """First-order velocity tracking followed by position integration.

    The velocity moves a fraction dt/tau of the way to the setpoint, capped
    at 1 so a coarse step lands exactly on the setpoint instead of ringing;
    the position then integrates the updated velocity.
    """
    if dt <= 0:
        raise InputError(f"dt must be positive, got {dt}")
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    sp = finite_vec3(setpoint, "setpoint", InputError)
    alpha = min(dt / tau, 1.0)
    vel = tuple(v + (s - v) * alpha for v, s in zip(state.velocity, sp))
    pos = tuple(p + v * dt for p, v in zip(state.position, vel))
    return VehicleState(position=pos, velocity=vel)


def check_collision(state: VehicleState, scene: Scene, margin: float) -> bool:
    """True iff the vehicle is within margin of any object's surface."""
    if margin < 0:
        raise InputError(f"margin must be non-negative, got {margin}")
    point = np.asarray(state.position, dtype=np.float64)
    return any(obj.clearance(point) <= margin for obj in scene.objects)


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

    cruise_speed: float = 1.0
    placement: Placement = Placement.LEFT
    obstacle_distance: float = 4.0
    obstacle_radius: float = 0.3
    obstacle_offset: float = 0.25
    obstacle_velocity: Vec3 = (0.0, 0.0, 0.0)
    obstacle_luminance: float = 224.0
    background: float = Scene.background
    noise_amplitude: float = 0.0
    noise_seed: int = 0
    arena: tuple[float, float, float, float, float, float] = (
        -1.0,
        6.0,
        -3.0,
        3.0,
        -3.0,
        3.0,
    )
    dt: float = 0.02
    max_duration: float = 20.0
    margin: float = 0.1
    tau: float = 0.3
    camera: CameraModel = field(default_factory=CameraModel)
    core: CoreParams = field(default_factory=CoreParams)
    norm: NormParams | None = None
    steering: SteeringParams = field(default_factory=SteeringParams)

    def __post_init__(self) -> None:
        if isinstance(self.placement, str):
            try:
                object.__setattr__(self, "placement", Placement(self.placement))
            except ValueError:
                names = "/".join(p.value for p in Placement)
                raise ConfigError(
                    f"unknown placement {self.placement!r}; choose from {names}"
                ) from None
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.max_duration <= self.dt:
            raise ConfigError("max_duration must exceed the time step")
        if not math.isfinite(self.max_duration / self.dt):
            raise ConfigError(
                f"max_duration must be finite in steps of dt, got "
                f"{self.max_duration} / {self.dt}"
            )
        steps = round(self.max_duration / self.dt)
        if steps > MAX_STEPS:
            raise ConfigError(
                f"max_duration / dt is {steps} steps; at most {MAX_STEPS} allowed"
            )
        if self.cruise_speed <= 0:
            raise ConfigError(f"cruise_speed must be positive, got {self.cruise_speed}")
        if self.obstacle_distance <= 0:
            raise ConfigError(
                f"obstacle_distance must be positive, got {self.obstacle_distance}"
            )
        if self.obstacle_radius <= 0:
            raise ConfigError(
                f"obstacle_radius must be positive, got {self.obstacle_radius}"
            )
        if self.obstacle_offset < 0:
            raise ConfigError(
                f"obstacle_offset must be non-negative, got {self.obstacle_offset}"
            )
        if self.margin < 0:
            raise ConfigError(f"margin must be non-negative, got {self.margin}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        velocity = finite_vec3(self.obstacle_velocity, "obstacle_velocity")
        object.__setattr__(self, "obstacle_velocity", velocity)
        if len(self.arena) != 6 or not all(math.isfinite(v) for v in self.arena):
            raise ConfigError(f"arena must be six finite bounds, got {self.arena!r}")
        xmin, xmax, ymin, ymax, zmin, zmax = self.arena
        if not (xmin < xmax and ymin < ymax and zmin < zmax):
            raise ConfigError(f"arena bounds are inverted: {self.arena}")
        cx, cy, cz = self.obstacle_center()
        if not (xmin <= cx <= xmax and ymin <= cy <= ymax and zmin <= cz <= zmax):
            raise ConfigError(
                f"obstacle center {(cx, cy, cz)} lies outside the arena {self.arena}"
            )
        if self.noise_seed < 0:
            raise ConfigError(f"noise_seed must be non-negative, got {self.noise_seed}")
        # The obstacle moves linearly, so its offset from the start is
        # largest at one end of the trial.
        for t in (0.0, self.max_duration):
            center = self.obstacle_center(t)
            offset = tuple(c - p for c, p in zip(center, self.camera.position))
            check_reach(offset, self.obstacle_radius, self.camera)
        (sphere,) = self.scene_at(0.0).objects
        gap = sphere.clearance(np.asarray(self.camera.position))
        if gap <= self.margin:
            raise ConfigError(
                f"obstacle overlaps the start position: its clearance {gap:.3f} "
                f"is within the margin {self.margin}"
            )

    def obstacle_center(self, t: float = 0.0) -> Vec3:
        """Obstacle center at time t, placed relative to the start position."""
        if self.placement is Placement.CENTERED:
            ox, oy, oz = 0.0, 0.0, 0.0
        else:
            ox, oy, oz = SIDE_UNIT[Quadrant[self.placement.name]]
        vx, vy, vz = self.obstacle_velocity
        sx, sy, sz = self.camera.position
        return (
            sx + self.obstacle_distance + ox * self.obstacle_offset + vx * t,
            sy + oy * self.obstacle_offset + vy * t,
            sz + oz * self.obstacle_offset + vz * t,
        )

    def scene_at(self, t: float) -> Scene:
        sphere = Sphere(
            center=self.obstacle_center(t),
            radius=self.obstacle_radius,
            luminance=self.obstacle_luminance,
        )
        return Scene(
            objects=(sphere,),
            background=self.background,
            noise_amplitude=self.noise_amplitude,
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

    The obstacle scene at the end of step i is the one for t = (i+1)·dt: it
    decides the collision and the arena exit, and step i+1 renders it.
    """
    camera0 = config.camera
    detector = CollisionDetector(
        camera0.width, camera0.height, core=config.core, norm=config.norm
    )
    state = VehicleState(
        position=camera0.position, velocity=(config.cruise_speed, 0.0, 0.0)
    )
    records: list[TrialRecord] = []
    outcome = Outcome.TIMEOUT
    command: EscapeCommand | None = None
    command_started = 0.0
    was_confirmed = False
    scene = config.scene_at(0.0)
    steps = int(round(config.max_duration / config.dt))
    xmin, xmax, ymin, ymax, zmin, zmax = config.arena
    for i in range(steps):
        t = i * config.dt
        camera = replace(camera0, position=state.position)
        frame = render_frame(scene, camera, index=i, seed=config.noise_seed)
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
        scene = config.scene_at((i + 1) * config.dt)
        if check_collision(state, scene, config.margin):
            outcome = Outcome.COLLIDED
            break
        px, py, pz = state.position
        if not (xmin <= px <= xmax and ymin <= py <= ymax and zmin <= pz <= zmax):
            passed = px > scene.objects[0].center[0]
            outcome = Outcome.AVOIDED if passed else Outcome.TIMEOUT
            break
    return TrialTrace(records=tuple(records), outcome=outcome, final_state=state)


def write_trace_csv(trace: TrialTrace, path) -> None:
    """CSV trace, one row per frame, LF line endings, header included."""
    verbatim = ("frame", "spike", "confirmed", "cmd_axis")
    write_csv(path, TRACE_COLUMNS, trace.records, verbatim=verbatim)
