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

import numpy as np

from .competition import NormParams
from .detector import CollisionDetector
from .errors import ConfigError, InputError
from .layers import CoreParams
from .pgm import write_csv
from .steering import EscapeCommand, SteeringParams, command_to_setpoint, select_escape
from .stimulus import CameraModel, Scene, Sphere, finite_vec3, render_frame

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
    state: VehicleState, setpoint: Vec3, dt: float, tau: float = 0.3
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


_PLACEMENT_DIRS: dict[Placement, Vec3] = {
    Placement.LEFT: (0.0, 1.0, 0.0),
    Placement.RIGHT: (0.0, -1.0, 0.0),
    Placement.UP: (0.0, 0.0, 1.0),
    Placement.DOWN: (0.0, 0.0, -1.0),
    Placement.CENTERED: (0.0, 0.0, 0.0),
}


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
    background: float = 32.0
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
        velocity = finite_vec3(self.obstacle_velocity, "obstacle_velocity", InputError)
        object.__setattr__(self, "obstacle_velocity", velocity)
        xmin, xmax, ymin, ymax, zmin, zmax = self.arena
        if not (xmin < xmax and ymin < ymax and zmin < zmax):
            raise ConfigError(f"arena bounds are inverted: {self.arena}")
        cx, cy, cz = self.obstacle_center()
        if not (xmin <= cx <= xmax and ymin <= cy <= ymax and zmin <= cz <= zmax):
            raise ConfigError(
                f"obstacle center {(cx, cy, cz)} lies outside the arena {self.arena}"
            )
        start_gap = self.obstacle_distance - self.obstacle_radius - self.margin
        if self.placement is Placement.CENTERED and start_gap <= 0:
            raise ConfigError("obstacle overlaps the start position")

    def obstacle_center(self, t: float = 0.0) -> Vec3:
        """Obstacle center at time t, placed relative to the start position."""
        ox, oy, oz = _PLACEMENT_DIRS[self.placement]
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


@dataclass(frozen=True)
class TrialRecord:
    """One row of the closed-loop trace (state at render time)."""

    frame: int
    t: float
    position: Vec3
    velocity: Vec3
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


@dataclass(frozen=True)
class TrialTrace:
    records: tuple[TrialRecord, ...]
    outcome: Outcome
    final_state: VehicleState

    def net_displacement(self) -> Vec3:
        if not self.records:
            return (0.0, 0.0, 0.0)
        first = self.records[0].position
        last = self.final_state.position
        return (last[0] - first[0], last[1] - first[1], last[2] - first[2])

    def escape_count(self) -> int:
        """Number of fresh confirmations (confirmed flag rising edges)."""
        count = 0
        previous = 0
        for rec in self.records:
            if rec.confirmed and not previous:
                count += 1
            previous = rec.confirmed
        return count


def run_trial(config: TrialConfig) -> TrialTrace:
    """Render, detect, steer and integrate until the trial resolves."""
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
    steps = int(round(config.max_duration / config.dt))
    xmin, xmax, ymin, ymax, zmin, zmax = config.arena
    for i in range(steps):
        t = i * config.dt
        scene = config.scene_at(t)
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
        if command is not None:
            elapsed = t - command_started
            if elapsed >= command.duration:
                command = None
        if command is not None:
            setpoint = command_to_setpoint(command, t - command_started)
            remaining = command.duration - (t - command_started)
        else:
            setpoint = (config.cruise_speed, 0.0, 0.0)
            remaining = 0.0
        if result is None:
            kappa = u = d = l = r = 0.0
            spike = confirmed = 0
        else:
            p = result.potentials
            kappa, (u, d, l, r) = p.kappa, p.as_tuple()
            spike, confirmed = int(result.spike), int(result.confirmed)
        records.append(
            TrialRecord(
                frame=i,
                t=t,
                position=state.position,
                velocity=state.velocity,
                kappa=kappa,
                u=u,
                d=d,
                l=l,
                r=r,
                spike=spike,
                confirmed=confirmed,
                cmd_axis=command.axis.value if command is not None else "",
                cmd_value=command.value if command is not None else 0.0,
                cmd_remaining=remaining,
            )
        )
        state = step_vehicle(state, setpoint, config.dt, tau=config.tau)
        scene_after = config.scene_at(t + config.dt)
        if check_collision(state, scene_after, config.margin):
            outcome = Outcome.COLLIDED
            break
        px, py, pz = state.position
        if not (xmin <= px <= xmax and ymin <= py <= ymax and zmin <= pz <= zmax):
            obstacle_x = config.obstacle_center(t + config.dt)[0]
            outcome = Outcome.AVOIDED if px > obstacle_x else Outcome.TIMEOUT
            break
    return TrialTrace(records=tuple(records), outcome=outcome, final_state=state)


TRACE_COLUMNS = (
    "frame,t,px,py,pz,vx,vy,vz,kappa,u,d,l,r,spike,confirmed,"
    "cmd_axis,cmd_value,cmd_remaining"
).split(",")


def write_trace_csv(trace: TrialTrace, path) -> None:
    """CSV trace, one row per frame, LF line endings, header included."""
    rows = (
        (
            rec.frame,
            rec.t,
            *rec.position,
            *rec.velocity,
            rec.kappa,
            rec.u,
            rec.d,
            rec.l,
            rec.r,
            rec.spike,
            rec.confirmed,
            rec.cmd_axis,
            rec.cmd_value,
            rec.cmd_remaining,
        )
        for rec in trace.records
    )
    verbatim = ("frame", "spike", "confirmed", "cmd_axis")
    write_csv(path, TRACE_COLUMNS, rows, verbatim=verbatim)
