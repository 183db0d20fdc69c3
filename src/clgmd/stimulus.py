"""Synthetic grayscale stimuli: looming, receding and side-entry approaches.

A pinhole camera looks along +x (+y left, +z up).  Scenes hold flat
shaded primitives; a pixel takes an object's luminance exactly when the
ray through the pixel center hits it, nearest object first.  Scenario
builders move a sphere along a straight constant-bearing line toward the
camera so the silhouette expands in place inside one quadrant of the
field of view.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .layers import Frame

DEFAULT_NOISE_AMPLITUDE = 5.0


class Direction(enum.Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"
    HEAD_ON = "head_on"


def finite_vec3(value, name: str, error=ConfigError) -> tuple[float, float, float]:
    """``value`` as a tuple of three finite floats, else ``error``."""
    vec = tuple(float(v) for v in value)
    if len(vec) != 3 or not all(math.isfinite(v) for v in vec):
        raise error(f"{name} must be a finite 3-vector, got {value!r}")
    return vec


def _check_luminance(value: float, name: str) -> None:
    if not 0.0 <= value <= 255.0:
        raise ConfigError(f"{name} must lie in [0, 255], got {value}")


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    luminance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", finite_vec3(self.center, "center"))
        if self.radius <= 0:
            raise ConfigError(f"radius must be positive, got {self.radius}")
        _check_luminance(self.luminance, "luminance")

    def clearance(self, point: np.ndarray) -> float:
        """Signed distance from ``point`` to the surface, negative inside."""
        return float(np.linalg.norm(np.asarray(self.center) - point)) - self.radius

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter of the nearest forward hit per pixel, inf on miss."""
        rel = np.asarray(self.center, dtype=np.float64) - origin
        a = np.einsum("hwk,hwk->hw", dirs, dirs)
        b = -2.0 * (dirs @ rel)
        c0 = float(rel @ rel) - self.radius**2
        disc = b * b - 4.0 * a * c0
        hit = disc >= 0.0
        t = np.full(a.shape, np.inf)
        root = np.sqrt(np.where(hit, disc, 0.0))
        near = (-b - root) / (2.0 * a)
        valid = hit & (near > 0.0)
        t[valid] = near[valid]
        return t


@dataclass(frozen=True)
class Box:
    center: tuple[float, float, float]
    size: tuple[float, float, float]
    luminance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", finite_vec3(self.center, "center"))
        object.__setattr__(self, "size", finite_vec3(self.size, "size"))
        if any(s <= 0 for s in self.size):
            raise ConfigError(f"box size must be positive, got {self.size}")
        _check_luminance(self.luminance, "luminance")

    def clearance(self, point: np.ndarray) -> float:
        """Signed distance from ``point`` to the surface, negative inside."""
        excess = np.abs(np.asarray(self.center) - point) - np.asarray(self.size) / 2.0
        outside = float(np.linalg.norm(np.maximum(excess, 0.0)))
        return outside + min(float(excess.max()), 0.0)

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.center) - np.asarray(self.size) / 2.0
        hi = np.asarray(self.center) + np.asarray(self.size) / 2.0
        t_near = np.full(dirs.shape[:2], -np.inf)
        t_far = np.full(dirs.shape[:2], np.inf)
        ok = np.ones(dirs.shape[:2], dtype=bool)
        for axis in range(3):
            d = dirs[..., axis]
            nonzero = d != 0.0
            if not lo[axis] <= origin[axis] <= hi[axis]:
                ok &= nonzero
            safe = np.where(nonzero, d, 1.0)
            t1 = (lo[axis] - origin[axis]) / safe
            t2 = (hi[axis] - origin[axis]) / safe
            t_near = np.maximum(t_near, np.where(nonzero, np.minimum(t1, t2), -np.inf))
            t_far = np.minimum(t_far, np.where(nonzero, np.maximum(t1, t2), np.inf))
        hit = ok & (t_near <= t_far) & (t_far > 0.0)
        t = np.where(t_near > 0.0, t_near, t_far)
        return np.where(hit, t, np.inf)


Primitive = Sphere | Box


@dataclass(frozen=True)
class Scene:
    """Flat-shaded primitives over a uniform background."""

    objects: tuple[Primitive, ...] = ()
    background: float = 32.0
    noise_amplitude: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        for obj in self.objects:
            if not isinstance(obj, Primitive):
                raise ConfigError(f"unsupported obstacle type: {type(obj).__name__}")
        _check_luminance(self.background, "background")
        if self.noise_amplitude < 0:
            raise ConfigError(
                f"noise_amplitude must be non-negative, got {self.noise_amplitude}"
            )


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera looking along +x, with +y left and +z up."""

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    hfov: float = math.radians(90.0)
    width: int = 100
    height: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", finite_vec3(self.position, "position"))
        if not 0.0 < self.hfov < math.pi:
            raise ConfigError(f"hfov must lie in (0, pi), got {self.hfov}")
        if self.width < 5 or self.height < 5:
            raise ConfigError(
                f"resolution must be at least 5x5, got {self.width}x{self.height}"
            )

    @property
    def focal_px(self) -> float:
        return (self.width / 2.0) / math.tan(self.hfov / 2.0)

    def project(self, point_world) -> tuple[float, float] | None:
        """(column, row) of a world point, or None if it is not in front."""
        rel = np.asarray(point_world, dtype=np.float64) - np.asarray(self.position)
        x, y, z = rel
        if x <= 0:
            return None
        cx, cy = (self.width - 1) / 2.0, (self.height - 1) / 2.0
        return (cx - self.focal_px * y / x, cy - self.focal_px * z / x)


@functools.lru_cache(maxsize=8)
def _ray_grid(width: int, height: int, hfov: float) -> np.ndarray:
    """Per-pixel ray directions (unit forward component)."""
    f = (width / 2.0) / math.tan(hfov / 2.0)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    cols = np.arange(width, dtype=np.float64)
    rows = np.arange(height, dtype=np.float64)
    y = (cx - cols)[None, :] / f
    z = (cy - rows)[:, None] / f
    dirs = np.empty((height, width, 3))
    dirs[..., 0] = 1.0
    dirs[..., 1] = np.broadcast_to(y, (height, width))
    dirs[..., 2] = np.broadcast_to(z, (height, width))
    dirs.setflags(write=False)
    return dirs


def render_frame(
    scene: Scene, camera: CameraModel, index: int = 0, seed: int | None = None
) -> Frame:
    """Render one frame; noise (if any) is keyed by (seed, index)."""
    origin = np.asarray(camera.position, dtype=np.float64)
    for obj in scene.objects:
        if obj.clearance(origin) < 0:
            raise InputError(f"camera at {camera.position} is inside {obj!r}")
    dirs = _ray_grid(camera.width, camera.height, camera.hfov)
    img = np.full((camera.height, camera.width), scene.background, dtype=np.float64)
    best_t = np.full(img.shape, np.inf)
    for obj in scene.objects:
        t = obj.intersect(origin, dirs)
        closer = t < best_t
        img[closer] = obj.luminance
        best_t = np.minimum(best_t, t)
    if scene.noise_amplitude > 0.0:
        rng = np.random.default_rng((seed if seed is not None else 0, index))
        img += rng.uniform(
            -scene.noise_amplitude, scene.noise_amplitude, size=img.shape
        )
    return Frame(index=index, luminance=np.clip(img, 0.0, 255.0))


@dataclass(frozen=True)
class ScenarioSpec:
    """A single looming trial: one sphere approaching the camera.

    ``direction`` names the side of the view the object occupies while it
    looms; HEAD_ON puts it on the optical axis.  Negative ``speed`` plays
    the approach backwards (a receding object).  ``entry_fraction`` places
    the bearing at that fraction of the half field of view.
    """

    direction: Direction = Direction.HEAD_ON
    speed: float = 1.2
    distance: float = 4.0
    fps: float = 50.0
    frames: int = 120
    seed: int = 0
    object_radius: float = 0.35
    object_luminance: float = 224.0
    background: float = 32.0
    noise_amplitude: float = 0.0
    entry_fraction: float = 0.8

    def __post_init__(self) -> None:
        if isinstance(self.direction, str):
            object.__setattr__(self, "direction", Direction(self.direction))
        if self.speed == 0:
            raise ConfigError("speed must be nonzero")
        if self.distance <= 0:
            raise ConfigError(f"distance must be positive, got {self.distance}")
        if self.fps <= 0:
            raise ConfigError(f"fps must be positive, got {self.fps}")
        if self.frames < 0:
            raise ConfigError(f"frames must be non-negative, got {self.frames}")
        if self.object_radius <= 0:
            raise ConfigError(f"object_radius must be positive, got {self.object_radius}")
        _check_luminance(self.object_luminance, "object_luminance")
        _check_luminance(self.background, "background")
        if self.noise_amplitude < 0:
            raise ConfigError(
                f"noise_amplitude must be non-negative, got {self.noise_amplitude}"
            )
        if not 0.0 < self.entry_fraction < 1.0:
            raise ConfigError(
                f"entry_fraction must lie in (0, 1), got {self.entry_fraction}"
            )


def _start_position(
    spec: ScenarioSpec, camera: CameraModel, rng: np.random.Generator
) -> np.ndarray:
    """Initial sphere center with seed jitter drawn in direction-local axes.

    The jitter is applied before the mirror sign flip, so LEFT and RIGHT
    (or UP and DOWN) specs sharing a seed start at exact mirror images.
    """
    half_h = spec.entry_fraction * math.tan(camera.hfov / 2.0)
    vfov_half = math.atan((camera.height / 2.0) / camera.focal_px)
    half_v = spec.entry_fraction * math.tan(vfov_half)
    bearing_jitter = rng.uniform(0.85, 1.0)
    ortho_jitter = rng.uniform(-0.25, 0.25)
    x = spec.distance
    if spec.direction is Direction.HEAD_ON:
        return np.array([x, 0.0, 0.0])
    if spec.direction in (Direction.LEFT, Direction.RIGHT):
        lateral = x * half_h * bearing_jitter
        ortho = x * math.tan(vfov_half) * 0.25 * ortho_jitter
        sign = 1.0 if spec.direction is Direction.LEFT else -1.0
        return np.array([x, sign * lateral, ortho])
    vertical = x * half_v * bearing_jitter
    ortho = x * math.tan(camera.hfov / 2.0) * 0.25 * ortho_jitter
    sign = 1.0 if spec.direction is Direction.UP else -1.0
    return np.array([x, ortho, sign * vertical])


def make_scenario(
    spec: ScenarioSpec, camera: CameraModel | None = None
) -> list[Scene]:
    """Per-frame scenes for a straight constant-bearing approach.

    The sphere travels from its start point directly toward the camera
    position and parks at a small standoff just outside its own radius,
    so the silhouette expands without the camera ever entering the object.
    """
    camera = camera if camera is not None else CameraModel()
    rng = np.random.default_rng(spec.seed)
    start = _start_position(spec, camera, rng)
    speed = spec.speed * rng.uniform(0.9, 1.1)
    standoff = spec.object_radius * 1.05
    if spec.distance <= standoff:
        raise InputError(
            f"start distance {spec.distance} is inside the standoff {standoff:.3f}"
        )
    origin = np.asarray(camera.position, dtype=np.float64)
    span = float(np.linalg.norm(start))
    toward = -start / span
    scenes = []
    for i in range(spec.frames):
        travel = speed * i / spec.fps
        travel = min(travel, span - standoff)
        center = origin + (start + toward * travel)
        sphere = Sphere(
            center=tuple(center),
            radius=spec.object_radius,
            luminance=spec.object_luminance,
        )
        scenes.append(
            Scene(
                objects=(sphere,),
                background=spec.background,
                noise_amplitude=spec.noise_amplitude,
            )
        )
    return scenes


def generate_sequence(
    spec: ScenarioSpec, camera: CameraModel | None = None
) -> list[Frame]:
    camera = camera if camera is not None else CameraModel()
    scenes = make_scenario(spec, camera)
    return [
        render_frame(scene, camera, index=i, seed=spec.seed)
        for i, scene in enumerate(scenes)
    ]
