"""Synthetic grayscale stimuli: looming, receding and side-entry approaches.

A pinhole camera looks along +x (+y left, +z up).  Scenes hold flat
shaded spheres; a pixel takes an object's luminance exactly when the
ray through the pixel center hits it, nearest object first.  Scenario
builders move a sphere along a straight constant-bearing line toward the
camera so the silhouette expands in place inside one quadrant of the
field of view.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .competition import SIDE_UNIT, Quadrant
from .errors import ConfigError, InputError
from .layers import Frame

DEFAULT_NOISE_AMPLITUDE = 5.0
# A scenario's sphere stops approaching at this many of its radii.
_STANDOFF_RADII = 1.05


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
class Scene:
    """Flat-shaded spheres over a uniform background."""

    objects: tuple[Sphere, ...] = ()
    background: float = 32.0
    noise_amplitude: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        for obj in self.objects:
            if not isinstance(obj, Sphere):
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
        tan_half = math.tan(self.hfov / 2.0)
        if tan_half == 0.0 or math.isinf(self.width / 2.0 / tan_half):
            raise ConfigError(
                f"hfov {self.hfov} is too narrow for a finite focal length"
            )

    @property
    def focal_px(self) -> float:
        return (self.width / 2.0) / math.tan(self.hfov / 2.0)

    def _pixel(self, y_slope: float, z_slope: float) -> tuple[float, float]:
        """(column, row) where the ray (1, y_slope, z_slope) meets the image."""
        cx, cy, f = (self.width - 1) / 2.0, (self.height - 1) / 2.0, self.focal_px
        return cx - f * y_slope, cy - f * z_slope


def check_reach(offset, radius: float, camera: CameraModel, error=ConfigError) -> None:
    """Raise ``error`` unless ray-casting a sphere at ``offset`` stays finite.

    Every term of the ray quadratic in :meth:`Sphere.intersect` is at most
    4·|d|²·(|offset|² + radius²) for the camera's longest ray direction d,
    so twice that must be a finite float.
    """
    x, y, z = (float(v) for v in offset)
    r = float(radius)
    f2 = 4.0 * camera.focal_px * camera.focal_px
    corner = ((camera.width - 1) ** 2 + (camera.height - 1) ** 2) / f2
    if not math.isfinite(8.0 * (1.0 + corner) * (x * x + y * y + z * z + r * r)):
        raise error(
            f"a sphere of radius {r} at offset {(x, y, z)} from the camera "
            "is too large to ray-cast"
        )


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


def _slopes(x: float, v: float, radius: float, den: float) -> tuple[float, float]:
    """Least and greatest s for which the line through the origin along
    (1, s) passes within ``radius`` of (x, v), given den = x² − radius² > 0.

    These are the roots of den·s² − 2·x·v·s + v² − radius², taken in the
    form that subtracts no nearly equal terms.
    """
    b = x * v
    q = b + math.copysign(radius * math.sqrt(den + v * v), b)
    if q == 0.0:  # radius·sqrt(...) underflowed: no usable bound
        return -math.inf, math.inf
    s1, s2 = q / den, (v - radius) * (v + radius) / q
    return min(s1, s2), max(s1, s2)


def _span(lo: float, hi: float, n: int) -> slice:
    """Indices in [lo, hi], either of which may be infinite, padded by one
    on each side and clamped to range(n)."""
    start = math.floor(min(max(lo, -2.0), n + 1.0)) - 1
    stop = math.ceil(min(max(hi, -2.0), n + 1.0)) + 2
    return slice(max(start, 0), min(stop, n))


def _window(offset, radius: float, camera: CameraModel) -> tuple[slice, slice]:
    """Rows and columns that hold every ray able to hit a sphere at ``offset``.

    A ray (1, s, u) meets the sphere only if its shadows on the xy- and the
    xz-plane pass within ``radius`` of the center's shadows, which bounds s
    and u.  The one-pixel pad absorbs rounding in these bounds and in the
    ray quadratic.  A sphere that reaches the camera plane bounds no slope,
    so its window is the full grid.
    """
    x, y, z = offset
    den = (x - radius) * (x + radius)
    if not den > 0.0:
        return slice(0, camera.height), slice(0, camera.width)
    y_lo, y_hi = _slopes(x, y, radius, den)
    z_lo, z_hi = _slopes(x, z, radius, den)
    col_lo, row_lo = camera._pixel(y_hi, z_hi)
    col_hi, row_hi = camera._pixel(y_lo, z_lo)
    return _span(row_lo, row_hi, camera.height), _span(col_lo, col_hi, camera.width)


def render_frame(
    scene: Scene, camera: CameraModel, index: int = 0, seed: int = 0
) -> Frame:
    """Render one frame; noise (if any) is keyed by (seed, index).

    Each sphere is ray-cast only over the window of pixels it can cover.
    """
    origin = np.asarray(camera.position, dtype=np.float64)
    dirs = _ray_grid(camera.width, camera.height, camera.hfov)
    img = np.full((camera.height, camera.width), scene.background, dtype=np.float64)
    best_t = np.full(img.shape, np.inf)
    for obj in scene.objects:
        offset = tuple(c - o for c, o in zip(obj.center, camera.position))
        check_reach(offset, obj.radius, camera, InputError)
        if obj.clearance(origin) < 0:
            raise InputError(f"camera at {camera.position} is inside {obj!r}")
        rows, cols = _window(offset, obj.radius, camera)
        t = obj.intersect(origin, dirs[rows, cols])
        window_t = best_t[rows, cols]
        img[rows, cols][t < window_t] = obj.luminance
        np.minimum(window_t, t, out=window_t)
    if scene.noise_amplitude > 0.0:
        rng = np.random.default_rng((seed, index))
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
    noise_amplitude: float = 0.0
    object_radius: float = 0.35
    object_luminance: float = 224.0
    background: float = Scene.background
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.object_radius <= 0:
            raise ConfigError(f"object_radius must be positive, got {self.object_radius}")
        standoff = self.object_radius * _STANDOFF_RADII
        if self.distance <= standoff:
            raise ConfigError(
                f"start distance {self.distance} is inside the standoff {standoff:.3f}"
            )
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
    _, y, z = SIDE_UNIT[Quadrant[spec.direction.name]]
    if y:
        lateral = x * half_h * bearing_jitter
        ortho = x * math.tan(vfov_half) * 0.25 * ortho_jitter
        return np.array([x, y * lateral, ortho])
    vertical = x * half_v * bearing_jitter
    ortho = x * math.tan(camera.hfov / 2.0) * 0.25 * ortho_jitter
    return np.array([x, ortho, z * vertical])


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
    standoff = spec.object_radius * _STANDOFF_RADII
    check_reach(start, spec.object_radius, camera)
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
