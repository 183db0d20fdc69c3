"""Synthetic grayscale stimuli: looming, receding and side-entry approaches.

A pinhole camera at the origin looks along +x (+y left, +z up), so the
ray through a pixel center is (1, s, u) for that pixel's slopes s and u.
A frame is drawn from one flat-shaded sphere, given in the camera's frame
(one wholly behind the camera covers no pixel), over a uniform
background; a pixel is its level (the sphere's where its ray hits the
sphere in front of the camera, else the background) plus the frame's
noise, zero without.  Scenario builders move the sphere straight toward
the camera on a constant bearing, so the silhouette expands in place
inside one quadrant of the field of view.  A sequence is rendered one
frame at a time, each into one float64 image, so memory does not grow
with its length.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .competition import SIDE_UNIT, Quadrant
from .errors import (
    Amplitude, ConfigError, Count, InputError, Kind, Luminance, Positive, PositiveCount, Vec3,
    check_fields, check_value,
)
from .layers import MIN_SIDE, Frame

DEFAULT_NOISE_AMPLITUDE = 5.0
# The default level of every pixel the obstacle does not cover.
BACKGROUND = 32.0
# A scenario's sphere stops approaching at this many of its radii.
_STANDOFF_RADII = 1.05


class Direction(enum.Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"
    HEAD_ON = "head_on"


# A field of view in degrees and a bearing fraction lie strictly inside
# their range.
_Degrees = Annotated[float, Kind("lie in (0, 180)", lambda v: 0.0 < v < 180.0)]
_Fraction = Annotated[float, Kind("lie in (0, 1)", lambda v: 0.0 < v < 1.0)]
_Side = Annotated[int, Kind(f"be at least {MIN_SIDE}", lambda v: v >= MIN_SIDE, integer=True)]
# A negative scenario speed plays the approach backwards; zero never looms.
_Speed = Annotated[float, Kind("be nonzero", lambda v: v != 0)]


def _norm2(v) -> float:
    """x·x + y·y + z·z of a 3-vector in Python floats, summed left to right:
    the same on every host, unlike a BLAS dot, whose order varies by CPU."""
    x, y, z = (float(c) for c in v)
    return x * x + y * y + z * z


@dataclass(frozen=True)
class Sphere:
    """A sphere whose ``center`` is given in the camera's frame."""

    center: Vec3
    radius: Positive
    luminance: Luminance

    def __post_init__(self) -> None:
        check_fields(self)

    def clearance(self) -> float:
        """Signed distance from the camera to the surface, negative inside:
        √(x·x + y·y + z·z) − radius, the squares summed left to right."""
        return math.sqrt(_norm2(self.center)) - self.radius

    def intersect(self, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Ray parameter of the nearest forward hit along each ray (1, s, u),
        inf on a miss or at or behind the camera; ``s`` and ``u`` broadcast.
        t = (h − √(h·h − a·c0)) / a for a = |d|², h = c·d, c0 = |c|² − R²: the
        full form's t (b = −2h) bit for bit, as scaling by 2 and 4 is exact,
        unless h·h or a·c0 is subnormal.  Summed in another order, t can
        differ in its last bits, not in which rays hit."""
        x, y, z = self.center
        a = (1.0 + s * s) + u * u
        h = (x + s * y) + u * z
        c0 = _norm2(self.center) - self.radius**2
        with np.errstate(invalid="ignore"):
            t = np.asarray((h - np.sqrt(h * h - a * c0)) / a)
            t[~(t > 0.0)] = np.inf
        return t


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera at the origin looking along +x, +y left and +z up,
    with square pixels and a horizontal field of view of ``hfov_deg``."""

    width: _Side = 100
    height: _Side = 100
    hfov_deg: _Degrees = 90.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self._tan_half == 0.0 or math.isinf(self.focal_px):
            raise ConfigError(f"hfov_deg {self.hfov_deg} is too narrow for a finite focal length")

    # Computed once per camera and kept outside the fields, so equality,
    # hashing, repr and asdict see only width, height and hfov_deg.
    @functools.cached_property
    def _tan_half(self) -> float:
        """Slope of the ray through the left edge of the image."""
        return math.tan(math.radians(self.hfov_deg) / 2.0)

    @functools.cached_property
    def focal_px(self) -> float:
        return (self.width / 2.0) / self._tan_half

    @functools.cached_property
    def _principal_point(self) -> tuple[float, float]:
        """(column, row) of the optical axis, between pixels for even sizes."""
        return (self.width - 1) / 2.0, (self.height - 1) / 2.0

    def _pixel(self, y_slope: float, z_slope: float) -> tuple[float, float]:
        """(column, row) where the ray (1, y_slope, z_slope) meets the image."""
        (cx, cy), f = self._principal_point, self.focal_px
        return cx - f * y_slope, cy - f * z_slope

    def _ray_slopes(self, rows: slice, cols: slice) -> tuple[np.ndarray, np.ndarray]:
        """Slopes (s, u) of the rays (1, s, u) through the pixel centers of
        ``rows`` × ``cols``, the inverse of :meth:`_pixel`: s as a row and u
        as a column, which broadcast to the window."""
        (cx, cy), f = self._principal_point, self.focal_px
        s = (cx - np.arange(cols.start, cols.stop, dtype=np.float64))[None, :] / f
        u = (cy - np.arange(rows.start, rows.stop, dtype=np.float64))[:, None] / f
        return s, u


def check_reach(offset, radius: float, camera: CameraModel, error=ConfigError) -> None:
    """Raise ``error`` unless ray-casting a sphere at ``offset`` stays finite.

    Each term of the half-b ray quadratic in :meth:`Sphere.intersect`, h·h
    (by Cauchy–Schwarz) and a·c0, is at most |d|²·(|offset|² + radius²)
    for the camera's longest ray direction d, and their difference at most
    twice that; eight times it must be a finite float, a margin of four.
    """
    x, y, z = (float(v) for v in offset)
    r = float(radius)
    f2 = 4.0 * camera.focal_px * camera.focal_px
    corner = ((camera.width - 1) ** 2 + (camera.height - 1) ** 2) / f2
    if not math.isfinite(8.0 * (1.0 + corner) * (_norm2((x, y, z)) + r * r)):
        raise error(
            f"a sphere of radius {r} at offset {(x, y, z)} from the camera "
            "is too large to ray-cast"
        )


def _span(lo: float, hi: float, n: int) -> slice:
    """Indices in [lo, hi], either of which may be infinite, padded by one
    on each side and clamped to range(n)."""
    start = math.floor(min(max(lo, -2.0), n + 1.0)) - 1
    stop = math.ceil(min(max(hi, -2.0), n + 1.0)) + 2
    return slice(max(start, 0), min(stop, n))


def _slope_range(v: float, radius: float, near: float, far: float) -> tuple[float, float]:
    """Least and greatest s with t·s within ``radius`` of v for some depth t
    in [near, far], given 0 ≤ near < far.

    The least s is (v − radius)/t at the depth that makes it least: ``far``
    when v − radius > 0, ``near`` otherwise, where near = 0 leaves it
    unbounded.  The greatest s mirrors this.
    """
    lo, hi = v - radius, v + radius
    s_lo = lo / far if lo > 0.0 else lo / near if near > 0.0 else -math.inf
    s_hi = hi / far if hi < 0.0 else hi / near if near > 0.0 else math.inf
    return s_lo, s_hi


def _window(offset, radius: float, camera: CameraModel) -> tuple[slice, slice]:
    """Rows and columns that hold every ray able to hit a sphere at ``offset``.

    A hit (t, t·s, t·u) in front of the camera lies in the sphere's bounding
    box, so its depth t lies in [near, far] = [max(x − radius, 0), x + radius],
    and t·s and t·u lie within ``radius`` of y and z, which bounds s and u.
    A sphere with nothing in front of the camera (far ≤ 0) gets an empty
    window.  One astride the camera plane (near = 0) gets a window bounded
    on one side of s when |y| > radius, and of u when |z| > radius, and the
    full grid when neither holds.  The one-pixel pad absorbs rounding in
    these bounds and in the ray quadratic.
    """
    x, y, z = offset
    near, far = max(x - radius, 0.0), x + radius
    if not far > 0.0:
        return slice(0, 0), slice(0, 0)
    y_lo, y_hi = _slope_range(y, radius, near, far)
    z_lo, z_hi = _slope_range(z, radius, near, far)
    col_lo, row_lo = camera._pixel(y_hi, z_hi)
    col_hi, row_hi = camera._pixel(y_lo, z_lo)
    return _span(row_lo, row_hi, camera.height), _span(col_lo, col_hi, camera.width)


def render_frame(
    obstacle: Sphere, camera: CameraModel, index: int = 0, seed: int = 0, *,
    background: float = BACKGROUND, noise_amplitude: float = 0.0,
) -> Frame:
    """Render ``obstacle`` over ``background`` with uniform noise of
    ``noise_amplitude``, keyed by (seed, index); a bad argument raises
    ``InputError``.

    The obstacle is ray-cast only over the window of pixels it can cover,
    with the window's slopes computed per call.  The image is one float64
    buffer holding the noise, drawn as ``default_rng((seed, index)).random``
    and scaled in place to ``-a + 2a·r``, bit for bit numpy's
    ``uniform(-a, a)``, or zeros for a frame without noise.  The window's
    noise is set aside with the obstacle's luminance added, the background
    is added everywhere, and the hit pixels are written back: addition
    commutes, so every pixel is its level plus its noise, rounded once.
    The image is clipped to [0, 255] (only if noise can take it out) and
    rounded half to even in place, and ``Frame`` gets a fresh uint8 copy,
    as the detector keeps the previous frame.
    """
    obj = check_value("obstacle", Sphere, obstacle, InputError)
    camera = check_value("camera", CameraModel, camera, InputError)
    background = check_value("background", Luminance, background, InputError)
    amplitude = check_value("noise_amplitude", Amplitude, noise_amplitude, InputError)
    index = check_value("index", Count, index, InputError)
    seed = check_value("seed", Count, seed, InputError)
    check_reach(obj.center, obj.radius, camera, InputError)
    if obj.clearance() < 0:
        raise InputError(f"the camera is inside {obj!r}")
    rows, cols = _window(obj.center, obj.radius, camera)
    hit = np.isfinite(obj.intersect(*camera._ray_slopes(rows, cols)))
    shape = (camera.height, camera.width)
    if amplitude > 0.0:
        span = amplitude - (-amplitude)
        img = np.random.default_rng((seed, index)).random(shape)
        img *= span
        img += -amplitude
    else:
        img = np.zeros(shape)
    sums = img[rows, cols] + obj.luminance
    img += background
    np.copyto(img[rows, cols], sums, where=hit)
    # Noise lies in [-a, a], and rounding is monotone, so the image can leave
    # [0, 255] only if a level does once a is added or taken away.
    low, high = min(background, obj.luminance), max(background, obj.luminance)
    if low - amplitude < 0.0 or high + amplitude > 255.0:
        np.clip(img, 0.0, 255.0, out=img)
    np.rint(img, out=img)
    return Frame(index=index, luminance=img.astype(np.uint8))


@dataclass(frozen=True)
class ScenarioSpec:
    """A single looming trial: one sphere approaching the camera.

    ``direction`` names the side of the view the object occupies while it
    looms; HEAD_ON puts it on the optical axis.  Negative ``speed`` plays
    the approach backwards (a receding object).  ``entry_fraction`` places
    the bearing at that fraction of the half field of view.
    """

    direction: Direction = Direction.HEAD_ON
    speed: _Speed = 1.2
    distance: Positive = 4.0
    fps: Positive = 50.0
    frames: PositiveCount = 120
    seed: Count = 0
    noise_amplitude: Amplitude = 0.0
    object_radius: Positive = 0.35
    object_luminance: Luminance = 224.0
    background: Luminance = BACKGROUND
    entry_fraction: _Fraction = 0.8

    def __post_init__(self) -> None:
        check_fields(self)
        standoff = self.object_radius * _STANDOFF_RADII
        if self.distance <= standoff:
            raise ConfigError(
                f"start distance {self.distance} is inside the standoff {standoff:.3f}"
            )


def _start_position(
    spec: ScenarioSpec, camera: CameraModel, rng: np.random.Generator
) -> np.ndarray:
    """Initial sphere center with seed jitter drawn in direction-local axes.

    The jitter is applied before the mirror sign flip, so LEFT and RIGHT
    (or UP and DOWN) specs sharing a seed start at exact mirror images.
    """
    half_h = spec.entry_fraction * camera._tan_half
    tan_half_v = (camera.height / 2.0) / camera.focal_px
    half_v = spec.entry_fraction * tan_half_v
    bearing_jitter = rng.uniform(0.85, 1.0)
    ortho_jitter = rng.uniform(-0.25, 0.25)
    x = spec.distance
    if spec.direction is Direction.HEAD_ON:
        return np.array([x, 0.0, 0.0])
    _, y, z = SIDE_UNIT[Quadrant[spec.direction.name]]
    if y:
        lateral = x * half_h * bearing_jitter
        ortho = x * tan_half_v * 0.25 * ortho_jitter
        return np.array([x, y * lateral, ortho])
    vertical = x * half_v * bearing_jitter
    ortho = x * camera._tan_half * 0.25 * ortho_jitter
    return np.array([x, ortho, z * vertical])


def make_scenario(spec: ScenarioSpec, camera: CameraModel = CameraModel()) -> Iterator[Sphere]:
    """Per-frame spheres for a straight constant-bearing approach, each
    built when it is asked for; the spec and camera are checked at the
    call, and a bad one raises ``ConfigError``.

    The sphere travels from its start point directly toward the camera and
    parks at a small standoff just outside its own radius, so the
    silhouette expands without the camera ever entering the object.  Wrap
    the iterator in ``list()`` to index it.
    """
    spec = check_value("spec", ScenarioSpec, spec)
    camera = check_value("camera", CameraModel, camera)
    rng = np.random.default_rng(spec.seed)
    start = _start_position(spec, camera, rng)
    speed = spec.speed * rng.uniform(0.9, 1.1)
    standoff = spec.object_radius * _STANDOFF_RADII
    check_reach(start, spec.object_radius, camera)
    span = math.sqrt(_norm2(start))
    toward = -start / span

    def travel(i: int) -> float:
        return min(speed * i / spec.fps, span - standoff)

    # Only a receding travel is unclamped; it is longest at the last frame,
    # where the sphere is farthest.
    last = travel(spec.frames - 1)
    if not math.isfinite(last):
        raise ConfigError(
            f"speed {spec.speed} at fps {spec.fps} overflows the travel "
            f"over {spec.frames} frames"
        )
    check_reach(start + toward * last, spec.object_radius, camera)
    return (
        Sphere(
            center=tuple(start + toward * travel(i)),
            radius=spec.object_radius,
            luminance=spec.object_luminance,
        )
        for i in range(spec.frames)
    )


def generate_sequence(spec: ScenarioSpec, camera: CameraModel = CameraModel()) -> Iterator[Frame]:
    """The frames of :func:`make_scenario`'s spheres over the spec's
    background and noise, each rendered when it is asked for.

    The spec and camera are checked at the call.  Neither a sphere nor a
    frame is kept once returned, so memory does not grow with
    ``spec.frames``.  Wrap the iterator in ``list()`` to index it.
    """
    return (
        render_frame(
            sphere, camera, index=i, seed=spec.seed,
            background=spec.background, noise_amplitude=spec.noise_amplitude,
        )
        for i, sphere in enumerate(make_scenario(spec, camera))
    )
