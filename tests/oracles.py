"""Independent reference implementations for the test suite.

Everything here is written the slow, obvious way (explicit Python loops,
closed-form math) so the vectorized library code is checked against a
second, structurally different computation.
"""

from __future__ import annotations

import math

import numpy as np

from clgmd.layers import Frame
from clgmd.stimulus import _ray_grid


def naive_convolve(src: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Quadruple-loop 'same' convolution with zero padding."""
    h, w = src.shape
    kh, kw = weights.shape
    rh, rw = kh // 2, kw // 2
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-rh, rh + 1):
                for dx in range(-rw, rw + 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        acc += src[yy, xx] * weights[rh + dy, rw + dx]
            out[y, x] = acc
    return out


def kernel_weights_by_formula(scale: float = 0.25) -> np.ndarray:
    """5x5 reciprocal-distance weights built entry by entry."""
    out = np.zeros((5, 5))
    for y in range(5):
        for x in range(5):
            if (y, x) == (2, 2):
                continue
            out[y, x] = scale / math.hypot(x - 2, y - 2)
    return out


def naive_group(
    s: np.ndarray, delta_c: float, c_w: float, c_de: float, t_de: float
) -> np.ndarray:
    """Loop-based grouping: 3x3 mean, adaptive scale, decay threshold."""
    h, w = s.shape
    ce = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        acc += s[yy, xx]
            ce[y, x] = acc / 9.0
    omega = delta_c + float(np.max(np.abs(ce))) / c_w
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            g = s[y, x] * ce[y, x] / omega
            out[y, x] = g if abs(g) * c_de >= t_de else 0.0
    return out


def region_sums(g: np.ndarray, labels: np.ndarray) -> tuple[float, float, float, float]:
    """Per-label |g| sums accumulated pixel by pixel (labels 0..3)."""
    sums = [0.0, 0.0, 0.0, 0.0]
    h, w = g.shape
    for y in range(h):
        for x in range(w):
            sums[int(labels[y, x])] += abs(float(g[y, x]))
    return tuple(sums)


def last_argmin(values) -> int:
    """Index of the minimum, ties resolved to the last occurrence."""
    best, best_value = 0, values[0]
    for i, v in enumerate(values):
        if v <= best_value:
            best, best_value = i, v
    return best


def first_order_response(setpoint: float, tau: float, t: float) -> tuple[float, float]:
    """Closed-form velocity and position for v' = (sp - v)/tau from rest."""
    v = setpoint * (1.0 - math.exp(-t / tau))
    x = setpoint * (t - tau * (1.0 - math.exp(-t / tau)))
    return v, x


def sphere_projected_radius(f_px: float, radius: float, distance: float) -> float:
    """Analytic pinhole image radius of a sphere silhouette."""
    return f_px * radius / math.sqrt(distance * distance - radius * radius)


def naive_render(scene, camera, index: int = 0, seed: int | None = None) -> np.ndarray:
    """Luminance of a frame ray-cast over the full pixel grid, object by object."""
    origin = np.asarray(camera.position, dtype=np.float64)
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
        amplitude = scene.noise_amplitude
        img += rng.uniform(-amplitude, amplitude, size=img.shape)
    return Frame(index=index, luminance=np.clip(img, 0.0, 255.0)).luminance
