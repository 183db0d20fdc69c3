"""Independent reference implementations for the test suite.

Everything here is written the slow, obvious way (explicit Python loops,
closed-form math) so the vectorized library code is checked against a
second, structurally different computation.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


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


def grouped_convolve(src: np.ndarray) -> np.ndarray:
    """The grouped 5x5 inhibition, written with 2-D slices of ``np.pad``.

    The kernel's five distinct weights, at squared distances 1, 2, 4, 5
    and 8, each multiply one group sum.  The pair sums at x+-1 (``near``)
    and x+-2 (``far``) come first; each group adds its taps left to right
    in the documented order, the sum is multiplied by its weight, and the
    five products are added in group order.  Every rounding of
    ``compute_inhibition`` happens here in the same order, so the two
    agree byte for byte.
    """
    h, w = src.shape
    q = np.pad(np.asarray(src, dtype=np.float64), 2)
    near = q[:, 1 : w + 1] + q[:, 3 : w + 3]
    far = q[:, 0:w] + q[:, 4 : w + 4]
    centre = q[:, 2 : w + 2]

    def at(rows, dy):
        return rows[2 + dy : 2 + dy + h]

    groups = [
        (1, [at(near, 0), at(centre, -1), at(centre, 1)]),
        (2, [at(near, -1), at(near, 1)]),
        (4, [at(far, 0), at(centre, -2), at(centre, 2)]),
        (5, [at(far, -1), at(far, 1), at(near, -2), at(near, 2)]),
        (8, [at(far, -2), at(far, 2)]),
    ]
    out = None
    for r2, taps in groups:
        total = taps[0] + taps[1]
        for tap in taps[2:]:
            total = total + tap
        weighted = total * (0.25 / math.sqrt(r2))
        out = weighted if out is None else out + weighted
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
    s: np.ndarray, delta_c: float, c_w: float, t_de: float
) -> np.ndarray:
    """Loop-based grouping: 3x3 mean, adaptive scale, decay threshold at the
    paper's decay coefficient 0.5."""
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
            out[y, x] = g if abs(g) * 0.5 >= t_de else 0.0
    return out


def dense_group(
    s: np.ndarray, delta_c: float, c_w: float, t_de: float
) -> np.ndarray:
    """The dense grouping that ``compute_g_layer`` replaced, frozen as it was.

    A padded copy of S, a separable box sum over strided slices of it, and
    the decay rule, at the paper's decay coefficient 0.5, applied to every
    cell.  Its bytes, signed zeros included, are what the survivor-only
    layer must reproduce.
    """
    h, w = s.shape
    padded = np.zeros((h + 4, w + 4))
    padded[2:-2, 2:-2] = s
    q, rows, ce = padded[1:-1], np.empty((h + 2, w)), np.empty((h, w))
    np.add(q[:, 1 : w + 1], q[:, 3 : w + 3], out=rows)
    rows += q[:, 2 : w + 2]
    np.add(rows[0:h], rows[1 : h + 1], out=ce)
    ce += rows[2 : h + 2]
    ce /= 9.0
    omega = delta_c + max(float(ce.max()), -float(ce.min())) / c_w
    out = np.empty((h, w))
    np.multiply(s, ce, out=out)
    out /= omega
    np.abs(out, out=ce)
    ce *= 0.5
    drop = np.logical_not(np.greater_equal(ce, t_de))
    np.copyto(out, 0.0, where=drop)
    return out


def csv_writer_table(columns, rows, verbatim=()) -> str:
    """The text ``pgm.write_csv`` wrote when every row went through
    ``csv.writer``: each cell outside ``verbatim`` formatted ``f"{v:.6f}"``,
    the others handed over as they are."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    fixed = [column not in verbatim for column in columns]
    for row in rows:
        writer.writerow([f"{v:.6f}" if f else v for f, v in zip(fixed, row)])
    return text.getvalue()


def region_sums(g: np.ndarray, labels: np.ndarray) -> tuple[float, float, float, float]:
    """Per-label |g| sums accumulated pixel by pixel (labels 0..3)."""
    sums = [0.0, 0.0, 0.0, 0.0]
    h, w = g.shape
    for y in range(h):
        for x in range(w):
            sums[int(labels[y, x])] += abs(float(g[y, x]))
    return tuple(sums)


def dense_quadrant_sums(
    g: np.ndarray, labels: np.ndarray
) -> tuple[float, float, float, float, float]:
    """(u0, d0, l0, r0, k_f0) with |g| binned over every cell, zeros included."""
    sums = np.bincount(labels.ravel(), weights=np.abs(g).ravel(), minlength=4)
    u0, d0, l0, r0 = sums[:4].tolist()
    return u0, d0, l0, r0, u0 + d0 + l0 + r0


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


def ray_directions(camera) -> np.ndarray:
    """(h, w, 3) direction (1, s, u) of the ray through each pixel center of
    a pinhole camera looking along +x, +y left and +z up."""
    f = (camera.width / 2.0) / math.tan(math.radians(camera.hfov_deg) / 2.0)
    dirs = np.ones((camera.height, camera.width, 3))
    dirs[..., 1] = ((camera.width - 1) / 2.0 - np.arange(camera.width))[None, :] / f
    dirs[..., 2] = ((camera.height - 1) / 2.0 - np.arange(camera.height))[:, None] / f
    return dirs


def general_intersect(sphere, dirs: np.ndarray) -> np.ndarray:
    """Nearest forward hit of ``sphere`` along any (h, w, 3) ray directions
    from the origin, inf on a miss.

    The full form of the quadratic, a·t² + b·t + c0 with b = −2·(c·d) and
    discriminant b² − 4·a·c0, with |d|², c·d and |c|² each summed left to
    right, component by component.  That order is the same on any host, as
    a BLAS-ordered sum is not, and for d = (1, s, u) it is the renderer's.
    """
    x, y, z = (float(c) for c in sphere.center)
    dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    a = (dx * dx + dy * dy) + dz * dz
    b = -2.0 * ((dx * x + dy * y) + dz * z)
    c0 = (x * x + y * y + z * z) - sphere.radius**2
    disc = b * b - 4.0 * a * c0
    hit = disc >= 0.0
    root = np.sqrt(np.where(hit, disc, 0.0))
    near = (-b - root) / (2.0 * a)
    return np.where(hit & (near > 0.0), near, np.inf)


def naive_render(
    obstacle, camera, index: int = 0, seed: int | None = None, *,
    background: float = 32.0, noise_amplitude: float = 0.0,
) -> np.ndarray:
    """Luminance of a frame with the obstacle ray-cast over the full pixel
    grid by a general caster, one direction vector per pixel, clipped to
    [0, 255] and rounded half to even into uint8."""
    img = np.full((camera.height, camera.width), background, dtype=np.float64)
    t = general_intersect(obstacle, ray_directions(camera))
    img[t < np.inf] = obstacle.luminance
    if noise_amplitude > 0.0:
        rng = np.random.default_rng((seed if seed is not None else 0, index))
        img += rng.uniform(-noise_amplitude, noise_amplitude, size=img.shape)
    return np.rint(np.clip(img, 0, 255)).astype(np.uint8)
