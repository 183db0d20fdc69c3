"""Renderer geometry, scenario trajectories, determinism and mirrors."""

import dataclasses
import functools
import math
import re
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clgmd import stimulus
from clgmd.competition import Quadrant, build_quadrant_mask
from clgmd.errors import ConfigError, InputError
from clgmd.flightsim import TrialConfig
from clgmd.stimulus import (
    CameraModel,
    Direction,
    ScenarioSpec,
    Sphere,
    generate_sequence,
    _window,
    make_scenario,
    render_frame,
)

from oracles import general_intersect, naive_render, ray_directions, sphere_projected_radius

CAM = CameraModel()  # 100x100, 90 degree horizontal field of view
# A sphere wholly behind the camera covers no pixel: the obstacle of a
# frame that is background and noise alone.
BEHIND = Sphere((-2.0, 0.0, 0.0), 0.3, 224.0)


# Even and odd sizes, from the smallest frame up, across the field-of-view
# range: a noise-free render mirrors exactly at each.
MIRROR_CAMERAS = [
    pytest.param(CameraModel(width=w, height=h, hfov_deg=hfov), id=f"{w}x{h}-{hfov:g}deg")
    for w, h in ((5, 5), (6, 5), (37, 23), (64, 48), (101, 99))
    for hfov in (20.0, 60.0, 90.0, 120.0, 170.0)
]


def assert_mirrored(camera, seed, direction, mirror, flip):
    """The two noise-free sequences are mirror images frame for frame, and
    some frame is not its own mirror, so the case checks something.

    Each starts 4 m from the camera.  A start 4 m along the optical axis
    puts a wide entry bearing far off (37 m at 170 degrees), and over 60
    such frames 31 of these cases never showed a frame unlike its mirror.
    """
    extent = camera.width if direction is Direction.LEFT else camera.height
    bearing = ScenarioSpec.entry_fraction * extent / 2.0 / camera.focal_px
    spec = ScenarioSpec(direction=direction, seed=seed, distance=4.0 / math.hypot(1.0, bearing))
    frames = [frame.luminance for frame in generate_sequence(spec, camera)]
    mirrored = dataclasses.replace(spec, direction=mirror)
    assert [flip(frame.luminance).tobytes() for frame in generate_sequence(mirrored, camera)] == [
        frame.tobytes() for frame in frames
    ]
    assert any(not np.array_equal(frame, flip(frame)) for frame in frames)


def object_pixels(frame, background):
    return frame.luminance != background


class TestRenderFrame:
    def test_sphere_behind_the_camera_leaves_a_uniform_background(self):
        frame = render_frame(BEHIND, CAM, background=77.0)
        assert np.all(frame.luminance == 77)

    @pytest.mark.parametrize("noise", [0.0, 5.0])
    def test_spheres_behind_the_camera_render_the_same_frame(self, noise):
        # Wholly behind the camera, two different spheres leave the same
        # pixels: the background plus the noise of (seed, index).
        other = Sphere((-0.6, 3.0, -1.0), 0.5, 17.0)
        a, b = (
            render_frame(obj, CAM, index=3, seed=11, noise_amplitude=noise).luminance
            for obj in (BEHIND, other)
        )
        assert a.tobytes() == b.tobytes()
        assert noise or np.all(a == 32)

    def test_halving_distance_doubles_diameter(self):
        def extent(d):
            frame = render_frame(Sphere((d, 0.0, 0.0), 0.3, 224.0), CAM)
            cols = np.nonzero(np.any(object_pixels(frame, 32.0), axis=0))[0]
            return int(cols[-1] - cols[0] + 1)

        near, far = extent(2.0), extent(4.0)
        assert abs(near - 2 * far) <= 1

    def test_rendered_radius_tracks_analytic_projection(self):
        frame = render_frame(Sphere((3.0, 0.0, 0.0), 0.4, 224.0), CAM)
        area = int(np.count_nonzero(object_pixels(frame, 32.0)))
        radius = sphere_projected_radius(CAM.focal_px, 0.4, 3.0)
        assert area == pytest.approx(math.pi * radius * radius, rel=0.15)

    def test_offset_sphere_lands_in_left_region(self):
        frame = render_frame(Sphere((3.0, 1.8, 0.0), 0.3, 224.0), CAM)
        mask = build_quadrant_mask(CAM.width, CAM.height)
        obj = object_pixels(frame, 32.0)
        assert obj.any()
        ys, xs = np.nonzero(obj)
        col, row = xs.mean(), ys.mean()
        assert mask[int(round(row)), int(round(col))] == Quadrant.LEFT
        # pinhole: column c_x − f·y/x, row c_y − f·z/x
        col_pred = (CAM.width - 1) / 2 - CAM.focal_px * 1.8 / 3.0
        row_pred = (CAM.height - 1) / 2
        assert col == pytest.approx(col_pred, abs=1.0)
        assert row == pytest.approx(row_pred, abs=1.0)

    def test_camera_inside_object_rejected(self):
        with pytest.raises(InputError):
            render_frame(Sphere((0.0, 0.0, 0.0), 1.0, 200.0), CAM)

    def test_deterministic_with_noise(self):
        obstacle = Sphere((3.0, 0.0, 0.0), 0.3, 200.0)
        a = render_frame(obstacle, CAM, index=4, seed=9, noise_amplitude=5.0)
        b = render_frame(obstacle, CAM, index=4, seed=9, noise_amplitude=5.0)
        assert np.array_equal(a.luminance, b.luminance)

    def test_noise_varies_with_frame_index(self):
        paint = {"noise_amplitude": 5.0, "background": 128.0}
        a = render_frame(BEHIND, CAM, index=0, seed=9, **paint)
        b = render_frame(BEHIND, CAM, index=1, seed=9, **paint)
        assert not np.array_equal(a.luminance, b.luminance)

    def test_sphere_too_far_to_ray_cast_rejected(self):
        with pytest.raises(InputError, match="too large to ray-cast"):
            render_frame(Sphere((1e200, 0.0, 0.0), 0.3, 200.0), CAM)

    @pytest.mark.parametrize("noise", [0.0, 5.0])
    @pytest.mark.parametrize(
        "name, value", [("seed", -1), ("index", -1), ("seed", 1.5), ("index", 2.0),
                        ("seed", True), ("index", "1"), ("seed", None)]
    )
    def test_index_and_seed_must_be_counts(self, noise, name, value):
        # With noise these raised numpy's bare ValueError or TypeError;
        # without it they passed unchecked.
        obstacle = Sphere((3.0, 0.0, 0.0), 0.3, 200.0)
        with pytest.raises(InputError, match=f"{name} must be"):
            render_frame(obstacle, CAM, noise_amplitude=noise, **{name: value})

    def test_numpy_index_and_seed_render_the_same_frame(self):
        a = render_frame(BEHIND, CAM, index=np.int64(4), seed=np.uint32(9), noise_amplitude=5.0)
        b = render_frame(BEHIND, CAM, index=4, seed=9, noise_amplitude=5.0)
        assert a.index == 4 and type(a.index) is int
        assert np.array_equal(a.luminance, b.luminance)

    def test_ray_slopes_invert_the_pinhole(self):
        camera = CameraModel(width=33, height=17, hfov_deg=math.degrees(1.0))
        s, u = camera._ray_slopes(slice(0, 17), slice(0, 33))
        assert s.shape == (1, 33) and u.shape == (17, 1)
        # each pixel's ray meets the image at that pixel's center
        col, row = camera._pixel(s, u)
        rows, cols = np.mgrid[0:17, 0:33]
        assert np.allclose(col, cols, rtol=0, atol=1e-12)
        assert np.allclose(row, rows, rtol=0, atol=1e-12)
        dirs = ray_directions(camera)
        assert np.array_equal(np.broadcast_to(s, (17, 33)), dirs[..., 1])
        assert np.array_equal(np.broadcast_to(u, (17, 33)), dirs[..., 2])
        # a window's slopes are the same entries of the full grid's
        s_win, u_win = camera._ray_slopes(slice(4, 9), slice(30, 33))
        assert np.array_equal(s_win, s[:, 30:33]) and np.array_equal(u_win, u[4:9])

    @pytest.mark.parametrize("noise", [0, 5])
    def test_integer_levels_render_as_their_floats(self, noise):
        # The fields take Python ints as they are; the image must still be
        # float64, or the obstacle's level and the rounding would fail.
        def frame(kind):
            sphere = Sphere((3.0, 0.4, 0.0), 0.5, kind(224))
            paint = {"background": kind(32), "noise_amplitude": kind(noise)}
            return render_frame(sphere, CAM, index=2, seed=7, **paint).luminance

        ints = frame(int)
        assert np.count_nonzero(ints == 224) > 100 or noise
        assert ints.tobytes() == frame(float).tobytes()

    def test_noise_stays_in_range(self):
        frame = render_frame(BEHIND, CAM, index=0, seed=1, noise_amplitude=30.0, background=250.0)
        assert frame.luminance.max() <= 255 and frame.luminance.min() >= 0


class TestValidation:
    def test_camera_geometry_is_computed_once_per_camera(self, monkeypatch):
        # math.tan is called while the camera is built, never by a render.
        camera = CameraModel(width=64, height=48)
        calls = []
        tan = math.tan
        monkeypatch.setattr(math, "tan", lambda x: calls.append(x) or tan(x))
        for index in range(2):
            render_frame(Sphere((3.0, 0.4, 0.0), 0.5, 224.0), camera, index, noise_amplitude=5.0)
        assert calls == []
        assert dataclasses.asdict(camera) == {"width": 64, "height": 48, "hfov_deg": 90.0}
        assert camera == CameraModel(width=64, height=48)
        assert hash(camera) == hash(CameraModel(width=64, height=48))
        assert repr(camera) == "CameraModel(width=64, height=48, hfov_deg=90.0)"

    def test_camera_model(self):
        with pytest.raises(ConfigError):
            CameraModel(hfov_deg=0.0)
        with pytest.raises(ConfigError):
            CameraModel(hfov_deg=180.0)
        with pytest.raises(ConfigError):
            CameraModel(width=4)
        with pytest.raises(ConfigError, match="finite focal length"):
            CameraModel(hfov_deg=1e-320)  # width / 2 / tan(hfov / 2) overflows

    def test_scene_primitives(self):
        with pytest.raises(ConfigError):
            Sphere((1, 0, 0), -0.1, 100.0)
        with pytest.raises(ConfigError):
            Sphere((1, 0, 0), 0.1, 300.0)
        for center in (("x", 0, 0), 5, (10**400, 0, 0), (np.True_, "2", 0), (b"1", 0, 0)):
            with pytest.raises(ConfigError, match="center must be a finite 3-vector"):
                Sphere(center, 0.1, 100.0)

    def test_render_levels(self):
        # The levels a direct caller passes are checked as the spec's and
        # the trial's fields are, and raise InputError.
        largest = sys.float_info.max / 2
        with pytest.raises(InputError, match="^background must lie in"):
            render_frame(BEHIND, CAM, background=-5.0)
        for amplitude in (-1.0, 1e308, math.nextafter(largest, math.inf), math.inf):
            with pytest.raises(InputError, match="^noise_amplitude must be "):
                render_frame(BEHIND, CAM, noise_amplitude=amplitude)

    def test_noise_too_large_to_draw_is_a_config_error(self):
        # Noise of amplitude a spans 2·a, which must stay a finite float.
        largest = sys.float_info.max / 2
        for make in (ScenarioSpec, TrialConfig):
            for amplitude in (1e308, math.nextafter(largest, math.inf), math.inf):
                with pytest.raises(ConfigError, match="^noise_amplitude must be "):
                    make(noise_amplitude=amplitude)
            assert make(noise_amplitude=largest).noise_amplitude == largest
        frame = render_frame(BEHIND, CAM, noise_amplitude=largest)
        assert set(np.unique(frame.luminance).tolist()) <= {0, 255}

    def test_render_rejects_non_primitive(self):
        lookalike = types.SimpleNamespace(center=(2.0, 0.0, 0.0), radius=0.3, luminance=200.0)
        sphere = Sphere((4.0, 0.0, 0.0), 0.3, 200.0)
        for obstacle in (lookalike, (sphere,), [sphere]):
            with pytest.raises(InputError, match="obstacle must be a Sphere"):
                render_frame(obstacle, CAM)

    def test_render_draws_a_sphere(self):
        with pytest.raises(TypeError, match="obstacle"):
            render_frame(camera=CAM)
        with pytest.raises(InputError, match="^obstacle must be a Sphere, got None$"):
            render_frame(None, CAM)

    def test_scenario_spec(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(speed=0.0)
        with pytest.raises(ConfigError):
            ScenarioSpec(distance=-1.0)
        with pytest.raises(ConfigError):
            ScenarioSpec(fps=0.0)
        with pytest.raises(ConfigError):
            ScenarioSpec(frames=-1)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            ScenarioSpec(seed=-1)
        with pytest.raises(ConfigError):
            ScenarioSpec(entry_fraction=1.0)

    def test_start_too_far_to_ray_cast_rejected(self):
        with pytest.raises(ConfigError, match="too large to ray-cast"):
            make_scenario(ScenarioSpec(distance=1e200, frames=1))

    def test_receding_out_of_reach_rejected(self):
        # The start is in reach; the last frame, 1.8e158 m out, is not.
        with pytest.raises(ConfigError, match="too large to ray-cast"):
            make_scenario(ScenarioSpec(speed=-1e160, frames=4))
        assert len(list(make_scenario(ScenarioSpec(speed=-1e150, fps=1.0)))) == 120

    @pytest.mark.parametrize(
        "speed, fps, frames", [(-1e308, 50.0, 3), (-1e160, 1e-300, 2)], ids=["speed", "fps"]
    )
    def test_receding_travel_that_overflows_rejected(self, speed, fps, frames):
        # speed * i / fps is -inf: rejected by name, before -inf * 0 makes
        # a nan centre (and numpy's warning).
        message = f"speed {speed} at fps {fps} overflows the travel over {frames} frames"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make_scenario(ScenarioSpec(speed=speed, fps=fps, frames=frames))

    def test_approach_that_overflows_parks_at_the_standoff(self):
        spheres = list(make_scenario(ScenarioSpec(speed=1e308, frames=3)))
        assert spheres[1].center == spheres[2].center

    def test_start_inside_standoff_rejected(self):
        with pytest.raises(ConfigError):
            make_scenario(ScenarioSpec(distance=0.3, object_radius=0.35))


class TestScenarios:
    def test_zero_frames_rejected(self):
        # An empty sequence is one that detect rejects, so none is made.
        with pytest.raises(ConfigError, match="frames must be positive, got 0"):
            ScenarioSpec(frames=0)

    def test_sequence_is_checked_at_the_call_and_rendered_on_demand(self, monkeypatch):
        with pytest.raises(ConfigError, match="too large to ray-cast"):
            generate_sequence(ScenarioSpec(speed=-1e160, frames=4))
        rendered = []

        def counting(*args, **kwargs):
            rendered.append(kwargs["index"])
            return render_frame(*args, **kwargs)

        monkeypatch.setattr(stimulus, "render_frame", counting)
        frames = generate_sequence(ScenarioSpec(frames=5), CAM)
        assert rendered == []
        assert next(frames).index == 0 and rendered == [0]
        assert [frame.index for frame in frames] == [1, 2, 3, 4] == rendered[1:]

    def test_scenario_is_built_on_demand(self):
        # A bad spec raises at the call: see TestValidation.
        spheres = make_scenario(ScenarioSpec(frames=3), CAM)
        assert iter(spheres) is spheres
        assert len(list(spheres)) == 3

    def test_sequence_length(self):
        assert len(list(generate_sequence(ScenarioSpec(frames=17)))) == 17

    def test_determinism_bit_identical(self):
        spec = ScenarioSpec(direction=Direction.LEFT, seed=5, noise_amplitude=5.0)
        a = generate_sequence(spec, CAM)
        b = generate_sequence(spec, CAM)
        assert all(np.array_equal(x.luminance, y.luminance) for x, y in zip(a, b))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("camera", MIRROR_CAMERAS)
    def test_left_right_sequences_mirror_exactly(self, camera, seed):
        assert_mirrored(camera, seed, Direction.LEFT, Direction.RIGHT, lambda a: a[:, ::-1])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("camera", MIRROR_CAMERAS)
    def test_up_down_sequences_mirror_exactly(self, camera, seed):
        assert_mirrored(camera, seed, Direction.UP, Direction.DOWN, lambda a: a[::-1, :])

    def test_left_entry_stays_in_left_region(self):
        mask = build_quadrant_mask(CAM.width, CAM.height)
        spec = ScenarioSpec(direction=Direction.LEFT, seed=2)
        frames = list(generate_sequence(spec, CAM))
        checked = 0
        for frame in frames[:20]:
            obj = object_pixels(frame, spec.background)
            total = int(np.count_nonzero(obj))
            if total == 0:
                continue
            inside = int(np.count_nonzero(obj & (mask == Quadrant.LEFT)))
            assert inside / total >= 0.8
            checked += 1
        assert checked > 0

    def test_first_appearance_centroid_in_matching_quadrant(self):
        mask = build_quadrant_mask(CAM.width, CAM.height)
        matching = {
            Direction.UP: Quadrant.UP,
            Direction.DOWN: Quadrant.DOWN,
            Direction.LEFT: Quadrant.LEFT,
            Direction.RIGHT: Quadrant.RIGHT,
        }
        for direction, quadrant in matching.items():
            spec = ScenarioSpec(direction=direction, seed=1)
            frames = generate_sequence(spec, CAM)
            for frame in frames:
                obj = object_pixels(frame, spec.background)
                if obj.any():
                    ys, xs = np.nonzero(obj)
                    row, col = int(round(ys.mean())), int(round(xs.mean()))
                    assert mask[row, col] == quadrant
                    break
            else:
                pytest.fail(f"object never appeared for {direction}")

    def test_head_on_pixel_area_non_decreasing(self):
        spec = ScenarioSpec(direction=Direction.HEAD_ON, seed=4)
        frames = generate_sequence(spec, CAM)
        areas = [int(np.count_nonzero(object_pixels(f, spec.background))) for f in frames]
        assert all(b >= a for a, b in zip(areas, areas[1:]))

    def test_head_on_analytic_area_grows_strictly(self):
        # the continuous projection grows every frame; pixel counts may
        # plateau when per-frame growth is sub-pixel, so the strict check
        # runs on the analytic silhouette radius
        spec = ScenarioSpec(direction=Direction.HEAD_ON, seed=4)
        spheres = make_scenario(spec, CAM)
        radii = [sphere_projected_radius(CAM.focal_px, s.radius, s.center[0]) for s in spheres]
        subtended = [i for i, r in enumerate(radii) if 2 * r >= 2.0]
        start = subtended[0]
        assert all(b > a for a, b in zip(radii[start:-1], radii[start + 1 :]))

    def test_receding_area_non_increasing(self):
        spec = ScenarioSpec(
            direction=Direction.HEAD_ON, speed=-1.2, distance=1.0, frames=60, seed=4
        )
        frames = generate_sequence(spec, CAM)
        areas = [int(np.count_nonzero(object_pixels(f, spec.background))) for f in frames]
        assert areas[0] > areas[-1]
        assert all(b <= a for a, b in zip(areas, areas[1:]))

    def test_approach_stops_at_standoff(self):
        spec = ScenarioSpec(direction=Direction.HEAD_ON, frames=400, seed=0)
        spheres = make_scenario(spec, CAM)
        closest = min(np.linalg.norm(s.center) for s in spheres)
        assert closest >= spec.object_radius * 1.05 - 1e-9


# Coordinates on a quarter-unit grid make points land exactly on surfaces;
# arbitrary floats cover the rest.
_COORD = st.one_of(st.integers(-16, 16).map(lambda k: k / 4.0), st.floats(-4.0, 4.0))
_EXTENT = st.one_of(st.integers(1, 8).map(lambda k: k / 4.0), st.floats(0.01, 4.0))
_VEC3 = st.tuples(_COORD, _COORD, _COORD)
_SPHERE = st.builds(Sphere, _VEC3, _EXTENT, st.just(200.0))


def reference_inside_and_gap(sphere, point):
    """Strict containment and the unsigned distance to the solid sphere,
    the squares of the world-frame difference summed left to right."""
    dx, dy, dz = (float(c - p) for c, p in zip(sphere.center, point))
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    return dist < sphere.radius, dist - sphere.radius


class TestClearance:
    @given(obj=_SPHERE, point=_VEC3)
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_formulas(self, obj, point):
        # obj as a camera at point sees it, the way TrialConfig.obstacle_at
        # places an obstacle relative to the vehicle
        seen = Sphere(tuple(c - p for c, p in zip(obj.center, point)), obj.radius, 200.0)
        inside, gap = reference_inside_and_gap(obj, np.asarray(point))
        clearance = seen.clearance()
        assert (clearance < 0) == inside
        if not inside:
            assert clearance == gap

    # A BLAS kernel that sums |c|² in another order gives np.linalg.norm
    # 7.978583834240259 at the second centre.
    @pytest.mark.parametrize(
        "center, norm",
        [((1.1, 2.2, 3.3), 4.115823125451335), ((4.27, 4.68, -4.85), 7.9785838342402595)],
    )
    def test_sums_the_squares_left_to_right(self, center, norm):
        assert Sphere(center, 0.25, 200.0).clearance() == norm - 0.25

    def test_intersect_sums_the_squares_left_to_right(self):
        # x·x + y·y + z·z is 16.939999999999998 here; a BLAS kernel that
        # sums in another order gives np.dot 16.94, and t 0.832738758087576.
        t = Sphere((1.1, 2.2, 3.3), 1.0, 200.0).intersect(np.array(2.0), np.array(3.0))
        assert float(t) == 0.8327387580875756


# Spheres from behind the camera to well in front of it, across the camera
# plane and off screen, each shifted by a quarter-unit offset as a vehicle
# away from the origin shifts what its camera sees; quarter-unit values
# make rays graze silhouettes.
_DEPTH = st.one_of(st.integers(-12, 32).map(lambda k: k / 4.0), st.floats(-3.0, 8.0))
_SIDE = st.one_of(st.integers(-24, 24).map(lambda k: k / 4.0), st.floats(-6.0, 6.0))
_RADIUS = st.one_of(st.integers(1, 8).map(lambda k: k / 4.0), st.floats(0.02, 2.0))
_OFFSET = st.tuples(*[st.integers(-4, 4).map(lambda k: k / 4.0)] * 3)
_OBSTACLES = st.builds(
    lambda center, offset, radius: Sphere(
        tuple(c - o for c, o in zip(center, offset)), radius, 200.0
    ),
    st.tuples(_DEPTH, _SIDE, _SIDE),
    _OFFSET,
    _RADIUS,
)
_CAMERAS = st.builds(
    CameraModel,
    hfov_deg=st.floats(11.5, 171.8),
    width=st.integers(5, 64),
    height=st.integers(5, 64),
)


# Spheres that touch the camera (clearance 0): a Pythagorean quadruple
# a² + b² + c² = d², its legs permuted and signed, scaled by a power of two
# so that |c|² − R² is exactly 0.
_QUADRUPLES = [(0, 0, 1, 1), (0, 3, 4, 5), (1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9)]
_TOUCHING = st.builds(
    lambda quad, order, signs, scale: Sphere(
        tuple(sign * quad[i] * scale for i, sign in zip(order, signs)), quad[3] * scale, 200.0
    ),
    st.sampled_from(_QUADRUPLES),
    st.permutations(range(3)),
    st.tuples(*[st.sampled_from((-1.0, 1.0))] * 3),
    st.sampled_from((0.125, 0.5, 1.0, 2.0)),
)


class TestIntersect:
    @given(obstacle=st.one_of(_OBSTACLES, _TOUCHING), camera=_CAMERAS)
    @example(obstacle=Sphere((4.0, 0.25, 0.0), 0.3, 200.0), camera=CAM)  # in front
    @example(obstacle=Sphere((0.5, 1.5, 0.0), 1.0, 200.0), camera=CAM)  # astride
    @example(obstacle=Sphere((-2.0, 0.5, 0.0), 0.5, 200.0), camera=CAM)  # behind
    @example(obstacle=Sphere((0.5, 0.0, 0.0), 1.0, 200.0), camera=CAM)  # around the camera
    @example(obstacle=Sphere((5.0, 0.0, 0.0), 5.0, 200.0), camera=CAM)  # touching, in front
    @example(obstacle=Sphere((3.0, 4.0, 0.0), 5.0, 200.0), camera=CAM)  # touching, astride
    @example(obstacle=Sphere((0.0, 3.0, 4.0), 5.0, 200.0), camera=CAM)  # touching, above
    @example(obstacle=Sphere((-3.0, 0.0, 4.0), 5.0, 200.0), camera=CAM)  # touching, centre behind the camera
    @settings(max_examples=400, deadline=None)
    def test_half_b_form_is_the_full_form_bit_for_bit(self, obstacle, camera):
        # The full-form solve with b = −2h computes 4·(h·h − a·c0) and
        # 2·(h − √…) / (2·a): powers of two that change no bit.
        grid = camera._ray_slopes(slice(0, camera.height), slice(0, camera.width))
        t = obstacle.intersect(*grid)
        expected = general_intersect(obstacle, ray_directions(camera))
        assert t.shape == expected.shape and t.tobytes() == expected.tobytes()


# Noise amplitudes from a faint dither to one that clips at both 0 and 255.
_NOISE = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.1, 5.0, 127.5, 300.0]), st.floats(0.0, 300.0)
)


class TestWindowedRender:
    @given(
        obstacle=_OBSTACLES,
        camera=_CAMERAS,
        noise=_NOISE,
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 10**6),
    )
    @example(  # behind the camera
        obstacle=Sphere((-2.0, 0.5, 0.0), 0.5, 200.0),
        camera=CAM,
        noise=0.0,
        seed=1,
        index=3,
    )
    @example(  # across the camera plane, beside the view: a one-sided window
        obstacle=Sphere((0.0, 2.0, 1.0), 1.0, 200.0),
        camera=CAM,
        noise=0.0,
        seed=1,
        index=3,
    )
    @example(  # partly off screen
        obstacle=Sphere((2.0, 2.0, 0.5), 0.75, 200.0),
        camera=CAM,
        noise=0.0,
        seed=1,
        index=3,
    )
    @example(  # astride the camera plane, beside the camera and out of view
        obstacle=Sphere((0.0, 3.0, 0.0), 1.0, 200.0),
        camera=CAM,
        noise=127.5,
        seed=0,
        index=0,
    )
    @example(  # astride the camera plane with |y| > R, partly in view
        obstacle=Sphere((0.5, 1.5, 0.0), 1.0, 200.0),
        camera=CAM,
        noise=300.0,
        seed=7,
        index=119,
    )
    @example(  # astride the camera plane with |y|, |z| <= R: the full grid
        obstacle=Sphere((0.0, 0.9, -0.9), 1.0, 200.0),
        camera=CAM,
        noise=1e-3,
        seed=2,
        index=5,
    )
    @example(  # a camera touching the sphere in front: near = 0, the full grid
        obstacle=Sphere((5.0, 0.0, 0.0), 5.0, 200.0),
        camera=CAM,
        noise=0.0,
        seed=1,
        index=3,
    )
    @example(  # a camera touching the sphere astride the camera plane
        obstacle=Sphere((3.0, 4.0, 0.0), 5.0, 200.0),
        camera=CAM,
        noise=0.0,
        seed=1,
        index=3,
    )
    @example(  # the same, touching it above
        obstacle=Sphere((0.0, 3.0, 4.0), 5.0, 200.0),
        camera=CAM,
        noise=0.0,
        seed=1,
        index=3,
    )
    @example(  # near a tiny positive, so a slope bound leaves the image by far
        obstacle=Sphere((1.0 + 2**-52, 0.3, 0.2), 1.0, 200.0),
        camera=CAM,
        noise=0.0,
        seed=1,
        index=3,
    )
    @example(  # wholly behind the camera: no obstacle pixel
        obstacle=Sphere((-1.0, 0.25, -0.25), 0.5, 200.0),
        camera=CAM,
        noise=5.0,
        seed=3,
        index=1,
    )
    @settings(max_examples=400, deadline=None)
    def test_byte_equal_to_full_grid(self, obstacle, camera, noise, seed, index):
        """The frame matches a general full-grid cast, and the window holds
        every hit."""
        assume(obstacle.clearance() >= 0)
        frame = render_frame(obstacle, camera, index=index, seed=seed, noise_amplitude=noise)
        expected = naive_render(obstacle, camera, index, seed=seed, noise_amplitude=noise)
        assert np.array_equal(frame.luminance, expected)
        rows, cols = _window(obstacle.center, obstacle.radius, camera)
        t = obstacle.intersect(*camera._ray_slopes(slice(0, camera.height), slice(0, camera.width)))
        outside = np.ones(t.shape, dtype=bool)
        outside[rows, cols] = False
        assert not np.any(np.isfinite(t) & outside)
        windowed = obstacle.intersect(*camera._ray_slopes(rows, cols))
        assert np.array_equal(windowed, t[rows, cols])

    @pytest.mark.parametrize(
        "center, rows, cols",
        [
            ((0.0, 3.0, 0.0), slice(0, 100), slice(0, 0)),  # beside, out of view
            ((0.5, 1.5, 0.0), slice(0, 100), slice(0, 35)),  # left of column 32.8
            ((0.5, 0.0, -1.5), slice(65, 100), slice(0, 100)),  # below row 66.2
            ((0.0, 0.9, -0.9), slice(0, 100), slice(0, 100)),  # both slopes free
            ((-1.0, 3.0, 0.0), slice(0, 0), slice(0, 0)),  # touches from behind
            ((-2.0, 0.5, 0.0), slice(0, 0), slice(0, 0)),  # wholly behind
        ],
    )
    def test_window_of_a_sphere_astride_the_camera_plane(self, center, rows, cols):
        assert _window(center, 1.0, CAM) == (rows, cols)

    @pytest.mark.parametrize(
        "center, radius, rows, cols",
        [
            ((4.0, 0.25, 0.0), 0.3, slice(44, 56), slice(41, 53)),  # the closed-loop start
            ((2.0, 1.5, -0.5), 0.35, slice(51, 78), slice(0, 28)),  # partly off screen
        ],
    )
    def test_window_of_a_sphere_in_front_of_the_camera(self, center, radius, rows, cols):
        # The depth interval [x - R, x + R] bounds each slope on both sides.
        assert _window(center, radius, CAM) == (rows, cols)

    def test_noise_clips_at_both_ends_and_frames_are_fresh(self):
        sphere = Sphere((2.0, 0.0, 0.0), 0.5, 250.0)
        first, again = (
            render_frame(sphere, CAM, index=4, seed=9, background=5.0, noise_amplitude=40.0)
            for _ in range(2)
        )
        assert first.luminance.dtype == np.uint8
        assert {0, 255} <= set(np.unique(first.luminance).tolist())
        assert np.array_equal(first.luminance, again.luminance)
        assert not np.shares_memory(first.luminance, again.luminance)

    def test_noisy_render_allocates_under_three_and_a_half_grids(self):
        # The closed-loop start: one sphere 4 m ahead, sensor noise 5.
        sphere = Sphere((4.0, 0.25, 0.0), 0.3, 224.0)
        render_frame(sphere, CAM, index=0, noise_amplitude=5.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            frame = render_frame(sphere, CAM, index=1, noise_amplitude=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frame.luminance.dtype == np.uint8
        assert (peak - before) / (CAM.height * CAM.width * 8) < 3.5

    def test_noisy_render_keeps_one_float_image(self):
        # The noise is drawn into the image itself and only the obstacle's
        # pixels are set aside: at 320x240 the one float64 image dwarfs the
        # uint8 frame and the ray-cast window.
        camera = CameraModel(width=320, height=240)
        sphere = Sphere((4.0, 0.25, 0.0), 0.3, 224.0)
        render_frame(sphere, camera, index=0, noise_amplitude=5.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            frame = render_frame(sphere, camera, index=1, noise_amplitude=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(frame.luminance > 150) > 400  # the obstacle is in view
        assert (peak - before) / (camera.height * camera.width * 8) < 1.5
