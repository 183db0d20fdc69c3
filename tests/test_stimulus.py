"""Renderer geometry, scenario trajectories, determinism and mirrors."""

import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clgmd.competition import Quadrant, build_quadrant_mask
from clgmd.errors import ConfigError, InputError
from clgmd.stimulus import (
    CameraModel,
    Direction,
    ScenarioSpec,
    Scene,
    Sphere,
    generate_sequence,
    _ray_grid,
    _window,
    make_scenario,
    render_frame,
)

from oracles import naive_render, sphere_projected_radius

CAM = CameraModel()  # 100x100, 90 degree horizontal field of view


def object_pixels(frame, background):
    return frame.luminance != background


class TestRenderFrame:
    def test_empty_scene_uniform_background(self):
        frame = render_frame(Scene(background=77.0), CAM)
        assert np.all(frame.luminance == 77)

    def test_halving_distance_doubles_diameter(self):
        def extent(d):
            scene = Scene(objects=(Sphere((d, 0.0, 0.0), 0.3, 224.0),))
            frame = render_frame(scene, CAM)
            cols = np.nonzero(np.any(object_pixels(frame, 32.0), axis=0))[0]
            return int(cols[-1] - cols[0] + 1)

        near, far = extent(2.0), extent(4.0)
        assert abs(near - 2 * far) <= 1

    def test_rendered_radius_tracks_analytic_projection(self):
        scene = Scene(objects=(Sphere((3.0, 0.0, 0.0), 0.4, 224.0),))
        frame = render_frame(scene, CAM)
        area = int(np.count_nonzero(object_pixels(frame, 32.0)))
        radius = sphere_projected_radius(CAM.focal_px, 0.4, 3.0)
        assert area == pytest.approx(math.pi * radius * radius, rel=0.15)

    def test_offset_sphere_lands_in_left_region(self):
        scene = Scene(objects=(Sphere((3.0, 1.8, 0.0), 0.3, 224.0),))
        frame = render_frame(scene, CAM)
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
        scene = Scene(objects=(Sphere((0.0, 0.0, 0.0), 1.0, 200.0),))
        with pytest.raises(InputError):
            render_frame(scene, CAM)

    def test_nearest_object_wins(self):
        near = Sphere((2.0, 0.0, 0.0), 0.3, 200.0)
        far = Sphere((4.0, 0.0, 0.0), 0.3, 90.0)
        frame = render_frame(Scene(objects=(far, near)), CAM)
        assert frame.luminance[50, 50] == 200

    def test_deterministic_with_noise(self):
        scene = Scene(objects=(Sphere((3.0, 0.0, 0.0), 0.3, 200.0),), noise_amplitude=5.0)
        a = render_frame(scene, CAM, index=4, seed=9)
        b = render_frame(scene, CAM, index=4, seed=9)
        assert np.array_equal(a.luminance, b.luminance)

    def test_noise_varies_with_frame_index(self):
        scene = Scene(noise_amplitude=5.0, background=128.0)
        a = render_frame(scene, CAM, index=0, seed=9)
        b = render_frame(scene, CAM, index=1, seed=9)
        assert not np.array_equal(a.luminance, b.luminance)

    def test_sphere_too_far_to_ray_cast_rejected(self):
        scene = Scene(objects=(Sphere((1e200, 0.0, 0.0), 0.3, 200.0),))
        with pytest.raises(InputError, match="too large to ray-cast"):
            render_frame(scene, CAM)

    def test_noise_stays_in_range(self):
        scene = Scene(noise_amplitude=30.0, background=250.0)
        frame = render_frame(scene, CAM, index=0, seed=1)
        assert frame.luminance.max() <= 255 and frame.luminance.min() >= 0


class TestValidation:
    def test_camera_model(self):
        with pytest.raises(ConfigError):
            CameraModel(hfov=0.0)
        with pytest.raises(ConfigError):
            CameraModel(hfov=math.pi)
        with pytest.raises(ConfigError):
            CameraModel(width=4)
        with pytest.raises(ConfigError, match="finite focal length"):
            CameraModel(hfov=1e-322)  # width / 2 / tan(hfov / 2) overflows

    def test_scene_primitives(self):
        with pytest.raises(ConfigError):
            Sphere((1, 0, 0), -0.1, 100.0)
        with pytest.raises(ConfigError):
            Sphere((1, 0, 0), 0.1, 300.0)
        with pytest.raises(ConfigError):
            Scene(background=-5.0)
        with pytest.raises(ConfigError):
            Scene(noise_amplitude=-1.0)

    def test_scene_rejects_non_primitive(self):
        lookalike = types.SimpleNamespace(center=(2.0, 0.0, 0.0), radius=0.3, luminance=200.0)
        with pytest.raises(ConfigError, match="unsupported obstacle type: SimpleNamespace"):
            Scene(objects=(Sphere((4.0, 0.0, 0.0), 0.3, 200.0), lookalike))

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

    def test_start_inside_standoff_rejected(self):
        with pytest.raises(ConfigError):
            make_scenario(ScenarioSpec(distance=0.3, object_radius=0.35))


class TestScenarios:
    def test_zero_frames_empty(self):
        assert generate_sequence(ScenarioSpec(frames=0)) == []

    def test_sequence_length(self):
        assert len(generate_sequence(ScenarioSpec(frames=17))) == 17

    def test_determinism_bit_identical(self):
        spec = ScenarioSpec(direction=Direction.LEFT, seed=5, noise_amplitude=5.0)
        a = generate_sequence(spec, CAM)
        b = generate_sequence(spec, CAM)
        assert all(np.array_equal(x.luminance, y.luminance) for x, y in zip(a, b))

    def test_left_right_sequences_mirror_exactly(self):
        left = generate_sequence(ScenarioSpec(direction=Direction.LEFT, seed=3), CAM)
        right = generate_sequence(ScenarioSpec(direction=Direction.RIGHT, seed=3), CAM)
        assert all(
            np.array_equal(l.luminance, r.luminance[:, ::-1])
            for l, r in zip(left, right)
        )

    def test_up_down_sequences_mirror_exactly(self):
        up = generate_sequence(ScenarioSpec(direction=Direction.UP, seed=3), CAM)
        down = generate_sequence(ScenarioSpec(direction=Direction.DOWN, seed=3), CAM)
        assert all(
            np.array_equal(u.luminance, d.luminance[::-1, :]) for u, d in zip(up, down)
        )

    def test_left_entry_stays_in_left_region(self):
        mask = build_quadrant_mask(CAM.width, CAM.height)
        spec = ScenarioSpec(direction=Direction.LEFT, seed=2)
        frames = generate_sequence(spec, CAM)
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
        scenes = make_scenario(spec, CAM)
        radii = [
            sphere_projected_radius(
                CAM.focal_px, s.objects[0].radius, s.objects[0].center[0]
            )
            for s in scenes
        ]
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
        scenes = make_scenario(spec, CAM)
        closest = min(np.linalg.norm(s.objects[0].center) for s in scenes)
        assert closest >= spec.object_radius * 1.05 - 1e-9


# Coordinates on a quarter-unit grid make points land exactly on surfaces;
# arbitrary floats cover the rest.
_COORD = st.one_of(st.integers(-16, 16).map(lambda k: k / 4.0), st.floats(-4.0, 4.0))
_EXTENT = st.one_of(st.integers(1, 8).map(lambda k: k / 4.0), st.floats(0.01, 4.0))
_VEC3 = st.tuples(_COORD, _COORD, _COORD)
_SPHERE = st.builds(Sphere, _VEC3, _EXTENT, st.just(200.0))


def reference_inside_and_gap(sphere, point):
    """Strict containment and the unsigned distance to the solid sphere."""
    dist = float(np.linalg.norm(np.asarray(sphere.center) - point))
    return dist < sphere.radius, dist - sphere.radius


class TestClearance:
    @given(obj=_SPHERE, point=_VEC3)
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_formulas(self, obj, point):
        point = np.asarray(point)
        inside, gap = reference_inside_and_gap(obj, point)
        clearance = obj.clearance(point)
        assert (clearance < 0) == inside
        if not inside:
            assert clearance == gap


# Spheres from behind the camera to well in front of it, across the camera
# plane and off screen; quarter-unit values make rays graze silhouettes.
_DEPTH = st.one_of(st.integers(-12, 32).map(lambda k: k / 4.0), st.floats(-3.0, 8.0))
_SIDE = st.one_of(st.integers(-24, 24).map(lambda k: k / 4.0), st.floats(-6.0, 6.0))
_RADIUS = st.one_of(st.integers(1, 8).map(lambda k: k / 4.0), st.floats(0.02, 2.0))
_SPHERES = st.lists(
    st.builds(Sphere, st.tuples(_DEPTH, _SIDE, _SIDE), _RADIUS, st.just(200.0)),
    min_size=1,
    max_size=3,
)
_CAMERAS = st.builds(
    CameraModel,
    position=st.tuples(*[st.integers(-4, 4).map(lambda k: k / 4.0)] * 3),
    hfov=st.floats(0.2, 3.0),
    width=st.integers(5, 64),
    height=st.integers(5, 64),
)


class TestWindowedRender:
    @given(
        spheres=_SPHERES,
        camera=_CAMERAS,
        occluder=st.one_of(st.none(), st.floats(0.3, 0.9)),
        noise=st.sampled_from([0.0, 5.0]),
    )
    @example(  # behind the camera
        spheres=[Sphere((-2.0, 0.5, 0.0), 0.5, 200.0)],
        camera=CAM,
        occluder=None,
        noise=0.0,
    )
    @example(  # across the camera plane: the full grid
        spheres=[Sphere((0.0, 2.0, 1.0), 1.0, 200.0)],
        camera=CAM,
        occluder=None,
        noise=0.0,
    )
    @example(  # partly off screen, partly hidden behind a nearer sphere
        spheres=[Sphere((2.0, 2.0, 0.5), 0.75, 200.0)],
        camera=CAM,
        occluder=0.5,
        noise=0.0,
    )
    @settings(max_examples=400, deadline=None)
    def test_byte_equal_to_full_grid(self, spheres, camera, occluder, noise):
        """The frame matches a full-grid cast, and the window holds every hit."""
        origin = np.asarray(camera.position)
        if occluder is not None:
            # a smaller sphere part way along the line of sight to the first
            center = origin + occluder * (np.asarray(spheres[0].center) - origin)
            spheres = [*spheres, Sphere(center, 0.5 * spheres[0].radius, 90.0)]
        assume(all(obj.clearance(origin) >= 0 for obj in spheres))
        scene = Scene(objects=tuple(spheres), noise_amplitude=noise)
        frame = render_frame(scene, camera, index=3, seed=1)
        assert np.array_equal(frame.luminance, naive_render(scene, camera, 3, seed=1))
        dirs = _ray_grid(camera.width, camera.height, camera.hfov)
        for obj in spheres:
            offset = tuple(c - p for c, p in zip(obj.center, camera.position))
            rows, cols = _window(offset, obj.radius, camera)
            t = obj.intersect(origin, dirs)
            outside = np.ones(t.shape, dtype=bool)
            outside[rows, cols] = False
            assert not np.any(np.isfinite(t) & outside)
            windowed = obj.intersect(origin, dirs[rows, cols])
            assert np.array_equal(windowed, t[rows, cols])
