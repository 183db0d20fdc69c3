"""CollisionDetector: reused layer buffers and per-frame allocations."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgmd import detector as detector_module
from clgmd.competition import NormParams, accumulate_quadrants, build_quadrant_mask, normalize
from clgmd.detector import CollisionDetector
from clgmd.errors import InputError
from clgmd.layers import (
    CoreParams,
    Frame,
    StencilScratch,
    compute_g_layer,
    compute_inhibition,
    compute_p_layer,
    compute_s_layer,
)
from clgmd.stimulus import CameraModel, Direction, ScenarioSpec, generate_sequence


def stress_frames(height, width, count=40):
    """Noise frames of varying contrast, with all-0 and all-255 frames among
    them, so a stale pad border or a stale previous P changes the
    potentials."""
    rng = np.random.default_rng(height * 1000 + width)
    frames = []
    for index in range(count):
        if index in (7, 21, 22):
            lum = np.zeros((height, width), dtype=np.uint8)
        elif index in (8, 9, 30):
            lum = np.full((height, width), 255, dtype=np.uint8)
        else:
            amplitude = int(rng.integers(8, 256))
            lum = rng.integers(0, amplitude, (height, width)).astype(np.uint8)
        frames.append(Frame(index, lum))
    return frames


@pytest.mark.parametrize("delay", [0, 1])
@pytest.mark.parametrize("height,width", [(100, 100), (23, 37)])
def test_reused_buffers_match_fresh_layers(height, width, delay):
    core = CoreParams(inhibition_delay=delay)
    detector = CollisionDetector(core=core)
    frames = stress_frames(height, width)
    assert detector.process(frames[0]) is None
    mask = build_quadrant_mask(width, height)
    prev_p = None
    for prev, curr in zip(frames, frames[1:]):
        # The float64 P takes the float64 inhibition path, the oracle of
        # the detector's int16 one.
        p = compute_p_layer(prev, curr).astype(np.float64)
        # Delay 1 spreads the previous frame's P, once there is one.
        i = compute_inhibition(prev_p if delay and prev_p is not None else p)
        g = compute_g_layer(compute_s_layer(p, i), core)
        want = normalize(*accumulate_quadrants(g, mask), NormParams(), n_cell=width * height)
        got = detector.process(curr).potentials
        assert got == want, f"frame {curr.index}"
        prev_p = p


@pytest.mark.parametrize("core", [CoreParams(), CoreParams(t_de=0.0)], ids=["default", "t_de=0"])
@pytest.mark.parametrize("height,width", [(100, 100), (23, 37)])
def test_s_over_i_and_g_in_the_scratch_match_fresh_layers(height, width, core):
    # The detector keeps I and S in the scratch's one grid, S written over
    # I, and G in the scratch's own grid, whose listed cells the quadrant
    # sums bin.
    scratch = StencilScratch(height, width)
    mask = build_quadrant_mask(width, height)
    frames = stress_frames(height, width)
    for prev, curr in zip(frames, frames[1:]):
        p = compute_p_layer(prev, curr)
        i = compute_inhibition(p)
        s = compute_s_layer(p, i)
        g = compute_g_layer(s, core).copy()
        grid = compute_inhibition(p, scratch=scratch)
        assert grid is scratch.grid and grid.tobytes() == i.tobytes(), f"I, frame {curr.index}"
        assert compute_s_layer(p, grid, scratch=scratch) is grid
        assert grid.tobytes() == s.tobytes(), f"S, frame {curr.index}"
        assert compute_g_layer(grid, core, scratch=scratch) is scratch.g
        assert scratch.g.tobytes() == g.tobytes(), f"G, frame {curr.index}"
        sums = accumulate_quadrants(scratch.g, mask, scratch.g_cells)
        assert [x.hex() for x in sums] == [x.hex() for x in accumulate_quadrants(g, mask)]


def test_first_frame_sizes_the_detector():
    detector = CollisionDetector()
    frames = stress_frames(23, 37, count=3)
    assert detector.process(frames[0]) is None
    assert detector.process(frames[1]).frame_index == 1
    other = Frame(2, np.zeros((37, 23), dtype=np.uint8))
    with pytest.raises(InputError, match="^frame is 23x37, previous frame is 37x23$"):
        detector.process(other)
    assert detector.process(frames[2]).frame_index == 2


def test_size_and_parameters_are_not_positional():
    for args in ((100, 100), (100, 100, CoreParams()), (CoreParams(),)):
        with pytest.raises(TypeError):
            CollisionDetector(*args)


def test_delayed_inhibition_spreads_the_previous_p(monkeypatch):
    # With inhibition_delay 1, frame t's S is P_t - I(P_t-1); the first
    # processed frame has no previous P and inhibits its own.
    seen = []

    def recording(e, i, **kwargs):
        s = compute_s_layer(e, i, **kwargs)
        seen.append(s.copy())
        return s

    monkeypatch.setattr(detector_module, "compute_s_layer", recording)
    detector = CollisionDetector(core=CoreParams(inhibition_delay=1))
    frames = stress_frames(23, 37, count=6)
    for frame in frames:
        detector.process(frame)
    ps = [compute_p_layer(a, b) for a, b in zip(frames, frames[1:])]
    assert len(seen) == len(ps)
    for p, source, s in zip(ps, [ps[0], *ps[:-1]], seen):
        assert np.array_equal(s, p - compute_inhibition(source))
    assert not np.array_equal(seen[1], ps[1] - compute_inhibition(ps[1]))


# The clgmd.detector globals the benchmark tracer wraps to time each layer.
TRACED_GLOBALS = (
    "compute_p_layer",
    "compute_inhibition",
    "compute_s_layer",
    "compute_g_layer",
    "accumulate_quadrants",
    "normalize",
    "update_spike_state",
)


@pytest.mark.parametrize("delay", [0, 1])
def test_process_calls_each_traced_global_once_per_frame(monkeypatch, delay):
    # A stage called some other way would read 0 us in the per-layer trace.
    calls = dict.fromkeys(TRACED_GLOBALS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in TRACED_GLOBALS:
        monkeypatch.setattr(detector_module, name, counting(name, getattr(detector_module, name)))
    detector = CollisionDetector(core=CoreParams(inhibition_delay=delay))
    frames = stress_frames(23, 37, count=12)
    detector.process(frames[0])
    assert calls == dict.fromkeys(TRACED_GLOBALS, 0)
    for n, frame in enumerate(frames[1:], start=1):
        detector.process(frame)
        assert calls == dict.fromkeys(TRACED_GLOBALS, n)


def peak_allocation_in_grids(frames, height, width, layer=None):
    """Largest new allocation of one steady-state ``process``, in float64
    grids, on the frames after the first four.  Given the name of a
    ``clgmd.detector`` global, only the calls to it within ``process``
    are measured."""
    detector = CollisionDetector(core=CoreParams(inhibition_delay=1))
    for frame in frames[:4]:
        detector.process(frame)
    grid_bytes = height * width * 8
    peaks = []

    def measured(fn):
        def wrapper(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / grid_bytes)
            return result

        return wrapper

    process = detector.process
    with pytest.MonkeyPatch.context() as patch:
        if layer is None:
            process = measured(process)
        else:
            patch.setattr(detector_module, layer, measured(getattr(detector_module, layer)))
        tracemalloc.start()
        try:
            for frame in frames[4:]:
                process(frame)
        finally:
            tracemalloc.stop()
    print(f"peak new allocation per {layer or 'frame'}, in grids: {max(peaks):.2f}")
    return max(peaks)


@pytest.mark.parametrize("height,width", [(100, 100), (240, 320)])
def test_steady_state_frame_allocates_under_three_grids(height, width):
    rng = np.random.default_rng(0)
    frames = [
        Frame(i, rng.integers(0, 256, (height, width), dtype=np.uint8)) for i in range(8)
    ]
    assert peak_allocation_in_grids(frames, height, width) < 3.0


def test_looming_frame_allocates_under_half_a_grid():
    # On a looming sequence G keeps under 2 % of its cells, and the
    # quadrant sums allocate only for those.
    spec = ScenarioSpec(seed=0, noise_amplitude=5.0)
    frames = list(generate_sequence(spec, CameraModel(width=320, height=240)))
    assert peak_allocation_in_grids(frames, 240, 320) < 0.5


def test_looming_g_layer_allocates_under_a_tenth_of_a_grid():
    # The G layer's candidate indices and values follow the few cells that
    # can survive the decay, not the grid.
    spec = ScenarioSpec(seed=0, noise_amplitude=5.0)
    frames = list(generate_sequence(spec, CameraModel(width=320, height=240)))
    assert peak_allocation_in_grids(frames, 240, 320, layer="compute_g_layer") < 0.1


def changes_and_spikes(size, direction):
    """On the seed-0 sequence at size x size and 90 degrees: the frames whose
    noise-free render differs from the one before, the frames on which the
    detector spikes with noise 5, and those on which it confirms."""
    camera = CameraModel(width=size, height=size, hfov_deg=90.0)
    clean = list(generate_sequence(ScenarioSpec(direction=direction), camera))
    changed = {
        b.index for a, b in zip(clean, clean[1:])
        if not np.array_equal(a.luminance, b.luminance)
    }
    noisy = generate_sequence(ScenarioSpec(direction=direction, noise_amplitude=5.0), camera)
    detector = CollisionDetector()
    results = [detector.process(frame) for frame in noisy][1:]
    spikes = {r.frame_index for r in results if r.spike}
    return changed, spikes, [r.frame_index for r in results if r.confirmed]


# A pixel takes the obstacle's luminance when the ray through its centre
# hits, so the outline moves only on the frames where it crosses a centre.
# These pin what that does to the detector today, at the paper's 100x100
# and at 50x50, where no run of spikes long enough to confirm forms.
@pytest.mark.parametrize(
    "direction, spikes_at_100",
    [(Direction.UP, 67), (Direction.DOWN, 66), (Direction.LEFT, 67), (Direction.RIGHT, 66)],
)
def test_spikes_fall_on_frames_whose_outline_moved(direction, spikes_at_100):
    changed, spikes, confirmed = changes_and_spikes(50, direction)
    assert len(changed) == 40 and len({i for i in changed if i >= 60}) == 28
    assert spikes == changed | {62}
    assert confirmed == []
    changed, spikes, confirmed = changes_and_spikes(100, direction)
    assert len(changed) == 96 and len(spikes) == spikes_at_100 and spikes <= changed
    assert confirmed[0] == 64


def _outputs(frames, core):
    """k_f0, kappa, u, d, l, r as float64 bytes, then spike and confirmed,
    for each processed frame."""
    detector = CollisionDetector(core=core)
    results = [detector.process(frame) for frame in frames][1:]
    return [
        (np.array(dataclasses.astuple(r.potentials)).tobytes(), r.spike, r.confirmed)
        for r in results
    ]


@settings(max_examples=100, deadline=None)
@given(
    height=st.integers(5, 64),
    width=st.integers(5, 64),
    delay=st.sampled_from([0, 1]),
    t_de=st.floats(0.0, 30.0),
    noise=st.booleans(),
    rendered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverted_luminance_leaves_every_output_bit_identical(
    height, width, delay, t_de, noise, rendered, seed
):
    # Noise applies to the rendered approach; random frames span 0-255.
    # P is the signed frame difference, so 255 - frame negates P, I and S
    # exactly; Ce flips sign with S, and the grouping scale takes the
    # larger of max(Ce) and -min(Ce), so G = S * Ce / scale is unchanged.
    if rendered:
        spec = ScenarioSpec(
            direction=Direction.LEFT, distance=1.5, frames=8, seed=seed % 1000,
            noise_amplitude=5.0 if noise else 0.0,
        )
        frames = list(generate_sequence(spec, CameraModel(width=width, height=height)))
    else:
        rng = np.random.default_rng(seed)
        frames = [Frame(i, rng.integers(0, 256, (height, width), dtype=np.uint8)) for i in range(8)]
    inverted = [Frame(f.index, 255 - f.luminance) for f in frames]
    core = CoreParams(inhibition_delay=delay, t_de=t_de)
    assert _outputs(inverted, core) == _outputs(frames, core)
