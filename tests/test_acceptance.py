"""Release gate: one test per acceptance criterion.

Each test prints a single measurement line; the conftest summary hook
repeats every criterion as a labelled PASS/FAIL line at the end of the
run.  Tolerances here are contractual, do not loosen them to make a
failing build green.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from clgmd import (
    CameraModel,
    CLgmdPotentials,
    CollisionDetector,
    Direction,
    DetectorState,
    Frame,
    InhibitionKernel,
    NormParams,
    Outcome,
    Placement,
    Quadrant,
    ScenarioSpec,
    SteeringParams,
    TrialConfig,
    accumulate_quadrants,
    build_quadrant_mask,
    compute_inhibition,
    generate_sequence,
    normalize,
    run_trial,
    select_escape,
    update_spike_state,
)
from clgmd.cli import main
from clgmd.stimulus import DEFAULT_NOISE_AMPLITUDE

from oracles import last_argmin, naive_convolve

EXPECTED_INDEX = {
    Direction.UP: int(Quadrant.UP),
    Direction.DOWN: int(Quadrant.DOWN),
    Direction.LEFT: int(Quadrant.LEFT),
    Direction.RIGHT: int(Quadrant.RIGHT),
}

BATTERY_DIRECTIONS = (Direction.UP, Direction.DOWN, Direction.LEFT, Direction.RIGHT)
BATTERY_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class LoomingTrial:
    direction: Direction
    seed: int
    confirmed_at: int | None
    series: tuple[tuple[float, float, float, float], ...]


def _run_looming_trial(
    direction: Direction, seed: int, noise_amplitude: float
) -> LoomingTrial:
    camera = CameraModel()
    spec = ScenarioSpec(
        direction=direction, seed=seed, noise_amplitude=noise_amplitude
    )
    detector = CollisionDetector()
    series: list[tuple[float, float, float, float]] = []
    confirmed_at = None
    for frame in generate_sequence(spec, camera):
        result = detector.process(frame)
        if result is None:
            series.append((0.0, 0.0, 0.0, 0.0))
            continue
        series.append(result.potentials.as_tuple())
        if confirmed_at is None and result.confirmed:
            confirmed_at = result.frame_index
    return LoomingTrial(direction, seed, confirmed_at, tuple(series))


def _run_battery(noise_amplitude: float) -> list[LoomingTrial]:
    return [
        _run_looming_trial(direction, seed, noise_amplitude)
        for direction in BATTERY_DIRECTIONS
        for seed in BATTERY_SEEDS
    ]


@pytest.fixture(scope="module")
def clean_battery():
    return _run_battery(0.0)


@pytest.fixture(scope="module")
def noisy_battery():
    return _run_battery(DEFAULT_NOISE_AMPLITUDE)


def _hits(battery: list[LoomingTrial]) -> int:
    hits = 0
    for trial in battery:
        if trial.confirmed_at is None:
            continue
        values = trial.series[trial.confirmed_at]
        if int(np.argmax(values)) == EXPECTED_INDEX[trial.direction]:
            hits += 1
    return hits


def test_c01_decomposition_identity():
    rng = np.random.default_rng(7)
    masks = {}
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        height = int(rng.integers(5, 65))
        width = int(rng.integers(5, 65))
        mask = masks.get((height, width))
        if mask is None:
            mask = masks.setdefault((height, width), build_quadrant_mask(width, height))
        grid = rng.normal(0.0, 60.0, size=(height, width))
        u0, d0, l0, r0, k_f0 = accumulate_quadrants(grid, mask)
        reference = float(np.abs(grid).sum())
        scale = max(reference, 1.0)
        worst = max(worst, abs((u0 + d0 + l0 + r0) - k_f0) / scale)
        worst = max(worst, abs(k_f0 - reference) / scale)
    elapsed = time.perf_counter() - started
    print(f"worst relative error {worst:.3e}, {elapsed:.2f}s for 1000 grids")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_c02_normalization_contract():
    rng = np.random.default_rng(11)
    params = NormParams()
    vectors = [
        (0.0, 0.0, 0.0, 0.0),
        (5000.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 5000.0),
    ]
    while len(vectors) < 1000:
        scale = 10.0 ** rng.uniform(-3.0, 7.0)
        raw = rng.random(4) * scale
        raw[rng.random(4) < 0.15] = 0.0
        vectors.append(tuple(float(v) for v in raw))
    worst = 0.0
    for u0, d0, l0, r0 in vectors:
        k_f0 = u0 + d0 + l0 + r0
        p = normalize(u0, d0, l0, r0, k_f0, params, n_cell=100 * 100)
        assert 0.0 <= p.kappa <= 255.0
        worst = max(worst, abs((p.u + p.d + p.l + p.r) - p.kappa))
    print(f"worst share-sum error {worst:.3e} over 1000 vectors")
    assert worst <= 1e-6


def test_c03_convolution_oracle():
    kernel = InhibitionKernel()
    probe = abs(float(kernel.weights.sum()) - 3.4551)
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(100):
        height = int(rng.integers(5, 33))
        width = int(rng.integers(5, 33))
        p = rng.uniform(-100.0, 100.0, size=(height, width))
        fast = compute_inhibition(p)
        slow = naive_convolve(p, kernel.weights)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    print(f"worst abs diff {worst:.3e}, kernel-sum probe off by {probe:.2e}")
    assert worst <= 1e-12
    assert probe <= 1e-3


def test_c04_static_scene_silence():
    rng = np.random.default_rng(3)
    image = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
    detector = CollisionDetector()
    confirmed = False
    kappas = []
    for index in range(100):
        result = detector.process(Frame(index, image))
        if result is None:
            continue
        kappas.append(result.potentials.kappa)
        confirmed = confirmed or result.confirmed
    print(f"max kappa {max(kappas):.1f} over 100 identical frames")
    assert kappas and all(k == 0.0 for k in kappas)
    assert not confirmed


def test_c05_direction_discrimination(clean_battery, noisy_battery):
    clean_hits = _hits(clean_battery)
    noisy_hits = _hits(noisy_battery)
    print(f"clean {clean_hits}/40 (need 36), noisy {noisy_hits}/40 (need 32)")
    assert clean_hits >= 36
    assert noisy_hits >= 32


def test_c06_matching_potential_leads(clean_battery):
    margins = []
    for direction in BATTERY_DIRECTIONS:
        trials = [t for t in clean_battery if t.direction is direction]
        assert all(t.confirmed_at is not None for t in trials)
        match = EXPECTED_INDEX[direction]
        for offset in (-3, -2, -1, 0):
            mean = np.mean(
                [t.series[t.confirmed_at + offset] for t in trials], axis=0
            )
            others = [mean[i] for i in range(4) if i != match]
            margins.append(float(mean[match] - max(others)))
            assert mean[match] > max(others)
    print(f"smallest lead margin {min(margins):.2f} over 16 direction/offset cells")


def test_c07_escape_selection_semantics():
    params = SteeringParams()
    order = (Quadrant.UP, Quadrant.DOWN, Quadrant.LEFT, Quadrant.RIGHT)
    checked = 0
    for values in itertools.product((0.0, 1.0, 2.0), repeat=4):
        k_f0 = sum(values)
        kappa = min(k_f0, 255.0)
        pots = CLgmdPotentials(k_f0, kappa, *values)
        command = select_escape(pots, params)
        assert command.quadrant is order[last_argmin(values)]
        assert abs(command.value) == params.speed_0
        checked += 1
    assert checked == 81
    all_equal = select_escape(
        CLgmdPotentials(4.0, 4.0, 1.0, 1.0, 1.0, 1.0), params
    )
    assert all_equal.quadrant is Quadrant.RIGHT
    rng = np.random.default_rng(5)
    for _ in range(100):
        values = tuple(float(v) for v in rng.uniform(0.1, 50.0, size=4))
        scale = float(10.0 ** rng.uniform(-2.0, 2.0))
        base = select_escape(
            CLgmdPotentials(sum(values), min(sum(values), 255.0), *values), params
        )
        scaled_values = tuple(v * scale for v in values)
        scaled = select_escape(
            CLgmdPotentials(
                sum(scaled_values), min(sum(scaled_values), 255.0), *scaled_values
            ),
            params,
        )
        assert scaled.quadrant is base.quadrant
        assert scaled.axis is base.axis
        assert scaled.value == base.value
    print("81 exhaustive patterns and 100 positive scalings agree with the oracle")


def test_c08_closed_loop_avoidance():
    opposing = {
        Placement.LEFT: (1, -1.0),
        Placement.RIGHT: (1, +1.0),
        Placement.UP: (2, -1.0),
        Placement.DOWN: (2, +1.0),
    }
    avoided = 0
    for placement, (axis, sign) in opposing.items():
        trace = run_trial(TrialConfig(placement=placement))
        net = trace.net_displacement()
        assert trace.outcome is Outcome.AVOIDED, placement
        assert net[axis] * sign > 0.0, (placement, net)
        avoided += 1
    disabled = run_trial(
        TrialConfig(
            placement=Placement.CENTERED,
            norm=NormParams(t_s=256.0),
        )
    )
    assert disabled.outcome is Outcome.COLLIDED
    print(f"{avoided}/4 offsets avoided with opposing drift; disabled run collided")


def test_c09_spike_window_rule():
    params = NormParams(t_s=150.0, n_sp=4)
    state = DetectorState()
    flags = []
    for kappa in (200.0, 200.0, 100.0, 200.0, 200.0, 200.0, 200.0):
        state = update_spike_state(kappa, params, state)
        flags.append(state.collision_confirmed)
    print(f"confirmation flags {flags}")
    assert flags == [False, False, False, False, False, False, True]


def test_c10_throughput(tmp_path, capsys):
    spec = ScenarioSpec(direction=Direction.HEAD_ON, frames=200)
    seq_dir = tmp_path / "seq"
    out_csv = tmp_path / "out.csv"
    assert main(["generate", str(seq_dir), "--frames", "200"]) == 0
    capsys.readouterr()
    started = time.perf_counter()
    code = main(["detect", str(seq_dir), "--out", str(out_csv)])
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    fps = spec.frames / elapsed
    print(f"measured {fps:.0f} frames/s at 100x100 (target 50)")
    assert fps >= 50.0
