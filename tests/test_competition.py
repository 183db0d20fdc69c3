"""Quadrant partition, accumulation, normalization and spike logic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgmd.competition import (
    DetectorState,
    NormParams,
    Quadrant,
    accumulate_quadrants,
    build_quadrant_mask,
    normalize,
    update_spike_state,
)
from clgmd.errors import ConfigError, InputError

from oracles import region_sums


def counts(width, height):
    labels = build_quadrant_mask(width, height)
    return {q: int(np.count_nonzero(labels == q)) for q in Quadrant}


class TestMask:
    def test_known_pixels_100x100(self):
        labels = build_quadrant_mask(100, 100)
        assert labels.dtype == np.uint8 and labels.shape == (100, 100)
        assert labels[5, 50] == Quadrant.UP  # (x=50, y=5)
        assert labels[50, 5] == Quadrant.LEFT  # (x=5, y=50)
        assert labels[95, 50] == Quadrant.DOWN
        assert labels[50, 95] == Quadrant.RIGHT

    def test_partition_is_total_7x7(self):
        assert sum(counts(7, 7).values()) == 49

    def test_up_down_counts_always_equal(self):
        for w, h in ((6, 6), (7, 7), (100, 100), (13, 9), (10, 11)):
            n = counts(w, h)
            assert n[Quadrant.UP] == n[Quadrant.DOWN]

    def test_left_right_counts_equal_for_even_width(self):
        for w, h in ((6, 6), (100, 100), (8, 11), (20, 7)):
            n = counts(w, h)
            assert n[Quadrant.LEFT] == n[Quadrant.RIGHT]

    def test_odd_width_center_column_goes_right(self):
        # the u = 0.5 column cannot split evenly; its band pixels land RIGHT
        n = counts(7, 7)
        assert n[Quadrant.RIGHT] == n[Quadrant.LEFT] + 1

    def test_rotation_maps_quadrants_even_dims(self):
        lab = build_quadrant_mask(100, 100)
        swap = np.array([Quadrant.DOWN, Quadrant.UP, Quadrant.RIGHT, Quadrant.LEFT])
        assert np.array_equal(swap[np.rot90(lab, 2)], lab)

    def test_mirror_swaps_left_right_even_width(self):
        lab = build_quadrant_mask(64, 48)
        swap = np.array([Quadrant.UP, Quadrant.DOWN, Quadrant.RIGHT, Quadrant.LEFT])
        assert np.array_equal(swap[lab[:, ::-1]], lab)

    def test_rotation_odd_dims_exact_off_center(self):
        lab = build_quadrant_mask(9, 9)
        swap = np.array([Quadrant.DOWN, Quadrant.UP, Quadrant.RIGHT, Quadrant.LEFT])
        mapped = swap[np.rot90(lab, 2)]
        mismatch = np.argwhere(mapped != lab)
        assert mismatch.tolist() in ([], [[4, 4]])

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(InputError):
            build_quadrant_mask(4, 10)
        with pytest.raises(InputError):
            build_quadrant_mask(10, 4)


class TestAccumulate:
    def test_all_zero(self):
        mask = build_quadrant_mask(8, 8)
        assert accumulate_quadrants(np.zeros((8, 8)), mask) == (0, 0, 0, 0, 0)

    def test_ones_give_region_counts(self):
        mask = build_quadrant_mask(16, 16)
        u0, d0, l0, r0, k = accumulate_quadrants(np.ones((16, 16)), mask)
        n = counts(16, 16)
        assert (u0, d0, l0, r0) == (
            n[Quadrant.UP],
            n[Quadrant.DOWN],
            n[Quadrant.LEFT],
            n[Quadrant.RIGHT],
        )
        assert k == 256.0

    def test_matches_label_filtered_oracle(self):
        rng = np.random.default_rng(21)
        mask = build_quadrant_mask(16, 16)
        g = rng.uniform(-90.0, 90.0, (16, 16))
        u0, d0, l0, r0, k = accumulate_quadrants(g, mask)
        want = region_sums(g, mask)
        assert (u0, d0, l0, r0) == pytest.approx(want, rel=1e-12)

    def test_uses_magnitudes(self):
        mask = build_quadrant_mask(8, 8)
        pos = accumulate_quadrants(np.ones((8, 8)), mask)
        neg = accumulate_quadrants(-np.ones((8, 8)), mask)
        assert pos == neg

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            w, h = int(rng.integers(5, 40)), int(rng.integers(5, 40))
            mask = build_quadrant_mask(w, h)
            g = rng.uniform(-255.0, 255.0, (h, w))
            u0, d0, l0, r0, k = accumulate_quadrants(g, mask)
            assert k == u0 + d0 + l0 + r0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            accumulate_quadrants(np.zeros((8, 9)), build_quadrant_mask(8, 8))

    def test_rotation_swaps_sums(self):
        rng = np.random.default_rng(23)
        mask = build_quadrant_mask(12, 12)
        g = rng.uniform(-10, 10, (12, 12))
        u0, d0, l0, r0, _ = accumulate_quadrants(g, mask)
        ur, dr, lr, rr, _ = accumulate_quadrants(np.rot90(g, 2), mask)
        # Same magnitudes land in the mirrored fields; only the summation
        # order changes, so allow float accumulation noise.
        assert np.allclose((ur, dr, lr, rr), (d0, u0, r0, l0), rtol=1e-12, atol=0)

    def test_monotonicity_within_region(self):
        mask = build_quadrant_mask(10, 10)
        g = np.zeros((10, 10))
        base = accumulate_quadrants(g, mask)
        g2 = g.copy()
        g2[mask == Quadrant.LEFT] += 5.0
        bumped = accumulate_quadrants(g2, mask)
        assert bumped[2] > base[2]
        assert bumped[0] == base[0] and bumped[1] == base[1] and bumped[3] == base[3]


class TestNormalize:
    def test_zero_activity(self):
        p = normalize(0, 0, 0, 0, 0, NormParams(n_cell=100))
        assert (p.kappa, p.u, p.d, p.l, p.r, p.k_f0) == (0, 0, 0, 0, 0, 0)

    def test_equal_sums_split_evenly(self):
        p = normalize(10, 10, 10, 10, 40, NormParams(n_cell=25))
        assert p.u == p.d == p.l == p.r == pytest.approx(p.kappa / 4.0, rel=1e-12)

    def test_proportional_split_worked_example(self):
        # c2 tuned so kappa lands at 200 for k_f0=100 on a 5x5 field
        params = NormParams(n_cell=25, c2=255.0 / (25.0 * 200.0))
        p = normalize(60, 20, 15, 5, 100, params)
        assert p.kappa == pytest.approx(200.0, abs=1e-5)
        assert (p.u, p.d, p.l, p.r) == pytest.approx((120, 40, 30, 10), abs=1e-4)

    def test_formula_matches_direct_evaluation(self):
        params = NormParams(n_cell=400, c1=0.004, c2=0.005, t_s=120.0)
        k = 9.0
        p = normalize(3, 3, 2, 1, k, params)
        kappa = math.tanh(math.sqrt(k) - 400 * 0.004) / (400 * 0.005) * 255.0
        assert 0.0 < kappa < 255.0  # exercises the unclamped branch
        assert p.kappa == pytest.approx(kappa, rel=1e-12)
        assert p.u == pytest.approx(3 / k * kappa, rel=1e-12)

    def test_negative_sum_rejected(self):
        with pytest.raises(InputError):
            normalize(-1, 0, 0, 0, 0, NormParams(n_cell=25))

    def test_small_activity_clamps_to_zero(self):
        # tanh goes negative below n_cell*c1; clamping must floor at 0
        p = normalize(1, 0, 0, 0, 1, NormParams(n_cell=10000))
        assert p.kappa == 0.0 and p.u == 0.0

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=4, max_size=4),
        st.integers(25, 40000),
    )
    @settings(max_examples=200, deadline=None)
    def test_contract_holds_for_random_sums(self, sums, n_cell):
        u0, d0, l0, r0 = sums
        k = u0 + d0 + l0 + r0
        p = normalize(u0, d0, l0, r0, k, NormParams(n_cell=n_cell))
        assert 0.0 <= p.kappa <= 255.0
        assert p.u + p.d + p.l + p.r == pytest.approx(p.kappa, abs=1e-6)
        for v in p.as_tuple():
            assert 0.0 <= v <= 255.0 + 1e-9


class TestNormParams:
    def test_c2_defaults_to_reciprocal_n_cell(self):
        assert NormParams(n_cell=1234).c2 == pytest.approx(1.0 / 1234)

    def test_for_resolution(self):
        p = NormParams.for_resolution(100, 80)
        assert p.n_cell == 8000

    def test_validation(self):
        with pytest.raises(ConfigError):
            NormParams(n_cell=0)
        with pytest.raises(ConfigError):
            NormParams(n_cell=10, c2=-1.0)
        with pytest.raises(ConfigError):
            NormParams(n_cell=10, n_sp=0)

    def test_disable_threshold_above_255_allowed(self):
        assert NormParams(n_cell=10, t_s=256.0).t_s == 256.0


class TestSpikeState:
    def run_stream(self, kappas, params):
        state = DetectorState()
        flags = []
        for k in kappas:
            state = update_spike_state(k, params, state)
            flags.append(state.collision_confirmed)
        return flags

    def test_all_below_threshold_never_confirms(self):
        params = NormParams(n_cell=100, t_s=150.0, n_sp=4)
        assert self.run_stream([100.0] * 20, params) == [False] * 20

    def test_four_spikes_confirm_at_fourth(self):
        params = NormParams(n_cell=100, t_s=150.0, n_sp=4)
        assert self.run_stream([200, 200, 200, 200], params) == [
            False,
            False,
            False,
            True,
        ]

    def test_gap_resets_the_run(self):
        params = NormParams(n_cell=100, t_s=150.0, n_sp=4)
        flags = self.run_stream([200, 200, 100, 200, 200, 200, 200], params)
        assert flags == [False, False, False, False, False, False, True]

    def test_threshold_is_inclusive(self):
        params = NormParams(n_cell=100, t_s=150.0, n_sp=1)
        assert self.run_stream([150.0], params) == [True]
        assert self.run_stream([149.999], params) == [False]

    def test_kappa_out_of_range_rejected(self):
        params = NormParams(n_cell=100)
        with pytest.raises(InputError):
            update_spike_state(-0.1, params, DetectorState())
        with pytest.raises(InputError):
            update_spike_state(255.1, params, DetectorState())

    @given(st.lists(st.sampled_from([0.0, 255.0]), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_confirmed_iff_trailing_run_long_enough(self, kappas):
        params = NormParams(n_cell=100, t_s=150.0, n_sp=3)
        state = DetectorState()
        for k in kappas:
            state = update_spike_state(k, params, state)
        run = 0
        for k in reversed(kappas):
            if k >= 150.0:
                run += 1
            else:
                break
        assert state.spike_run == run
        assert state.collision_confirmed == (run >= 3)

