"""Layer stack: frame differencing, inhibition kernel, grouping."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clgmd.errors import ConfigError, InputError
from clgmd.layers import (
    CoreParams,
    Frame,
    InhibitionKernel,
    compute_g_layer,
    compute_inhibition,
    compute_p_layer,
    compute_s_layer,
)

from oracles import kernel_weights_by_formula, naive_convolve, naive_group

KERNEL_SUM = 3.4550873627797367  # hand-summed from the 24 reciprocal distances


def frame_pair(rng, h=8, w=8):
    a = rng.integers(0, 256, (h, w))
    b = rng.integers(0, 256, (h, w))
    return Frame(index=0, luminance=a), Frame(index=1, luminance=b)


class TestFrame:
    def test_valid_frame(self):
        f = Frame(index=3, luminance=np.full((5, 7), 128))
        assert (f.width, f.height) == (7, 5)
        assert f.luminance.dtype == np.uint8

    def test_rejects_out_of_range(self):
        for value in (300, -1, math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                Frame(index=0, luminance=np.full((5, 5), value))

    def test_rejects_small_and_non_2d(self):
        with pytest.raises(InputError):
            Frame(index=0, luminance=np.zeros((4, 10)))
        with pytest.raises(InputError):
            Frame(index=0, luminance=np.zeros(25))

    def test_rejects_negative_index(self):
        with pytest.raises(InputError):
            Frame(index=-1, luminance=np.zeros((5, 5)))


class TestKernel:
    def test_structure(self):
        k = InhibitionKernel()
        assert k.weights.shape == (5, 5)
        assert k.weights[2, 2] == 0.0
        assert np.all(k.weights >= 0.0)

    def test_four_fold_symmetry(self):
        w = InhibitionKernel().weights
        assert np.array_equal(w, w[::-1, :])
        assert np.array_equal(w, w[:, ::-1])
        assert np.array_equal(w, w.T)

    def test_entries_match_reciprocal_distance(self):
        w = InhibitionKernel().weights
        assert np.allclose(w, kernel_weights_by_formula(0.25), atol=0.0, rtol=1e-15)

    def test_corner_value(self):
        w = InhibitionKernel().weights
        assert w[0, 0] == pytest.approx(0.25 / math.sqrt(8.0), abs=1e-12)
        assert w[0, 0] == pytest.approx(0.08839, abs=5e-6)

    def test_weight_sum_probe(self):
        total = float(InhibitionKernel().weights.sum())
        assert total == pytest.approx(KERNEL_SUM, rel=1e-12)
        assert abs(total - 3.4551) <= 1e-3


class TestPLayer:
    def test_identical_frames_zero(self):
        img = np.random.default_rng(0).integers(0, 256, (9, 9))
        p = compute_p_layer(Frame(index=0, luminance=img), Frame(index=1, luminance=img))
        assert np.all(p == 0.0)

    def test_single_pixel_step(self):
        base = np.full((8, 8), 100)
        nxt = base.copy()
        nxt[3, 3] = 150
        p = compute_p_layer(Frame(index=0, luminance=base), Frame(index=1, luminance=nxt))
        assert p[3, 3] == 50.0
        assert np.count_nonzero(p) == 1

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        prev, curr = frame_pair(rng)
        p = compute_p_layer(prev, curr)
        expect = np.empty((8, 8))
        for y in range(8):
            for x in range(8):
                expect[y, x] = float(curr.luminance[y, x]) - float(prev.luminance[y, x])
        assert np.array_equal(p, expect)

    def test_dimension_mismatch(self):
        a = Frame(index=0, luminance=np.zeros((8, 8)))
        b = Frame(index=1, luminance=np.zeros((8, 9)))
        with pytest.raises(InputError):
            compute_p_layer(a, b)

    def test_non_consecutive_indices(self):
        a = Frame(index=0, luminance=np.zeros((8, 8)))
        b = Frame(index=2, luminance=np.zeros((8, 8)))
        with pytest.raises(InputError):
            compute_p_layer(a, b)


class TestInhibition:
    def test_zero_in_zero_out(self):
        out = compute_inhibition(
            np.zeros((7, 7)), np.zeros((7, 7)), InhibitionKernel(), CoreParams()
        )
        assert np.all(out == 0.0)

    def test_impulse_imprints_kernel(self):
        src = np.zeros((9, 9))
        src[4, 4] = 1.0
        out = compute_inhibition(src, src, InhibitionKernel(), CoreParams())
        assert np.allclose(out[2:7, 2:7], InhibitionKernel().weights, atol=1e-15)
        assert out[2, 2] == pytest.approx(0.25 / math.sqrt(8.0), abs=1e-12)
        assert np.all(out[0, :] == 0.0) and np.all(out[:, 0] == 0.0)

    def test_constant_ones_interior_equals_weight_sum(self):
        src = np.ones((11, 11))
        out = compute_inhibition(src, src, InhibitionKernel(), CoreParams())
        assert out[5, 5] == pytest.approx(KERNEL_SUM, rel=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(42)
        k, params = InhibitionKernel(), CoreParams()
        for _ in range(10):
            h, w = int(rng.integers(5, 20)), int(rng.integers(5, 20))
            src = rng.uniform(-255.0, 255.0, (h, w))
            got = compute_inhibition(src, src, k, params)
            assert np.max(np.abs(got - naive_convolve(src, k.weights))) <= 1e-12

    def test_delay_selects_source(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(-10, 10, (7, 7))
        delayed = rng.uniform(-10, 10, (7, 7))
        k = InhibitionKernel()
        now = compute_inhibition(p, delayed, k, CoreParams(inhibition_delay=0))
        past = compute_inhibition(p, delayed, k, CoreParams(inhibition_delay=1))
        assert np.array_equal(now, compute_inhibition(p, p, k, CoreParams()))
        assert np.array_equal(past, compute_inhibition(delayed, delayed, k, CoreParams()))

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-50, 50, (9, 9))
        b = rng.uniform(-50, 50, (9, 9))
        k, params = InhibitionKernel(), CoreParams()
        fa = compute_inhibition(a, a, k, params)
        fb = compute_inhibition(b, b, k, params)
        fab = compute_inhibition(a + b, a + b, k, params)
        assert np.allclose(fab, fa + fb, rtol=1e-9, atol=1e-9)
        scaled = compute_inhibition(3.5 * a, 3.5 * a, k, params)
        assert np.allclose(scaled, 3.5 * fa, rtol=1e-9, atol=1e-9)

    def test_mirror_equivariance(self):
        rng = np.random.default_rng(7)
        src = rng.uniform(-100, 100, (10, 12))
        k, params = InhibitionKernel(), CoreParams()
        mirrored_then = compute_inhibition(src[:, ::-1], src[:, ::-1], k, params)
        then_mirrored = compute_inhibition(src, src, k, params)[:, ::-1]
        assert np.allclose(mirrored_then, then_mirrored, atol=1e-12)


class TestSLayer:
    def test_zero_inhibition_passthrough(self):
        e = np.random.default_rng(1).uniform(-10, 10, (6, 6))
        assert np.array_equal(compute_s_layer(e, np.zeros((6, 6))), e)

    def test_cancellation(self):
        e = np.random.default_rng(2).uniform(-10, 10, (6, 6))
        assert np.all(compute_s_layer(e, e) == 0.0)

    def test_matches_subtraction_oracle(self):
        rng = np.random.default_rng(3)
        e = rng.uniform(-10, 10, (6, 6))
        i = rng.uniform(-10, 10, (6, 6))
        s = compute_s_layer(e, i)
        for y in range(6):
            for x in range(6):
                assert s[y, x] == e[y, x] - i[y, x]

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            compute_s_layer(np.zeros((6, 6)), np.zeros((6, 7)))


class TestGLayer:
    def test_zero_propagation(self):
        out = compute_g_layer(np.zeros((8, 8)), CoreParams())
        assert np.all(out == 0.0)

    def test_isolated_impulse_suppressed(self):
        s = np.zeros((9, 9))
        s[4, 4] = 100.0
        out = compute_g_layer(s, CoreParams(t_de=1000.0))
        assert np.all(out == 0.0)

    def test_block_survives_isolated_noise_dies(self):
        s = np.zeros((11, 11))
        s[3:8, 3:8] = 50.0  # dense block
        s[0, 10] = 50.0  # isolated pixel
        out = compute_g_layer(s, CoreParams())
        # interior of the block: Ce=50, omega=0.5+50/4, G=50*50/13=192.3
        assert out[5, 5] == pytest.approx(50.0 * 50.0 / 13.0, rel=1e-12)
        assert np.all(out[4:7, 4:7] != 0.0)
        assert out[0, 10] == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        params = CoreParams()
        for _ in range(8):
            h, w = int(rng.integers(5, 16)), int(rng.integers(5, 16))
            s = rng.uniform(-120.0, 120.0, (h, w))
            got = compute_g_layer(s, params)
            want = naive_group(s, params.delta_c, params.c_w, params.c_de, params.t_de)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_omega_must_stay_positive(self):
        with pytest.raises(ConfigError):
            compute_g_layer(np.zeros((6, 6)), CoreParams(delta_c=0.0))

    @given(
        arrays(
            np.float64,
            (12, 12),
            elements=st.floats(-200, 200, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_grouping_never_creates_excitation(self, s):
        out = compute_g_layer(s, CoreParams())
        assert np.all((out == 0.0) | (s != 0.0))


class TestCoreParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CoreParams(c_w=0.0)
        with pytest.raises(ConfigError):
            CoreParams(t_de=-1.0)
        with pytest.raises(ConfigError):
            CoreParams(inhibition_delay=2)

    def test_grouping_kernel_not_a_parameter(self):
        # The G-layer mean is a fixed 3x3 window, checked against naive_group.
        assert "grouping_kernel_size" not in {f.name for f in fields(CoreParams)}


def test_static_scene_silent_through_core():
    rng = np.random.default_rng(99)
    img = rng.integers(0, 256, (20, 20))
    prev, curr = Frame(index=0, luminance=img), Frame(index=1, luminance=img)
    p = compute_p_layer(prev, curr)
    i = compute_inhibition(p, p, InhibitionKernel(), CoreParams())
    g = compute_g_layer(compute_s_layer(p, i), CoreParams())
    assert np.all(g == 0.0)
