"""Layer stack: frame differencing, inhibition kernel, grouping."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import clgmd
from clgmd.errors import ConfigError, InputError
from clgmd.layers import (
    C_DE,
    INT16_SOURCE_LIMIT,
    CoreParams,
    Frame,
    InhibitionKernel,
    StencilScratch,
    compute_g_layer,
    compute_inhibition,
    compute_p_layer,
    compute_s_layer,
)

from oracles import (
    dense_group, grouped_convolve, kernel_weights_by_formula, naive_convolve, naive_group,
)

KERNEL_SUM = 3.4550873627797367  # hand-summed from the 24 reciprocal distances

# The smallest frame the detector accepts, and thin strips in either
# orientation, where most kernel taps fall in the zero padding.
EDGE_SHAPES = ((5, 5), (5, 64), (64, 5))


def stencil_shapes(rng, count, high):
    """``count`` random (h, w) shapes in [5, high), then the fixed EDGE_SHAPES."""
    for _ in range(count):
        yield int(rng.integers(5, high)), int(rng.integers(5, high))
    yield from EDGE_SHAPES


def frame_pair(rng, h=8, w=8):
    a = rng.integers(0, 256, (h, w)).astype(np.uint8)
    b = rng.integers(0, 256, (h, w)).astype(np.uint8)
    return Frame(index=0, luminance=a), Frame(index=1, luminance=b)


class TestFrame:
    def test_valid_frame(self):
        lum = np.full((5, 7), 128, dtype=np.uint8)
        f = Frame(index=3, luminance=lum)
        assert (f.width, f.height) == (7, 5)
        assert f.luminance is lum

    def test_rejects_out_of_range(self):
        for value in (300, -1, math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                Frame(index=0, luminance=np.full((5, 5), value))

    @staticmethod
    def assert_rejects_dtype(values):
        # Only the renderer turns an image into pixels; no other dtype is coerced.
        dtype = np.asarray(values).dtype
        message = rf"^luminance must be a 2-D uint8 array, got dtype {dtype}, shape \(5, 5\)$"
        with pytest.raises(InputError, match=message) as info:
            Frame(index=0, luminance=values)
        assert type(info.value) is InputError

    @pytest.mark.parametrize(
        "values",
        [np.full((5, 5), 7 + 0j), np.full((5, 5), 7 + 1j), np.ones((5, 5), dtype=bool),
         np.full((5, 5), "7"), np.full((5, 5), 7, dtype=object)],
        ids=["complex", "complex-imaginary", "bool", "str", "object"],
    )
    def test_rejects_dtypes_other_than_integer_and_real(self, values):
        self.assert_rejects_dtype(values)

    @pytest.mark.parametrize(
        "values",
        [np.full((5, 5), 7.0), np.full((5, 5), 7, dtype=np.int64),
         np.full((5, 5), 7, dtype=np.int16), [[7] * 5] * 5],
        ids=["float64", "int64", "int16", "nested-list"],
    )
    def test_rejects_integer_and_real_dtypes_but_uint8(self, values):
        self.assert_rejects_dtype(values)

    def test_rejects_small_and_non_2d(self):
        with pytest.raises(InputError, match="^frame must be at least 5x5"):
            Frame(index=0, luminance=np.zeros((4, 10), dtype=np.uint8))
        with pytest.raises(InputError, match=r"^luminance must be a 2-D .* shape \(25,\)$"):
            Frame(index=0, luminance=np.zeros(25, dtype=np.uint8))

    def test_rejects_negative_index(self):
        with pytest.raises(InputError, match="^index must be non-negative"):
            Frame(index=-1, luminance=np.zeros((5, 5), dtype=np.uint8))


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
        img = np.random.default_rng(0).integers(0, 256, (9, 9)).astype(np.uint8)
        p = compute_p_layer(Frame(index=0, luminance=img), Frame(index=1, luminance=img))
        assert np.all(p == 0.0)

    def test_single_pixel_step(self):
        base = np.full((8, 8), 100, dtype=np.uint8)
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

    def test_every_uint8_pair_equals_float_subtraction(self):
        # One 256x256 frame pair holds all 65,536 (prev, curr) pairs.
        levels = np.arange(256, dtype=np.uint8)
        prev = Frame(index=0, luminance=np.repeat(levels[:, None], 256, axis=1))
        curr = Frame(index=1, luminance=np.repeat(levels[None, :], 256, axis=0))
        want = curr.luminance.astype(np.float64) - prev.luminance.astype(np.float64)
        p = compute_p_layer(prev, curr)
        assert p.dtype == np.int16 and np.array_equal(p, want)

    def test_dimension_mismatch(self):
        a = Frame(index=0, luminance=np.zeros((8, 8), dtype=np.uint8))
        b = Frame(index=1, luminance=np.zeros((8, 9), dtype=np.uint8))
        with pytest.raises(InputError, match="^frame is 9x8, previous frame is 8x8$"):
            compute_p_layer(a, b)

    def test_non_consecutive_indices(self):
        a = Frame(index=0, luminance=np.zeros((8, 8), dtype=np.uint8))
        b = Frame(index=2, luminance=np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(InputError):
            compute_p_layer(a, b)


class TestInhibition:
    def test_zero_in_zero_out(self):
        assert np.all(compute_inhibition(np.zeros((7, 7))) == 0.0)

    def test_impulse_imprints_kernel(self):
        src = np.zeros((9, 9))
        src[4, 4] = 1.0
        out = compute_inhibition(src)
        assert np.allclose(out[2:7, 2:7], InhibitionKernel().weights, atol=1e-15)
        assert out[2, 2] == pytest.approx(0.25 / math.sqrt(8.0), abs=1e-12)
        assert np.all(out[0, :] == 0.0) and np.all(out[:, 0] == 0.0)

    def test_constant_ones_interior_equals_weight_sum(self):
        out = compute_inhibition(np.ones((11, 11)))
        assert out[5, 5] == pytest.approx(KERNEL_SUM, rel=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(42)
        weights = InhibitionKernel().weights
        for h, w in stencil_shapes(rng, 10, 20):
            src = rng.uniform(-255.0, 255.0, (h, w))
            got = compute_inhibition(src)
            assert np.max(np.abs(got - naive_convolve(src, weights))) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-50, 50, (9, 9))
        b = rng.uniform(-50, 50, (9, 9))
        fa, fb, fab = compute_inhibition(a), compute_inhibition(b), compute_inhibition(a + b)
        assert np.allclose(fab, fa + fb, rtol=1e-9, atol=1e-9)
        scaled = compute_inhibition(3.5 * a)
        assert np.allclose(scaled, 3.5 * fa, rtol=1e-9, atol=1e-9)

    def test_mirror_equivariance(self):
        rng = np.random.default_rng(7)
        src = rng.uniform(-100, 100, (10, 12))
        mirrored_then = compute_inhibition(src[:, ::-1])
        then_mirrored = compute_inhibition(src)[:, ::-1]
        assert np.allclose(mirrored_then, then_mirrored, atol=1e-12)

    @given(st.integers(5, 40), st.integers(5, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_the_grouped_oracle(self, h, w, seed):
        # Non-integer values spanning seven decades make every float sum
        # round, so a tap added out of the documented order shows.
        rng = np.random.default_rng(seed)
        real = rng.uniform(-1.0, 1.0, (h, w)) * 10.0 ** rng.integers(-3, 4, (h, w))
        assert compute_inhibition(real).tobytes() == grouped_convolve(real).tobytes()
        ints = rng.integers(-INT16_SOURCE_LIMIT, INT16_SOURCE_LIMIT + 1, (h, w)).astype(np.int16)
        scratch = StencilScratch(h, w)
        for _ in range(2):
            got = compute_inhibition(ints, scratch=scratch)
            assert got.tobytes() == grouped_convolve(ints).tobytes()


class TestInt16Inhibition:
    """An int16 source within the limit is summed in int16; I is unchanged."""

    @given(
        arrays(
            np.int16,
            array_shapes(min_dims=2, max_dims=2, min_side=5, max_side=40),
            elements=st.integers(-INT16_SOURCE_LIMIT, INT16_SOURCE_LIMIT),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_int16_source_equals_float_source_bit_for_bit(self, src):
        want = compute_inhibition(src.astype(np.float64))
        assert np.array_equal(compute_inhibition(src), want)
        # One scratch serves both dtypes, in either order.
        scratch = StencilScratch(*src.shape)
        for grid in (src, src.astype(np.float64), src):
            got = compute_inhibition(grid, scratch=scratch)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [*EDGE_SHAPES, (37, 23)])
    def test_int16_table_reads_and_writes_contiguous_runs(self, shape):
        # Every pair and group view is one flat run at the padded row
        # pitch, so no add loops row by row.
        pairs, groups, acc, interior = StencilScratch(*shape).taps16
        runs = [view for pair in pairs for view in pair] + [tap for g in groups for tap in g]
        for view in [*runs, acc]:
            assert view.ndim == 1 and view.flags.c_contiguous and view.dtype == np.int16
        assert {tap.size for g in groups for tap in g} == {acc.size}
        assert interior.shape == shape and np.shares_memory(interior, acc)

    @pytest.mark.parametrize(
        "dtype,value",
        [
            (np.int16, INT16_SOURCE_LIMIT + 1),
            (np.int16, -INT16_SOURCE_LIMIT - 1),
            (np.int16, 32767),
            (np.int16, -32768),
            (np.int32, 40000),
            (np.int64, -(2**40)),
        ],
    )
    def test_sums_that_could_overflow_int16_never_wrap(self, dtype, value):
        # A constant grid puts eight copies of the value in the largest group,
        # so an int16 sum of it would wrap.  The result must equal the float
        # path, or the call must raise InputError.
        noise = np.random.default_rng(8).integers(-255, 256, (9, 11))
        for src in (np.full((9, 11), value, dtype=dtype), noise.astype(dtype)):
            src[4, 5] = value
            want = compute_inhibition(src.astype(np.float64))
            try:
                got = compute_inhibition(src)
            except InputError:
                continue
            assert np.array_equal(got, want)
            if np.all(src == value):
                assert got[4, 5] == pytest.approx(value * KERNEL_SUM, rel=1e-12)


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

    def test_int16_p_minus_float_i_equals_float_subtraction(self):
        rng = np.random.default_rng(17)
        prev, curr = frame_pair(rng, 30, 40)
        p16 = compute_p_layer(prev, curr)
        p = p16.astype(np.float64)
        i = compute_inhibition(p)
        s = compute_s_layer(p16, i)
        assert s.dtype == np.float64 and s.tobytes() == (p - i).tobytes()
        # S may be written over the scratch grid that holds I.
        scratch = StencilScratch(30, 40)
        np.copyto(scratch.grid, i)
        assert compute_s_layer(p16, scratch.grid, scratch=scratch) is scratch.grid
        assert scratch.grid.tobytes() == s.tobytes()

    def test_without_a_scratch_s_is_a_fresh_float64_grid(self, monkeypatch):
        rng = np.random.default_rng(5)
        p16 = compute_p_layer(*frame_pair(rng, 30, 40))
        i = compute_inhibition(p16)
        scratch = StencilScratch(30, 40)
        np.copyto(scratch.grid, i)
        over_i = compute_s_layer(p16, scratch.grid, scratch=scratch)

        def build(*shape):
            raise AssertionError(f"built a StencilScratch{shape}")

        monkeypatch.setattr(clgmd.layers, "StencilScratch", build)
        s = compute_s_layer(p16, i)
        assert s.dtype == np.float64 and s.tobytes() == over_i.tobytes()

    def test_s_is_float64_for_a_float32_i(self):
        e, i = np.ones((6, 6), np.int16), np.full((6, 6), 0.1, np.float32)
        s = compute_s_layer(e, i)
        assert s.dtype == np.float64
        assert s.tobytes() == (1.0 - i.astype(np.float64)).tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            compute_s_layer(np.zeros((6, 6)), np.zeros((6, 7)))


# Signed zeros, the smallest subnormal and normal, and magnitudes whose
# products overflow.
G_EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e150, -1e150
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def assert_same_bytes_as_dense(s, params):
    """G from ``compute_g_layer`` has the bytes of ``dense_group``, and its
    scratch lists every non-zero cell of it; returns it.  Only the oracle
    runs under errstate: ``compute_g_layer`` must overflow quietly itself."""
    scratch = StencilScratch(*s.shape)
    got = compute_g_layer(s, params, scratch=scratch)
    with np.errstate(all="ignore"):  # overflow to inf is part of the input range
        want = dense_group(s, params.delta_c, params.c_w, params.t_de)
    assert got is scratch.g
    assert got.tobytes() == want.tobytes()
    assert np.isin(np.flatnonzero(got), scratch.g_cells).all()
    return got


# Reused-scratch steps: (t_de, share of S zeroed).  Dense keeps every cell
# a candidate, empty keeps none, and the raising step's S holds a
# non-finite cell.
G_STEPS = {
    "dense": (0.0, 0.0),
    "sparse": (15.0, 0.3),
    "sparser": (60.0, 0.7),
    "empty": (15.0, 1.0),
    "raise": (15.0, 0.3),
}


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
        for h, w in stencil_shapes(rng, 8, 16):
            s = rng.uniform(-120.0, 120.0, (h, w))
            got = compute_g_layer(s, params)
            want = naive_group(s, params.delta_c, params.c_w, params.t_de)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

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

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=st.one_of(st.sampled_from(G_EDGE_VALUES), st.floats(-300, 300)),
        ),
        st.sampled_from((0.5, 1e-300, 3.0, 1e300)),
        st.sampled_from((4.0, 1e-300, 0.75, 1e300)),
        # Every t_de the constructor accepts, the tuned range and the edge
        # values drawn more often.
        st.one_of(st.sampled_from(G_EDGE_VALUES[::2]), st.floats(0, 1e3), FINITE.map(abs)),
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_dense_grouping(self, s, delta_c, c_w, t_de):
        # tobytes() tells -0.0 from +0.0, which array_equal does not.
        params = CoreParams(delta_c=delta_c, c_w=c_w, t_de=t_de)
        assert_same_bytes_as_dense(s, params)

    def test_cell_exactly_at_threshold_survives(self):
        rng = np.random.default_rng(21)
        s = rng.uniform(-120.0, 120.0, (9, 13))
        dense = dense_group(s, 0.5, 4.0, 0.0)
        for y, x in ((4, 6), (0, 0), (8, 12)):
            g = dense[y, x]
            params = CoreParams(t_de=abs(g) * 0.5)
            out = assert_same_bytes_as_dense(s, params)
            assert out[y, x] == g != 0.0

    @pytest.mark.parametrize("t_de", [CoreParams.t_de, 0.0])
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.floats(-120, 120),
        ),
        st.integers(0, 143),
        st.integers(-2, 2),
    )
    @settings(max_examples=250, deadline=None)
    def test_bytes_equal_dense_grouping_at_the_threshold(self, t_de, s, cell, ulps):
        # S is scaled so that one cell's |S * Ce| / omega lands on
        # t_de / C_DE, then that cell is moved a few ulps either way: the
        # candidate test on the box sum must keep every survivor there.
        params = CoreParams(t_de=t_de)
        y, x = np.unravel_index(cell % s.size, s.shape)
        if t_de > 0:
            padded = np.pad(s, 1)
            ce = sum(padded[dy : dy + s.shape[0], dx : dx + s.shape[1]]
                     for dy in range(3) for dx in range(3)) / 9.0
            p0, m0 = abs(float(s[y, x] * ce[y, x])), float(np.abs(ce).max())
            assume(p0 > 1e-3)
            # a * a * p0 = ratio * (delta_c + a * m0 / c_w), solved for a.
            ratio = params.t_de / C_DE
            b = ratio * m0 / params.c_w
            a = (b + math.sqrt(b * b + 4 * p0 * ratio * params.delta_c)) / (2 * p0)
            s = s * a
        step = math.inf if ulps > 0 else -math.inf
        for _ in range(abs(ulps)):
            s[y, x] = math.nextafter(s[y, x], step)
        assert_same_bytes_as_dense(s, params)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (3, 3), (5, 7)])
    def test_negative_zero_edges_keep_their_sign(self, shape):
        # The zero pad turns a -0.0 edge sum into +0.0; with t_de=0 every
        # cell survives, so each sign shows in G.
        for fill in (-0.0, 0.0):
            assert_same_bytes_as_dense(np.full(shape, fill), CoreParams(t_de=0.0))
        s = np.full(shape, -0.0)
        s[0, 0] = 1e-300
        assert_same_bytes_as_dense(s, CoreParams(t_de=0.0))

    @given(
        st.integers(5, 40),
        st.integers(5, 40),
        st.lists(st.sampled_from(sorted(G_STEPS)), min_size=2, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @example(17, 23, ["sparse", "dense", "raise", "sparser", "empty", "dense", "sparse"], 0)
    @settings(max_examples=60, deadline=None)
    def test_one_scratch_serves_calls_of_every_survivor_count(self, h, w, steps, seed):
        # Candidate sets that grow, shrink, empty and fill a reused scratch:
        # a cell the last call wrote and this one did not re-zero would
        # show against a fresh scratch.  A raising call, on an S with a
        # non-finite cell, writes nothing.
        # The row sums' zero border must stay +0.0, since every call reads it.
        rng = np.random.default_rng(seed)
        scratch = StencilScratch(h, w)
        for step in steps:
            t_de, zeros = G_STEPS[step]
            s = rng.uniform(-120.0, 120.0, (h, w))
            s[rng.random(s.shape) < zeros] = 0.0
            params = CoreParams(t_de=t_de)
            if step == "raise":
                s.flat[rng.integers(s.size)] = rng.choice([math.nan, math.inf, -math.inf])
                grid, cells = scratch.g.tobytes(), scratch.g_cells
                with pytest.raises(InputError, match="^S must be finite"):
                    compute_g_layer(s, params, scratch=scratch)
                assert scratch.g.tobytes() == grid and scratch.g_cells is cells
                continue
            want = compute_g_layer(s, params)
            assert compute_g_layer(s, params, scratch=scratch) is scratch.g
            assert scratch.g.tobytes() == want.tobytes()
            cells = scratch.g_cells
            assert np.all(np.diff(cells) > 0)
            assert np.isin(np.flatnonzero(want), cells).all()
            if step == "dense":
                assert cells.size == h * w
            border = scratch.rows[[0, -1]]
            assert border.tobytes() == np.zeros((2, w)).tobytes()

    @pytest.mark.parametrize(
        "cells",
        [{(6, 1): bad} for bad in (math.nan, math.inf, -math.inf)]
        + [{(6, 1): math.inf, (6, 2): -math.inf}, {(6, x): 1e308 for x in (1, 2, 3)}],
        ids=["nan", "inf", "-inf", "inf-beside-minus-inf", "overflowing-sum"],
    )
    def test_non_finite_s_raises_and_writes_nothing(self, cells):
        # Unchecked, a NaN gave an all-zero G and an infinity a warning or
        # a coerced G, and inf + -inf or 1e308 + 1e308 in the box sum's adds
        # a bare RuntimeWarning under -W error; now each raises, warning
        # nothing, before G or its cell list changes.
        s = np.zeros((8, 8))
        s[2:5, 3:6] = 40.0
        scratch = StencilScratch(8, 8)
        compute_g_layer(s, CoreParams(), scratch=scratch)
        assert scratch.g_cells.size == 9
        grid, kept = scratch.g.tobytes(), scratch.g_cells
        for at, value in cells.items():
            s[at] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^S must be finite"):
                compute_g_layer(s, CoreParams(), scratch=scratch)
        assert scratch.g.tobytes() == grid and scratch.g_cells is kept

    def test_overflowing_product_gives_inf_quietly(self):
        # Finite box sums whose product with S overflows give the dense
        # oracle's infinities, with no numpy warning.
        s = np.full((8, 8), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = compute_g_layer(s, CoreParams())
        with np.errstate(all="ignore"):
            want = dense_group(s, 0.5, 4.0, 15.0)
        assert np.isinf(g).all() and g.tobytes() == want.tobytes()

    def test_a_fresh_scratch_lists_no_cell(self):
        scratch = StencilScratch(6, 7)
        assert scratch.g.tobytes() == np.zeros((6, 7)).tobytes()
        assert scratch.g_cells.size == 0 and scratch.g_cells.dtype == np.intp

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(22)
        s = rng.uniform(-120.0, 120.0, (17, 23))
        s[rng.random(s.shape) < 0.4] = 0.0
        params = CoreParams(t_de=5.0)
        want = compute_g_layer(s, params).copy()
        assert np.count_nonzero(want) > 0
        transposed = np.ascontiguousarray(s.T).T
        strided = np.full((34, 46), np.nan)
        strided[::2, ::2] = s
        for grid in (transposed, strided[::2, ::2]):
            assert not grid.flags.c_contiguous
            assert compute_g_layer(grid, params).tobytes() == want.tobytes()

    def test_g_has_the_shape_of_s_and_no_out(self):
        g = compute_g_layer(np.ones((6, 6)), CoreParams())
        assert g.shape == (6, 6) and g.flags.c_contiguous
        with pytest.raises(TypeError):
            compute_g_layer(np.ones((6, 6)), CoreParams(), out=np.empty((5, 5)))


class TestScratchShape:
    """A scratch sized for another grid raises InputError naming both
    shapes, and nothing is written; so does a grid that is not 2-D or
    has no cells."""

    def test_inhibition_scratch_of_another_shape(self):
        scratch = StencilScratch(7, 7)
        scratch.grid.fill(np.nan)
        before = scratch.padded16.tobytes(), scratch.tmp.tobytes()
        for source in (np.ones((6, 6), np.int16), np.ones((6, 6))):
            with pytest.raises(InputError, match=r"^scratch shape \(7, 7\) .* \(6, 6\)$"):
                compute_inhibition(source, scratch=scratch)
        assert (scratch.padded16.tobytes(), scratch.tmp.tobytes()) == before
        assert np.all(np.isnan(scratch.grid))

    def test_s_scratch_of_another_shape(self):
        scratch = StencilScratch(7, 7)
        scratch.grid.fill(np.nan)
        with pytest.raises(InputError, match=r"^scratch shape \(7, 7\) .* \(6, 6\)$"):
            compute_s_layer(np.ones((6, 6), np.int16), np.ones((6, 6)), scratch=scratch)
        assert np.all(np.isnan(scratch.grid))

    @pytest.mark.parametrize("shape", [(36,), (6, 6, 2)])
    def test_a_grid_that_is_not_2d(self, shape):
        message = rf"^layer grid must be 2-D, got shape {re.escape(str(shape))}$"
        grid = np.ones(shape)
        for call in (
            lambda: compute_inhibition(grid),
            lambda: compute_s_layer(grid, grid),
            lambda: compute_g_layer(grid, CoreParams()),
        ):
            with pytest.raises(InputError, match=message):
                call()

    @pytest.mark.parametrize(
        "shape", [(0, 0), (5, 0), (0, 5)], ids=["0-by-0", "5-by-0", "0-by-5"]
    )
    def test_a_grid_with_no_cells(self, shape):
        # Each layer refuses an empty grid with InputError, not a numpy error.
        message = rf"^layer grid must not be empty, got shape {re.escape(str(shape))}$"
        grid = np.zeros(shape)
        for call in (
            lambda: compute_inhibition(grid),
            lambda: compute_s_layer(grid, grid),
            lambda: compute_g_layer(grid, CoreParams()),
        ):
            with pytest.raises(InputError, match=message):
                call()

    def test_g_scratch_of_another_shape(self):
        scratch = StencilScratch(7, 7)
        compute_g_layer(np.full((7, 7), 50.0), CoreParams(), scratch=scratch)
        grid, rows, cells = scratch.g.tobytes(), scratch.rows.tobytes(), scratch.g_cells
        with pytest.raises(InputError, match=r"^scratch shape \(7, 7\) .* \(6, 6\)$"):
            compute_g_layer(np.ones((6, 6)), CoreParams(), scratch=scratch)
        assert scratch.g.tobytes() == grid and scratch.rows.tobytes() == rows
        assert scratch.g_cells is cells and cells.size == 49


class TestCoreParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CoreParams(c_w=0.0)
        with pytest.raises(ConfigError):
            CoreParams(t_de=-1.0)
        with pytest.raises(ConfigError):
            CoreParams(inhibition_delay=2)
        # A NaN delta_c would decay every cell of G; nothing is coerced.
        for name in ("delta_c", "c_w", "t_de"):
            for bad in (math.nan, math.inf, -math.inf, True, False, "0.5", None, 10**400):
                with pytest.raises(ConfigError, match=name):
                    CoreParams(**{name: bad})

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e308])
    def test_delta_c_must_be_positive(self, bad):
        # delta_c > 0 keeps the grouping scale delta_c + max|Ce| / c_w
        # positive on every frame, a static one included.
        with pytest.raises(ConfigError, match="^delta_c must be positive"):
            CoreParams(delta_c=bad)

    def test_fields(self):
        # The decay coefficient is the constant C_DE, not a knob.
        names = [f.name for f in fields(CoreParams)]
        assert names == ["inhibition_delay", "delta_c", "c_w", "t_de"]
        assert C_DE == 0.5
        with pytest.raises(TypeError):
            CoreParams(c_de=0.5)

    def test_grouping_kernel_not_a_parameter(self):
        # The G-layer mean is a fixed 3x3 window, checked against naive_group.
        assert "grouping_kernel_size" not in {f.name for f in fields(CoreParams)}


def test_static_scene_silent_through_core():
    rng = np.random.default_rng(99)
    img = rng.integers(0, 256, (20, 20)).astype(np.uint8)
    prev, curr = Frame(index=0, luminance=img), Frame(index=1, luminance=img)
    p = compute_p_layer(prev, curr)
    i = compute_inhibition(p)
    g = compute_g_layer(compute_s_layer(p, i), CoreParams())
    assert np.all(g == 0.0)


def test_package_imports_without_scipy():
    src = str(Path(clgmd.__file__).resolve().parents[1])
    code = (
        "import sys, clgmd, clgmd.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"
