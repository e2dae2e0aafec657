"""ADC distance computation and exact brute-force index tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.ivfpq.adc import (
    adc_distances,
    adc_distances_direct,
    lane_sum,
    topk_from_distances,
)
from repro.ivfpq.flat import FlatIndex


class TestLaneSum:
    """lane_sum adds columns in the order np.add.reduce adds a row.

    The grouped kernel's distances and the batched partial sums rely on
    it; a NumPy build that sums in another order fails here instead of
    moving goldens.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 12),
        log_scale=st.floats(-30, 30),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reduce_at_every_width(self, n, log_scale, dtype, seed):
        rng = np.random.default_rng(seed)
        bits = np.uint32 if dtype == np.float32 else np.uint64
        for width in range(1, 301):
            rows = rng.normal(size=(n + 2, width)) * 2.0 ** rng.uniform(
                -8, 8, size=(n + 2, width)
            )
            rows = (rows * 2.0**log_scale).astype(dtype)
            rows[rng.random(rows.shape) < 0.1] = -0.0
            rows[0] = -0.0  # an all-negative-zero row sums to +0.0
            rows[1] = 0.0
            want = np.add.reduce(rows, axis=1, dtype=dtype)
            got = lane_sum(lambda w: rows[:, w].copy(), width)
            assert got.dtype == dtype
            np.testing.assert_array_equal(
                got.view(bits), want.view(bits), err_msg=f"width={width}"
            )


class TestAdc:
    def test_matches_naive_sum(self):
        rng = np.random.default_rng(0)
        lut = rng.random((4, 256)).astype(np.float32)
        codes = rng.integers(0, 256, size=(50, 4)).astype(np.uint8)
        d = adc_distances(codes, lut)
        naive = np.array(
            [sum(lut[s, c] for s, c in enumerate(row)) for row in codes]
        )
        np.testing.assert_allclose(d, naive, rtol=1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            adc_distances(np.zeros((3, 5), np.uint8), np.zeros((4, 256), np.float32))

    def test_single_row(self):
        lut = np.ones((2, 256), dtype=np.float32)
        d = adc_distances(np.zeros((1, 2), np.uint8), lut)
        assert d[0] == pytest.approx(2.0)

    @given(
        n=st.integers(1, 30),
        m=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_direct_addressing_equivalence(self, n, m, seed):
        """Property: direct-address ADC == code-indexed ADC when the
        addresses are the trivial pos*256+code mapping."""
        rng = np.random.default_rng(seed)
        lut = rng.random((m, 256)).astype(np.float32)
        codes = rng.integers(0, 256, size=(n, m)).astype(np.uint8)
        addresses = (np.arange(m)[None, :] * 256 + codes).astype(np.int64)
        lengths = np.full(n, m, dtype=np.int64)
        direct = adc_distances_direct(addresses, lut.reshape(-1), lengths)
        np.testing.assert_allclose(direct, adc_distances(codes, lut), rtol=1e-5)

    def test_direct_respects_lengths(self):
        table = np.arange(10, dtype=np.float32)
        addresses = np.array([[1, 2, -1], [3, -1, -1]], dtype=np.int64)
        lengths = np.array([2, 1])
        d = adc_distances_direct(addresses, table, lengths)
        np.testing.assert_allclose(d, [3.0, 3.0])


class TestTopkFromDistances:
    def test_matches_sort(self):
        rng = np.random.default_rng(1)
        d = rng.random(200).astype(np.float32)
        ids = rng.permutation(200).astype(np.int64)
        top_i, top_d = topk_from_distances(ids, d, 10)
        order = np.argsort(d)[:10]
        np.testing.assert_allclose(top_d, d[order])
        np.testing.assert_array_equal(top_i, ids[order])

    def test_k_larger_than_n(self):
        ids = np.array([5, 6], dtype=np.int64)
        d = np.array([2.0, 1.0], dtype=np.float32)
        top_i, top_d = topk_from_distances(ids, d, 10)
        np.testing.assert_array_equal(top_i, [6, 5])

    def test_empty_input(self):
        top_i, top_d = topk_from_distances(
            np.empty(0, np.int64), np.empty(0, np.float32), 3
        )
        assert top_i.size == 0

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            topk_from_distances(np.array([1]), np.array([1.0]), 0)

    def test_ascending_output(self):
        rng = np.random.default_rng(2)
        d = rng.random(100).astype(np.float32)
        _, top_d = topk_from_distances(np.arange(100), d, 20)
        assert (np.diff(top_d) >= 0).all()


class TestFlatIndex:
    @pytest.fixture(scope="class")
    def flat(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 12)).astype(np.float32)
        idx = FlatIndex(12)
        idx.add(x)
        return idx, x

    def test_exact_against_argsort(self, flat):
        idx, x = flat
        rng = np.random.default_rng(1)
        q = rng.normal(size=(7, 12)).astype(np.float32)
        dists, ids = idx.search(q, 5)
        for i in range(7):
            true = np.argsort(((x - q[i]) ** 2).sum(axis=1))[:5]
            np.testing.assert_array_equal(ids[i], true)

    def test_chunked_search_invariant(self, flat):
        idx, x = flat
        q = x[:4]
        d_big, i_big = idx.search(q, 8, chunk=10_000)
        d_small, i_small = idx.search(q, 8, chunk=37)
        np.testing.assert_array_equal(i_big, i_small)
        np.testing.assert_allclose(d_big, d_small, atol=1e-4)

    def test_self_query_finds_self(self, flat):
        idx, x = flat
        _, ids = idx.search(x[:10], 1)
        np.testing.assert_array_equal(ids[:, 0], np.arange(10))

    def test_custom_ids(self):
        idx = FlatIndex(4)
        x = np.eye(4, dtype=np.float32)
        idx.add(x, ids=np.array([100, 200, 300, 400]))
        _, ids = idx.search(x[:1], 1)
        assert ids[0, 0] == 100

    def test_incremental_add(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 50, 6)).astype(np.float32)
        idx = FlatIndex(6)
        idx.add(a)
        idx.add(b)
        assert idx.ntotal == 100
        _, ids = idx.search(b[:3], 1)
        np.testing.assert_array_equal(ids[:, 0], [50, 51, 52])

    def test_dim_mismatch(self):
        idx = FlatIndex(4)
        with pytest.raises(ConfigError):
            idx.add(np.zeros((2, 5), np.float32))

    def test_empty_search_rejected(self):
        with pytest.raises(ConfigError):
            FlatIndex(4).search(np.zeros((1, 4), np.float32), 1)

    def test_k_capped_at_ntotal(self):
        idx = FlatIndex(3)
        idx.add(np.eye(3, dtype=np.float32))
        d, i = idx.search(np.zeros((1, 3), np.float32), 10)
        assert i.shape == (1, 3)
