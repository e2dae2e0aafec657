"""Opt4 top-k tests: heap correctness and pruning equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import (
    row_topk,
    scan_topk_fast,
    scan_topk_fast_batch,
    scan_topk_fast_batch_flat,
)
from repro.errors import ConfigError

from .heap_refs import (
    BoundedMaxHeap,
    merge_heaps_naive,
    merge_heaps_pruned,
    scan_topk_threaded,
)


def exact_topk(values, ids, k):
    order = np.argsort(values, kind="stable")[:k]
    return values[order], ids[order]


class TestBoundedMaxHeap:
    def test_retains_k_smallest(self):
        rng = np.random.default_rng(0)
        v = rng.random(100).astype(np.float32)
        h = BoundedMaxHeap(10)
        h.push_many(v, np.arange(100))
        got_v, _ = h.sorted_ascending()
        np.testing.assert_allclose(np.sort(got_v), np.sort(v)[:10])

    def test_root_is_kth_best(self):
        h = BoundedMaxHeap(3)
        for i, v in enumerate([5.0, 1.0, 3.0, 2.0]):
            h.push(v, i)
        assert h.root == pytest.approx(3.0)

    def test_root_inf_until_full(self):
        h = BoundedMaxHeap(3)
        h.push(1.0, 0)
        assert h.root == float("inf")

    def test_rejects_worse_candidates(self):
        h = BoundedMaxHeap(2)
        h.push(1.0, 0)
        h.push(2.0, 1)
        assert not h.push(3.0, 2)
        assert h.push(0.5, 3)

    def test_heap_invariant_maintained(self):
        rng = np.random.default_rng(1)
        h = BoundedMaxHeap(16)
        h.push_many(rng.random(200).astype(np.float32), np.arange(200))
        v = h.values[: h.size]
        for i in range(h.size):
            left, right = 2 * i + 1, 2 * i + 2
            if left < h.size:
                assert v[i] >= v[left]
            if right < h.size:
                assert v[i] >= v[right]

    def test_comparison_counting(self):
        h = BoundedMaxHeap(4)
        h.push_many(np.arange(50, dtype=np.float32), np.arange(50))
        assert h.stats.comparisons > 0
        assert h.stats.insertions >= 4

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            BoundedMaxHeap(0)

    def test_ids_follow_values(self):
        v = np.array([4.0, 2.0, 3.0, 1.0], dtype=np.float32)
        h = BoundedMaxHeap(2)
        h.push_many(v, np.array([40, 20, 30, 10]))
        got_v, got_i = h.sorted_ascending()
        np.testing.assert_array_equal(got_i, [10, 20])


class TestMerge:
    def _make_heaps(self, seed, t=4, n=120, k=6):
        rng = np.random.default_rng(seed)
        v = rng.random(n).astype(np.float32)
        ids = np.arange(n)
        heaps = []
        for i in range(t):
            h = BoundedMaxHeap(k)
            h.push_many(v[i::t], ids[i::t])
            heaps.append(h)
        return heaps, v, ids, k

    def test_pruned_equals_naive_results(self):
        for seed in range(5):
            heaps_a, v, ids, k = self._make_heaps(seed)
            heaps_b, *_ = self._make_heaps(seed)
            pv, pi, _ = merge_heaps_pruned(heaps_a, k)
            nv, ni, _ = merge_heaps_naive(heaps_b, k)
            np.testing.assert_allclose(pv, nv)
            np.testing.assert_array_equal(pi, ni)

    def test_merge_equals_exact(self):
        heaps, v, ids, k = self._make_heaps(7)
        pv, pi, _ = merge_heaps_pruned(heaps, k)
        ev, ei = exact_topk(v, ids, k)
        np.testing.assert_allclose(pv, ev)

    def test_pruning_skips_work(self):
        """Figure 9/15: pruning skips a large share of insertions."""
        heaps_a, _, _, k = self._make_heaps(3, t=8, n=800, k=10)
        heaps_b, *_ = self._make_heaps(3, t=8, n=800, k=10)
        _, _, pruned_stats = merge_heaps_pruned(heaps_a, k)
        assert pruned_stats.pruned > 0

    def test_empty_heaps(self):
        heaps = [BoundedMaxHeap(5) for _ in range(3)]
        v, i, _ = merge_heaps_pruned(heaps, 5)
        assert v.size == 0


class TestScanTopk:
    @given(
        n=st.integers(1, 300),
        k=st.integers(1, 20),
        t=st.integers(1, 16),
        seed=st.integers(0, 2000),
        prune=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_threaded_scan_equals_exact(self, n, k, t, seed, prune):
        """Property: thread-striped scan + (pruned) merge == exact top-k,
        for any stripe count, k and input."""
        rng = np.random.default_rng(seed)
        v = rng.random(n).astype(np.float32)
        ids = rng.permutation(n).astype(np.int64)
        got_v, got_i, _ = scan_topk_threaded(v, ids, k, t, prune=prune)
        ev, ei = exact_topk(v, ids, min(k, n))
        np.testing.assert_allclose(got_v, ev)
        np.testing.assert_array_equal(got_i, ei)

    @given(
        n=st.integers(1, 500),
        k=st.integers(1, 20),
        t=st.integers(1, 16),
        seed=st.integers(0, 2000),
        prune=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_scan_equals_exact(self, n, k, t, seed, prune):
        """Property: the vectorized fast path is result-identical."""
        rng = np.random.default_rng(seed)
        v = rng.random(n).astype(np.float32)
        ids = rng.permutation(n).astype(np.int64)
        got_v, got_i, _ = scan_topk_fast(v, ids, k, t, prune=prune)
        ev, ei = exact_topk(v, ids, min(k, n))
        np.testing.assert_allclose(got_v, ev)
        np.testing.assert_array_equal(got_i, ei)

    def test_fast_pruning_stats_positive(self):
        rng = np.random.default_rng(0)
        v = rng.random(2000).astype(np.float32)
        _, _, stats = scan_topk_fast(v, np.arange(2000), 10, 11, prune=True)
        assert stats.pruned > 0

    def test_pruned_does_less_merge_work_than_naive(self):
        """The paper reports 68 % of comparisons skipped; directionally,
        pruning must reduce total comparisons."""
        rng = np.random.default_rng(1)
        v = rng.random(5000).astype(np.float32)
        ids = np.arange(5000)
        _, _, pruned = scan_topk_fast(v, ids, 50, 11, prune=True)
        _, _, naive = scan_topk_fast(v, ids, 50, 11, prune=False)
        assert pruned.comparisons < naive.comparisons

    def test_invalid_tasklets(self):
        with pytest.raises(ConfigError):
            scan_topk_fast(np.ones(3, np.float32), np.arange(3), 1, 0)


def stats_tuple(s):
    return (s.comparisons, s.insertions, s.pruned, s.merge_comparisons)


class TestScanTopkBatch:
    """The grouped kernel's batched selection must match per-group calls
    exactly — results and the work statistics that feed charged cycles."""

    def assert_batch_matches_pergroup(self, values_list, ids_list, k, t, prune=True):
        batched = scan_topk_fast_batch(values_list, ids_list, k, t, prune=prune)
        assert len(batched) == len(values_list)
        for (bv, bi, bs), v, ids in zip(batched, values_list, ids_list):
            gv, gi, gs = scan_topk_fast(v, ids, k, t, prune=prune)
            np.testing.assert_array_equal(bv, gv)
            np.testing.assert_array_equal(bi, gi)
            assert stats_tuple(bs) == stats_tuple(gs)

    @given(
        n_groups=st.integers(1, 12),
        k=st.integers(1, 16),
        t=st.integers(1, 16),
        seed=st.integers(0, 2000),
        prune=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_per_group(self, n_groups, k, t, seed, prune):
        rng = np.random.default_rng(seed)
        values_list, ids_list = [], []
        for _ in range(n_groups):
            n = int(rng.integers(0, 120))
            values_list.append(rng.random(n).astype(np.float32))
            ids_list.append(rng.permutation(n).astype(np.int64))
        self.assert_batch_matches_pergroup(values_list, ids_list, k, t, prune)

    @given(
        sizes=st.lists(st.sampled_from([0, 1, 3, 17, 40]), min_size=1, max_size=30),
        k=st.integers(1, 12),
        t=st.integers(1, 11),
        prune=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_repeated_sizes_equal_per_group(self, sizes, k, t, prune):
        """Groups of one size share their local-scan terms (computed
        once per distinct size); each group's statistics stay its own."""
        rng = np.random.default_rng(len(sizes))
        values_list = [rng.random(n).astype(np.float32) for n in sizes]
        ids_list = [rng.permutation(n).astype(np.int64) for n in sizes]
        self.assert_batch_matches_pergroup(values_list, ids_list, k, t, prune)

    def test_k_exceeds_total_candidates(self):
        """k larger than any group's candidate count returns everything,
        sorted, with no padding artifacts."""
        rng = np.random.default_rng(2)
        values_list = [rng.random(n).astype(np.float32) for n in (3, 1, 7)]
        ids_list = [np.arange(v.shape[0], dtype=np.int64) for v in values_list]
        self.assert_batch_matches_pergroup(values_list, ids_list, 50, 11)
        batched = scan_topk_fast_batch(values_list, ids_list, 50, 11)
        for (bv, bi, _), v in zip(batched, values_list):
            assert bv.shape[0] == v.shape[0]
            np.testing.assert_array_equal(bv, np.sort(v))

    def test_duplicate_ids_across_replicas(self):
        """The same vector id appearing twice (replicated cluster) is
        kept twice — selection is by scan position, not id identity."""
        v = np.array([0.5, 0.1, 0.5, 0.1], dtype=np.float32)
        ids = np.array([7, 3, 7, 3], dtype=np.int64)
        self.assert_batch_matches_pergroup([v], [ids], 3, 4)
        (bv, bi, _), = scan_topk_fast_batch([v], [ids], 3, 4)
        np.testing.assert_array_equal(bi, [3, 3, 7])
        np.testing.assert_array_equal(bv, np.array([0.1, 0.1, 0.5], np.float32))

    def test_all_equal_distances_tiebreak_by_position(self):
        """Equal values select by earliest scan position, for any stripe
        count — the uniquely defined stable order."""
        for t in (1, 3, 11):
            v = np.full(20, 0.25, dtype=np.float32)
            ids = np.arange(100, 120, dtype=np.int64)
            self.assert_batch_matches_pergroup([v], [ids], 5, t)
            (bv, bi, _), = scan_topk_fast_batch([v], [ids], 5, t)
            np.testing.assert_array_equal(bi, ids[:5])

    def test_signed_zero_ties_by_position(self):
        """-0.0 and +0.0 tie, as under ``np.argsort``: the earlier scan
        position wins, whichever zero it holds."""
        v = np.array([1.0, 0.0, -0.0, 0.0, -0.0, 2.0], dtype=np.float32)
        ids = np.arange(6, dtype=np.int64)
        for k, t in ((1, 1), (2, 3), (3, 2)):
            self.assert_batch_matches_pergroup([v], [ids], k, t)
            (bv, bi, _), = scan_topk_fast_batch([v], [ids], k, t)
            np.testing.assert_array_equal(bi, ids[1 : 1 + k])
            np.testing.assert_array_equal(bv.view(np.uint32), v[1 : 1 + k].view(np.uint32))

    def test_empty_groups_and_empty_list(self):
        empty_v = np.empty(0, dtype=np.float32)
        empty_i = np.empty(0, dtype=np.int64)
        self.assert_batch_matches_pergroup(
            [empty_v, np.array([0.5], np.float32)], [empty_i, np.array([9])], 4, 3
        )
        assert scan_topk_fast_batch([], [], 4, 3) == []
        (bv, bi, bs), = scan_topk_fast_batch([empty_v], [empty_i], 4, 3)
        assert bv.shape == (0,) and bi.shape == (0,)
        assert stats_tuple(bs) == (0, 0, 0, 0)

    def test_flat_form_matches_list_form(self):
        rng = np.random.default_rng(5)
        values_list = [rng.random(n).astype(np.float32) for n in (30, 0, 11, 64)]
        ids_list = [np.arange(v.shape[0], dtype=np.int64) for v in values_list]
        flat_v = np.concatenate(values_list)
        flat_i = np.concatenate(ids_list)
        n_arr = np.array([v.shape[0] for v in values_list], dtype=np.int64)
        from_list = scan_topk_fast_batch(values_list, ids_list, 6, 7)
        from_flat = scan_topk_fast_batch_flat(flat_v, flat_i, n_arr, 6, 7)
        for (lv, li, ls), (fv, fi, fs) in zip(from_list, from_flat):
            np.testing.assert_array_equal(lv, fv)
            np.testing.assert_array_equal(li, fi)
            assert stats_tuple(ls) == stats_tuple(fs)

    def test_invalid_tasklets(self):
        with pytest.raises(ConfigError):
            scan_topk_fast_batch([np.ones(3, np.float32)], [np.arange(3)], 1, 0)


#: Few distinct values (ties at the k-th value are common), both zeros.
TIE_VALUES = np.array([-0.0, 0.0, 0.5, 1.0, 1.0, 2.0, np.inf], dtype=np.float32)


@st.composite
def blocks(draw):
    """(block, k): rows of finite or infinite floats, or of a few
    tie-heavy values, narrower than, as wide as or wider than k."""
    k = draw(st.integers(1, 12))
    width = draw(st.sampled_from([0, 1, max(k - 1, 1), k, k + 1, 3 * k, 40]))
    n_rows = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        block = TIE_VALUES[rng.integers(0, TIE_VALUES.shape[0], (n_rows, width))]
    else:
        block = rng.standard_normal((n_rows, width)).astype(np.float32)
    return np.ascontiguousarray(block), k


class TestRowTopk:
    """``row_topk`` keeps each row's first k entries in (value, column)
    order: per row the columns of ``np.argsort(row, kind="stable")[:k]``,
    in column order, with their values bit for bit."""

    @staticmethod
    def check(block, k):
        values, cols = row_topk(block, k)
        width = min(k, block.shape[1])
        assert values.shape == cols.shape == (block.shape[0], width)
        assert values.dtype == np.float32 and cols.dtype == np.int32
        for r, row in enumerate(block):
            want = np.sort(np.argsort(row, kind="stable")[:k])
            np.testing.assert_array_equal(cols[r], want)
            np.testing.assert_array_equal(
                values[r].view(np.uint32), row[want].view(np.uint32)
            )

    @given(blocks())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort(self, case):
        self.check(*case)

    def test_ties_at_kth_value_keep_first_columns(self):
        block = np.array(
            [[1.0, 0.5, 1.0, 1.0, 0.5, 1.0], [3.0, 3.0, 3.0, 3.0, 3.0, 3.0]],
            dtype=np.float32,
        )
        values, cols = row_topk(block, 3)
        np.testing.assert_array_equal(cols, [[0, 1, 4], [0, 1, 2]])
        self.check(block, 3)

    def test_signed_zero_ties(self):
        """-0.0 and +0.0 tie and are broken by column, as in
        ``np.argsort``; each keeps its own bits."""
        block = np.array([[0.0, -0.0, 1.0, -0.0, 0.0]], dtype=np.float32)
        values, cols = row_topk(block, 2)
        np.testing.assert_array_equal(cols, [[0, 1]])
        assert values.view(np.uint32).tolist() == [[0, 0x80000000]]
        self.check(block, 2)
        self.check(block[:, ::-1].copy(), 3)
