"""Opt4 top-k tests: heap correctness and pruning equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import (
    _segment_topk,
    _segment_topk_lexsort,
    row_topk,
    scan_topk_fast,
    scan_topk_fast_batch_flat,
    segment_indices,
    stable_order,
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


def scan_groups(values_list, ids_list, k, t, prune=True):
    """:func:`scan_topk_fast_batch_flat` over the groups of a list, laid
    out back to back."""
    n_arr = np.array([v.shape[0] for v in values_list], dtype=np.int64)
    flat_v = np.concatenate([np.empty(0, np.float32), *values_list])
    flat_i = np.concatenate([np.empty(0, np.int64), *ids_list])
    return scan_topk_fast_batch_flat(flat_v, flat_i, n_arr, k, t, prune=prune)


class TestScanTopkBatch:
    """The grouped kernels' batched selection must match per-group calls
    exactly — results and the work statistics that feed charged cycles."""

    def assert_batch_matches_pergroup(self, values_list, ids_list, k, t, prune=True):
        batched = scan_groups(values_list, ids_list, k, t, prune=prune)
        assert len(batched) == len(values_list)
        for (bv, bi, bs), v, ids in zip(batched, values_list, ids_list):
            gv, gi, gs = scan_topk_fast(v, ids, k, t, prune=prune)
            np.testing.assert_array_equal(bv.view(np.uint32), gv.view(np.uint32))
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
        batched = scan_groups(values_list, ids_list, 50, 11)
        for (bv, bi, _), v in zip(batched, values_list):
            assert bv.shape[0] == v.shape[0]
            np.testing.assert_array_equal(bv, np.sort(v))

    def test_duplicate_ids_across_replicas(self):
        """The same vector id appearing twice (replicated cluster) is
        kept twice — selection is by scan position, not id identity."""
        v = np.array([0.5, 0.1, 0.5, 0.1], dtype=np.float32)
        ids = np.array([7, 3, 7, 3], dtype=np.int64)
        self.assert_batch_matches_pergroup([v], [ids], 3, 4)
        (bv, bi, _), = scan_groups([v], [ids], 3, 4)
        np.testing.assert_array_equal(bi, [3, 3, 7])
        np.testing.assert_array_equal(bv, np.array([0.1, 0.1, 0.5], np.float32))

    def test_all_equal_distances_tiebreak_by_position(self):
        """Equal values select by earliest scan position, for any stripe
        count — the uniquely defined stable order."""
        for t in (1, 3, 11):
            v = np.full(20, 0.25, dtype=np.float32)
            ids = np.arange(100, 120, dtype=np.int64)
            self.assert_batch_matches_pergroup([v], [ids], 5, t)
            (bv, bi, _), = scan_groups([v], [ids], 5, t)
            np.testing.assert_array_equal(bi, ids[:5])

    def test_signed_zero_ties_by_position(self):
        """-0.0 and +0.0 tie, as under ``np.argsort``: the earlier scan
        position wins, whichever zero it holds."""
        v = np.array([1.0, 0.0, -0.0, 0.0, -0.0, 2.0], dtype=np.float32)
        ids = np.arange(6, dtype=np.int64)
        for k, t in ((1, 1), (2, 3), (3, 2)):
            self.assert_batch_matches_pergroup([v], [ids], k, t)
            (bv, bi, _), = scan_groups([v], [ids], k, t)
            np.testing.assert_array_equal(bi, ids[1 : 1 + k])
            np.testing.assert_array_equal(bv.view(np.uint32), v[1 : 1 + k].view(np.uint32))

    def test_empty_groups_and_empty_list(self):
        empty_v = np.empty(0, dtype=np.float32)
        empty_i = np.empty(0, dtype=np.int64)
        self.assert_batch_matches_pergroup(
            [empty_v, np.array([0.5], np.float32)], [empty_i, np.array([9])], 4, 3
        )
        none = scan_groups([], [], 4, 3)
        assert len(none) == 0 and list(none) == []
        assert none.values.shape == (0,) and none.ids.shape == (0,)
        (bv, bi, bs), = scan_groups([empty_v], [empty_i], 4, 3)
        assert bv.shape == (0,) and bi.shape == (0,)
        assert stats_tuple(bs) == (0, 0, 0, 0)

    def test_flat_form_matches_list_form(self):
        """The flat selection indexed group by group is the list of
        per-group calls; without ids it returns flat indices."""
        rng = np.random.default_rng(5)
        values_list = [rng.random(n).astype(np.float32) for n in (30, 0, 11, 64)]
        ids_list = [rng.permutation(v.shape[0]).astype(np.int64) for v in values_list]
        from_list = [scan_topk_fast(v, i, 6, 7) for v, i in zip(values_list, ids_list)]
        from_flat = scan_groups(values_list, ids_list, 6, 7)
        for (lv, li, ls), (fv, fi, fs) in zip(from_list, from_flat, strict=True):
            np.testing.assert_array_equal(lv, fv)
            np.testing.assert_array_equal(li, fi)
            assert stats_tuple(ls) == stats_tuple(fs)
        flat_i = np.concatenate(ids_list)
        n_arr = [v.shape[0] for v in values_list]
        by_index = scan_topk_fast_batch_flat(
            np.concatenate(values_list), None, n_arr, 6, 7
        )
        np.testing.assert_array_equal(flat_i[by_index.ids], from_flat.ids)

    def test_invalid_tasklets(self):
        with pytest.raises(ConfigError):
            scan_groups([np.ones(3, np.float32)], [np.arange(3)], 1, 0)


#: Quantized candidate values: both zeros, ties and infinities.
QUANTIZED = np.array([-0.0, 0.0, 0.25, 0.25, 1.0, 3.0, np.inf], dtype=np.float32)


@st.composite
def labelled_groups(draw):
    """Groups of (query, cluster) pairs as the grouped kernel sees them:
    each pair a distance row over one cluster (sizes 0-20, some smaller
    than k), each group 0-60 scanned points, up to thousands of groups.
    Returns (rows per group, k, tasklets, prune, quantized)."""
    k = draw(st.integers(1, 16))
    n_groups = draw(st.one_of(st.integers(0, 30), st.integers(300, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quantized = draw(st.booleans())
    groups = []
    for _ in range(n_groups):
        sizes, total = [], 0
        for size in rng.integers(0, 21, int(rng.integers(1, 5))).tolist():
            size = min(size, 60 - total)
            sizes.append(size)
            total += size
        if quantized:
            rows = [QUANTIZED[rng.integers(0, QUANTIZED.shape[0], n)] for n in sizes]
        else:
            rows = [rng.standard_normal(n).astype(np.float32) for n in sizes]
        groups.append(rows)
    return groups, k, draw(st.integers(1, 24)), draw(st.booleans())


class TestPackedSelection:
    """The one packed-key sort of ``scan_topk_fast_batch_flat`` against
    one ``scan_topk_fast`` per group: values by bits, ids, offsets,
    sizes and the four work counts, for whole scans and for labelled
    per-pair ``row_topk`` cuts alike."""

    @staticmethod
    def check(got, groups_v, groups_i, k, t, prune):
        assert len(got) == len(groups_v)
        offsets = [0]
        for g, (v, ids) in enumerate(zip(groups_v, groups_i)):
            want_v, want_i, want_s = scan_topk_fast(v, ids, k, t, prune=prune)
            got_v, got_i, got_s = got[g]
            np.testing.assert_array_equal(got_v.view(np.uint32), want_v.view(np.uint32))
            np.testing.assert_array_equal(got_i, want_i)
            assert got_s == want_s
            assert got.sizes[g] == v.shape[0]
            offsets.append(offsets[-1] + want_v.shape[0])
        np.testing.assert_array_equal(got.offsets, offsets)

    @given(labelled_groups())
    @settings(max_examples=20, deadline=None)
    def test_matches_per_group_scan(self, case):
        groups, k, t, prune = case
        rng = np.random.default_rng(len(groups))
        scans = [np.concatenate([np.empty(0, np.float32), *rows]) for rows in groups]
        ids = [rng.integers(0, 50, v.shape[0]) for v in scans]
        n_arr = np.array([v.shape[0] for v in scans], dtype=np.int64)
        flat_v = np.concatenate([np.empty(0, np.float32), *scans])
        flat_i = np.concatenate([np.empty(0, np.int64), *ids])
        whole = scan_topk_fast_batch_flat(flat_v, flat_i, n_arr, k, t, prune=prune)
        self.check(whole, scans, ids, k, t, prune)

        # Labelled: each pair's own top-k cut, at its scan positions.
        cand_v, cand_i, cand_p, supplied = [], [], [], []
        for rows, group_ids in zip(groups, ids):
            offset, n = 0, 0
            for row in rows:
                top_v, top_c = row_topk(row[None, :], k)
                cand_v.append(top_v[0])
                cand_p.append(offset + top_c[0].astype(np.int64))
                cand_i.append(group_ids[offset + top_c[0]])
                offset += row.shape[0]
                n += top_v.shape[1]
            supplied.append(n)
        cut = scan_topk_fast_batch_flat(
            np.concatenate([np.empty(0, np.float32), *cand_v]),
            np.concatenate([np.empty(0, np.int64), *cand_i]),
            n_arr,
            k,
            t,
            prune=prune,
            supplied=np.array(supplied, dtype=np.int64),
            pos=np.concatenate([np.empty(0, np.int64), *cand_p]),
        )
        self.check(cut, scans, ids, k, t, prune)

    @given(
        sizes=st.lists(st.integers(0, 30), min_size=1, max_size=50),
        seed=st.integers(0, 10_000),
        quantized=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_lexsort_fallback_matches_packed_sort(self, sizes, seed, quantized):
        """The fallback for keys wider than 64 bits selects what the
        packed sort selects."""
        rng = np.random.default_rng(seed)
        counts = np.array(sizes, dtype=np.int64)
        n = int(counts.sum())
        if quantized:
            values = QUANTIZED[rng.integers(0, QUANTIZED.shape[0], n)]
        else:
            values = rng.standard_normal(n).astype(np.float32)
        take = np.minimum(counts, rng.integers(0, 12, counts.shape[0]))
        at = segment_indices(np.cumsum(counts) - counts, take)
        np.testing.assert_array_equal(
            _segment_topk_lexsort(values, counts, at), _segment_topk(values, counts, take)
        )

    def test_fallback_taken_past_64_bits(self):
        """One segment of 2^16 + 1 candidates, then 2^16 segments of one,
        need 17 + 32 + 17 key bits: the selection falls back, and equals
        the packed sort of the long segment and of the short ones (each
        of which fits) put back together."""
        from unittest import mock

        from repro.core import topk

        rng = np.random.default_rng(3)
        long = 2**16 + 1
        counts = np.concatenate([[long], np.ones(2**16, dtype=np.int64)])
        values = QUANTIZED[rng.integers(0, QUANTIZED.shape[0], long + 2**16)]
        take = np.concatenate([[40], rng.integers(0, 2, 2**16)])
        with mock.patch.object(
            topk, "_segment_topk_lexsort", wraps=topk._segment_topk_lexsort
        ) as fallback:
            got = _segment_topk(values, counts, take)
        assert fallback.call_count == 1
        first = _segment_topk(values[:long], counts[:1], take[:1])
        rest = _segment_topk(values[long:], counts[1:], take[1:])
        assert fallback.call_count == 1
        np.testing.assert_array_equal(got, np.concatenate([first, rest + long]))


class TestLabelledLayout:
    """Labelled input must keep the layout the packed sort relies on."""

    V = np.array([0.5, 0.1, 0.3, 0.2, 0.9], dtype=np.float32)

    def select(self, supplied, pos, n_arr=(3, 4)):
        return scan_topk_fast_batch_flat(
            self.V, np.arange(5), np.array(n_arr), 2, 3, supplied=supplied, pos=pos
        )

    def test_valid_layout_positions_restart_per_group(self):
        got = self.select(np.array([2, 3]), np.array([0, 2, 0, 1, 3]))
        assert got.ids.tolist() == [1, 0, 3, 2]

    @pytest.mark.parametrize(
        "supplied, pos",
        [
            ([2, 3], [2, 0, 0, 1, 3]),  # descending within group 0
            ([2, 3], [0, 2, 0, 1, 1]),  # repeated position in group 1
            ([3, 2], [0, 2, 0, 1, 3]),  # a group boundary inside a run
            ([2, 2], [0, 2, 0, 1, 3]),  # supplied short of the candidates
            ([1, 4], [0, 0, 1, 2, 3]),  # fewer than min(k, n) in group 0
            ([2, 3], [0, 2, 0, 1]),  # a position missing
        ],
    )
    def test_broken_layout_rejected(self, supplied, pos):
        with pytest.raises(ConfigError):
            self.select(np.array(supplied), np.array(pos))

    @pytest.mark.parametrize("which", ["supplied", "pos"])
    def test_labels_come_together(self, which):
        labels = {"supplied": np.array([2, 3]), "pos": np.array([0, 2, 0, 1, 3])}
        with pytest.raises(ConfigError, match="together"):
            scan_topk_fast_batch_flat(
                self.V, np.arange(5), np.array([3, 4]), 2, 3, **{which: labels[which]}
            )


@given(
    keys=st.lists(st.integers(0, 40), max_size=200),
    wide=st.sampled_from([0, 1 << 40, (1 << 62) - 41]),
)
@settings(max_examples=100, deadline=None)
def test_stable_order_is_stable_argsort(keys, wide):
    """Packed or, for keys too wide to pack beside the index, not."""
    key = np.array(keys, dtype=np.int64) + wide
    np.testing.assert_array_equal(stable_order(key), np.argsort(key, kind="stable"))


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
