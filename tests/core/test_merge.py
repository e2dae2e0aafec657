"""The grouped host merge against one ``topk_from_distances`` per query."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import engine
from repro.core.engine import merge_partials
from repro.errors import ConfigError
from repro.ivfpq.adc import topk_from_distances

#: Values that force ties: duplicates, both zeros and inf.
TIED = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, np.inf])
SPREAD = st.floats(-1e6, 1e6, allow_nan=False, width=32)


def per_query_reference(counts, ids, values, k):
    out_i = np.full((counts.shape[0], k), -1, dtype=np.int64)
    out_d = np.full((counts.shape[0], k), np.inf, dtype=np.float32)
    lo = 0
    for q, n in enumerate(counts.tolist()):
        if n:
            top_i, top_d = topk_from_distances(ids[lo : lo + n], values[lo : lo + n], k)
            out_i[q, : top_i.shape[0]] = top_i
            out_d[q, : top_d.shape[0]] = top_d
        lo += n
    return out_i, out_d


@st.composite
def partials(draw):
    """Per-query candidate lists: some empty, some shorter than k."""
    k = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.one_of(TIED, SPREAD), max_size=30), max_size=7))
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    values = np.array([v for r in rows for v in r], dtype=np.float32)
    ids = np.array(
        draw(st.lists(st.integers(0, 50), min_size=values.size, max_size=values.size)),
        dtype=np.int64,
    )
    return counts, ids, values, k


class TestMergePartials:
    @given(case=partials())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_query_topk(self, case):
        """Ids and value bits equal one ``topk_from_distances`` per query,
        tied queries (adjacent equal values, -0.0 beside +0.0, inf)
        included."""
        counts, ids, values, k = case
        got_i, got_d = merge_partials(counts, ids, values, k)
        want_i, want_d = per_query_reference(counts, ids, values, k)
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_array_equal(got_d.view(np.uint32), want_d.view(np.uint32))

    def test_distinct_values_need_no_per_query_call(self, monkeypatch):
        """Without ties every query is merged by the grouped selection."""
        calls = []
        monkeypatch.setattr(
            engine, "topk_from_distances", lambda *a: calls.append(a) or topk_from_distances(*a)
        )
        rng = np.random.default_rng(0)
        counts = np.array([0, 3, 40, 11, 12], dtype=np.int64)
        values = rng.permutation(int(counts.sum())).astype(np.float32)
        ids = rng.integers(0, 1000, values.size)
        got = merge_partials(counts, ids, values, 10)
        assert calls == []
        want = per_query_reference(counts, ids, values, 10)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_tie_at_the_cut_keeps_per_query_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            engine, "topk_from_distances", lambda *a: calls.append(a) or topk_from_distances(*a)
        )
        values = np.array([3, 1, 2, 2, 5, 0], dtype=np.float32)
        merge_partials(np.array([6]), np.arange(6), values, 3)
        assert len(calls) == 1

    def test_no_queries_and_no_candidates(self):
        ids, dists = merge_partials(np.zeros(3, np.int64), np.empty(0, np.int64),
                                    np.empty(0, np.float32), 4)
        assert (ids == -1).all() and np.isinf(dists).all()
        assert merge_partials(np.zeros(0, np.int64), ids[:0, 0], dists[:0, 0], 4)[0].shape == (0, 4)

    def test_rejects_k_below_one(self):
        with pytest.raises(ConfigError):
            merge_partials(np.array([1]), np.array([0]), np.array([1.0], np.float32), 0)
