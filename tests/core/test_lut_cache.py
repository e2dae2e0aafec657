"""Cross-batch LUT cache tests: LRU semantics, capacity, counters."""

import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.encoding import build_flat_table
from repro.core.lut_cache import (
    ROW_OVERHEAD,
    SLOT_OVERHEAD,
    LutCache,
    check_capacity,
    query_digest,
)
from repro.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry, set_registry
from tests.core.distance_refs import full_row_groups, oracle_distances, oracle_row_topk
from tests.core.lut_oracle import OracleLutCache


@pytest.fixture()
def registry():
    mine = MetricsRegistry()
    previous = set_registry(mine)
    yield mine
    set_registry(previous)


#: Candidates per unit-test entry, and clusters of the unit-test caches.
K = 4
C = 6
#: Bytes of one unit-test entry and of one query's slot.
E = 8 * K + ROW_OVERHEAD
S = 4 * C + SLOT_OVERHEAD


def vec(i):
    """Query vector i of the unit tests."""
    return np.full(4, i, dtype=np.float32)


def key(i, c, k=K):
    return (query_digest(vec(i)), c, k)


def look(cache, qs, clusters, k=K, version=0):
    """One batch: query vector i of ``qs`` probing ``clusters`` (one
    list for every query, or one list per query).  Returns (row per
    pair, missed pair indices)."""
    probes = clusters if clusters and isinstance(clusters[0], list) else [clusters] * len(qs)
    queries = np.stack([vec(i) for i in qs]) if qs else np.empty((0, 4), np.float32)
    pair_q = np.repeat(np.arange(len(qs)), [len(p) for p in probes])
    pair_c = np.array([c for p in probes for c in p], dtype=np.intp)
    return cache.get_many(queries, pair_q, pair_c, version, k, C)


def keys(cache):
    """The cache's keys, least recently used first."""
    return [entry[:3] for entry in cache.entries()]


def rows_of(cache):
    return {entry[:3]: entry[3] for entry in cache.entries()}


def fill(cache, rows, missed, value, k=K):
    """Write candidates of ``value`` to the missed pairs' rows."""
    values, cols = cache.slab(k)
    values[rows[missed]] = value
    cols[rows[missed]] = np.arange(k, dtype=np.int32)


def counter_values(registry):
    families = {m["name"]: m for m in registry.snapshot()["metrics"]}

    def value(name):
        fam = families.get(name)
        return fam["samples"][0]["value"] if fam and fam["samples"] else 0.0

    return (
        value("repro_lut_cache_hits_total"),
        value("repro_lut_cache_misses_total"),
    )


class TestLruSemantics:
    def test_get_returns_stored_table(self, registry):
        cache = LutCache(1 << 20)
        rows, missed = look(cache, [1], [2])
        assert missed.tolist() == [0]
        fill(cache, rows, missed, 1.0)
        cache.settle()
        again, missed = look(cache, [1], [2])
        assert missed.size == 0 and again.tolist() == rows.tolist()
        values, cols = cache.slab(K)
        assert values.shape[1] == cols.shape[1] == K  # k-wide rows
        np.testing.assert_array_equal(values[again[0]], np.full(K, 1.0, np.float32))
        np.testing.assert_array_equal(cols[again[0]], np.arange(K))

    def test_eviction_is_by_bytes_lru_first(self, registry):
        cache = LutCache(S + 3 * E)  # one query's three entries
        look(cache, [1], [0, 1, 2])
        look(cache, [1], [0])  # refresh 0 -> 1 is now LRU
        look(cache, [1], [3])
        assert keys(cache) == [key(1, 2), key(1, 0), key(1, 3)]
        assert cache.nbytes == S + 3 * E

    def test_put_refreshes_existing_key_without_double_count(self, registry):
        """A hit refreshes an entry without counting its bytes again."""
        cache = LutCache(1 << 20)
        look(cache, [1], [0, 1])
        _, missed = look(cache, [1], [1, 0])
        assert missed.size == 0
        assert keys(cache) == [key(1, 1), key(1, 0)]
        assert cache.nbytes == S + 2 * E

    def test_entry_holds_at_most_k_candidates(self, registry):
        """Entries of k are rows of a k-wide slab, one slab per k; an
        entry counts 8k + 16 bytes however small its cluster."""
        cache = LutCache(1 << 20)
        look(cache, [1], [0], k=2)
        look(cache, [1], [0], k=K)
        assert cache.slab(2)[0].shape[1] == cache.slab(2)[1].shape[1] == 2
        assert cache.slab(K)[0].shape[1] == K
        assert keys(cache) == [key(1, 0, 2), key(1, 0)]
        assert cache.nbytes == (8 * 2 + ROW_OVERHEAD) + E + 2 * S

    def test_oversized_table_not_retained(self, registry):
        cache = LutCache(S + E - 1)  # an entry and its slot do not fit
        for _ in range(2):
            _, missed = look(cache, [1], [0])
            assert missed.tolist() == [0]
            assert len(cache) == 0 and cache.nbytes == 0
        assert counter_values(registry) == (0.0, 2.0)

    def test_zero_capacity_disables(self, registry):
        cache = LutCache(0)
        assert not cache.enabled
        for _ in range(2):
            rows, missed = look(cache, [1, 1], [0, 1])
            assert missed.tolist() == [0, 1, 2, 3]
            assert len(set(rows.tolist())) == 4  # no pair shares a row
        assert len(cache) == 0
        assert counter_values(registry) == (0.0, 0.0)  # nothing counted

    def test_clear_drops_everything(self, registry):
        cache = LutCache(1 << 20)
        look(cache, [1], [0])
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert cache.stats()["entries"] == cache.stats()["rows"] == 0
        assert cache.slab(K)[0].shape[0] == 0


class TestBytes:
    def test_stats_bytes_count_stamps_and_slots(self, registry):
        """``bytes`` counts 8k + 16 per entry (candidates, stamp, owner
        cell) and 4 * n_clusters + 256 per query holding an entry."""
        cache = LutCache(1 << 20)
        look(cache, [1, 2], [[0, 1, 2], [3]])
        assert cache.stats() == {
            "entries": 4,
            "slots": 2,
            "rows": 4,
            "slot_ids": 2,
            "bytes": 4 * (8 * K + 16) + 2 * (4 * C + 256),
            "capacity_bytes": 1 << 20,
        }

    def test_new_version_clears(self, registry):
        cache = LutCache(1 << 20)
        look(cache, [1], [0, 1], version=0)
        _, missed = look(cache, [1], [0, 1], version=1)
        assert missed.tolist() == [0, 1]
        assert len(cache) == 2 and cache.nbytes == S + 2 * E


class TestSlabs:
    """Entries are rows of one k-wide slab per k."""

    def test_settle_compacts_sparse_slab(self, registry):
        cache = LutCache(S + E)  # one entry
        rows, missed = look(cache, [0, 1, 2, 3], [1])  # each evicts the last
        assert len(set(rows.tolist())) == 4
        fill(cache, rows, missed, 3.0)
        cache.settle()  # 1 live row of 4: compacted
        assert rows_of(cache) == {key(3, 1): 0}
        assert cache.stats()["rows"] == 1
        np.testing.assert_array_equal(cache.slab(K)[0][0], np.full(K, 3.0, np.float32))
        look(cache, [4], [1], k=2)  # a smaller entry evicts the last one of k=4
        cache.settle()  # an empty slab is dropped
        assert keys(cache) == [key(4, 1, 2)]
        assert cache.slab(K)[0].shape[0] == 0
        assert cache.stats()["rows"] == cache.stats()["slot_ids"] == 1

    def test_clear_releases_slab_memory(self, registry):
        """clear() drops the slab's arrays; a slab made again maps only
        the rows it hands out."""
        cache = LutCache(1 << 20)
        look(cache, [0, 1, 2, 3, 4], [1])
        arrays = [weakref.ref(a) for a in cache.slab(K)]
        cache.clear()
        assert all(ref() is None for ref in arrays)
        rows, missed = look(cache, [1], [1])
        fill(cache, rows, missed, 1.0)
        assert cache.slab(K)[0].shape[0] == 1
        assert cache.stats()["rows"] == 1

    def test_rows_evicted_in_a_batch_wait_for_settle(self, registry):
        cache = LutCache(S + E)  # one entry
        (first, second), _ = look(cache, [1, 2], [1])  # 2 evicts 1
        assert second != first  # the batch may still read the first row
        cache.settle()
        (third,), _ = look(cache, [3], [1])
        assert third == first  # reused once the batch settled

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.sampled_from([2, 5, 12, 100]),
        batches=st.lists(
            st.tuples(
                st.sampled_from([2, 3, 5]),  # k
                st.lists(st.integers(0, 7), max_size=8),  # queries
                st.integers(1, C),  # probes per query
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @example(capacity=100, batches=[(5, list(range(6)), 1), (5, [6] * 3, 6)])
    def test_settle_matches_entry_scan(self, capacity, batches):
        """Settling keeps every key, the LRU order and every entry's
        bytes; a slab it compacts keeps its entries' row order, and
        after it a slab holds at most twice its live rows."""
        cache = LutCache(capacity * (S + 5 * E), registry=MetricsRegistry())
        for n, (k, qs, nprobe) in enumerate(batches):
            rows, missed = look(cache, qs, list(range(nprobe)), k=k)
            fill(cache, rows, missed, float(n), k)
            before = cache.entries()
            bits = {e[:3]: [a[e[3]].tobytes() for a in cache.slab(e[2])] for e in before}
            cache.settle()
            after = cache.entries()
            assert [e[:3] for e in after] == [e[:3] for e in before]
            for e in after:
                assert [a[e[3]].tobytes() for a in cache.slab(e[2])] == bits[e[:3]]
            for kk in {e[2] for e in before}:
                was = [e[3] for e in before if e[2] == kk]
                now = [e[3] for e in after if e[2] == kk]
                renumbered = np.argsort(np.argsort(was)).tolist()
                assert now == was or now == renumbered
            stats = cache.stats()
            assert stats["rows"] <= 2 * stats["entries"]


class TestCounters:
    def test_hits_and_misses_counted(self, registry):
        cache = LutCache(1 << 20, registry=registry)
        look(cache, [1], [1])
        look(cache, [1, 2], [1])
        assert counter_values(registry) == (1.0, 2.0)

    def test_get_many_matches_sequential_gets(self, registry):
        """One lookup of a batch hits and misses as the oracle's
        per-key gets, a repeated query hitting what its first copy
        inserted."""
        reg = MetricsRegistry()
        cache = LutCache(1 << 20, registry=reg)
        oracle = OracleLutCache(1 << 20, C)
        for qs in ([1, 3], [1, 2, 3, 4, 1]):
            _, missed = look(cache, qs, [0, 2])
            hits, _ = oracle.lookup([vec(i) for i in qs], [[0, 2]] * len(qs), 0, K)
            assert missed.tolist() == [i for i, hit in enumerate(hits) if not hit]
        assert counter_values(reg) == (oracle.hits, oracle.misses) == (6.0, 8.0)

    def test_get_many_refreshes_recency(self, registry):
        cache = LutCache(S + 2 * E)  # one query's two entries
        look(cache, [1], [1, 2])
        look(cache, [1], [1])  # 2 becomes LRU
        look(cache, [1], [3])
        assert keys(cache) == [key(1, 1), key(1, 3)]


class TestPutMany:
    """One lookup of many queries is one lookup per query in one call."""

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.sampled_from([0, S + E - 1, S + 3 * E, 2 * S + 8 * E, 1 << 20]),
        preload=st.lists(st.integers(0, 7), max_size=6),
        batch=st.lists(
            st.tuples(st.integers(0, 7), st.lists(st.integers(0, C - 1), unique=True)),
            max_size=12,
        ),
    )
    def test_equals_sequential_puts(self, capacity, preload, batch):
        caches = [LutCache(capacity, registry=MetricsRegistry()) for _ in range(2)]
        for cache in caches:
            look(cache, preload, [0, 1])
            cache.settle()
        batched, single = caches
        qs = [q for q, _ in batch]
        _, missed = look(batched, qs, [p for _, p in batch] or [[]])
        single_missed = []
        for q, probe in batch:
            single_missed.append(
                np.isin(np.arange(len(probe)), look(single, [q], [probe])[1])
            )
        flags = np.concatenate([np.empty(0, bool), *single_missed])
        assert missed.tolist() == np.flatnonzero(flags).tolist()
        assert keys(batched) == keys(single)
        assert batched.nbytes == single.nbytes <= max(capacity, 0)
        assert batched.stats()["entries"] == single.stats()["entries"]
        assert counter_values(batched._registry) == counter_values(single._registry)


class TestOracleDifferential:
    """The array cache against the per-key ``OrderedDict`` oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.sampled_from(
            [0, S + E - 1, S + E, S + 3 * E, 2 * S + 10 * E, 4 * S + 30 * E, 1 << 20]
        ),
        batches=st.lists(
            st.tuples(
                st.booleans(),  # bump the codebook version first
                st.sampled_from([5, 10, 5]),  # k
                st.lists(st.integers(0, 9), max_size=8),  # queries, repeats too
                st.sampled_from([1, 3, C]),  # probes per query
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 3),
    )
    @example(  # a repeated query after its entries were evicted mid-batch
        capacity=S + 3 * E, batches=[(False, 5, [0, 1, 0], 3)], seed=0
    )
    @example(  # the oldest entries belong to a query the next batch hits
        capacity=4 * S + 30 * E,
        batches=[(False, 5, [0, 1, 2, 3], C), (False, 5, [4, 0, 5], C)],
        seed=1,
    )
    def test_matches_oracle(self, capacity, batches, seed):
        """Per batch: the same hits and misses, pair for pair, and the
        same counters; after it, and again after ``settle()``, the same
        keys in the same LRU order and the same byte total (so the same
        keys were evicted).  Every pair reads the candidates last
        written for its key, so no row a batch reads is handed out
        twice in it."""
        reg = MetricsRegistry()
        cache = LutCache(capacity, registry=reg)
        oracle = OracleLutCache(capacity, C)
        version = 0
        written = {}
        for b, (bump, k, qs, nprobe) in enumerate(batches):
            version += bump
            # A query probes a new subset in a new order each batch, so
            # its hits and misses interleave.
            probes = [
                np.random.default_rng([seed, b, q]).permutation(C)[:nprobe].tolist()
                for q in qs
            ]
            cache.settle()
            rows, missed = look(cache, qs, probes or [[]], k=k, version=version)
            hits, _ = oracle.lookup([vec(q) for q in qs], probes, version, k)
            assert missed.tolist() == [i for i, hit in enumerate(hits) if not hit]
            assert counter_values(reg) == (oracle.hits, oracle.misses)
            values, _ = cache.slab(k)
            want = []
            pairs = [(q, c) for q, probe in zip(qs, probes) for c in probe]
            for i, (q, c) in enumerate(pairs):
                if i in set(missed.tolist()):
                    written[key(q, c, k)] = len(written) + 1.0
                    values[rows[i]] = written[key(q, c, k)]
                want.append(written[key(q, c, k)])
            assert values[rows, 0].tolist() == want
            for _ in range(2):
                assert keys(cache) == list(oracle.entries)
                assert cache.nbytes == oracle.nbytes <= max(capacity, 0)
                cache.settle()


class TestMemory:
    """The byte cap bounds what the cache holds."""

    K10 = 10
    C128 = 128

    def stream(self, cache, batches, nprobe=16, size=20):
        """A cold stream: ``batches`` batches of fresh queries."""
        rng = np.random.default_rng(0)
        for _ in range(batches):
            queries = rng.standard_normal((size, 8)).astype(np.float32)
            pair_q = np.repeat(np.arange(size), nprobe)
            pair_c = np.concatenate(
                [rng.choice(self.C128, nprobe, replace=False) for _ in range(size)]
            )
            cache.get_many(queries, pair_q, pair_c, 0, self.K10, self.C128)
            cache.settle()
            yield

    def test_full_cache_holds_cap_plus_constant(self):
        """A cache filled to its cap and turned over holds, in Python
        objects and heap arrays (``tracemalloc``) plus the extent of its
        mapped arrays (8k + 16 bytes per row id and 4 * n_clusters + 4
        per slot id handed out), at most the cap plus 128 KiB: one
        batch's freed rows (320 x 96 B), the free-row and eviction-queue
        arrays and one page per mapped array."""
        cap = 1 << 20
        for _ in self.stream(LutCache(cap, registry=MetricsRegistry()), 2):
            pass  # first-use imports and caches stay out of the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cache = LutCache(cap, registry=MetricsRegistry())
            for _ in self.stream(cache, 120):
                pass
            heap = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        stats = cache.stats()
        assert stats["bytes"] > cap - 2 * (16 * 96 + 4 * 128 + SLOT_OVERHEAD)  # full
        mapped = stats["rows"] * (8 * self.K10 + 16) + stats["slot_ids"] * (4 * self.C128 + 4)
        assert heap + mapped <= cap + (128 << 10)

    def test_cold_stream_reclaims_slots(self):
        """Turning the cache over many times leaves a slot for each
        query that still holds an entry, and no more slot ids than the
        queries the cap holds at once (2,304 B each; one partly
        evicted) plus one batch's queries, whose slots are taken before
        the entries they evict free theirs."""
        cap = 1 << 18
        per_query = 16 * (8 * self.K10 + 16) + 4 * self.C128 + SLOT_OVERHEAD
        cache = LutCache(cap, registry=MetricsRegistry())
        for _ in self.stream(cache, 60):
            stats = cache.stats()
            assert stats["slots"] == len({entry[0] for entry in cache.entries()})
            assert stats["slot_ids"] <= cap // per_query + 1 + 20
        assert 60 * 20 > 10 * (cap // per_query)  # turned over ten times


def _small_engine(dataset, index, history, **upanns):
    from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
    from repro.core.engine import UpANNSEngine
    from repro.hardware.specs import PimSystemSpec

    cfg = SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        upanns=UpANNSConfig(**upanns),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
    )
    engine = UpANNSEngine(cfg)
    engine.build(dataset.vectors, history_queries=history, prebuilt_index=index)
    return engine


#: The k the engine-level tests search with (the small engines' own).
ENGINE_K = 5


def _width(engine, c, k=ENGINE_K):
    """Candidates a pair of cluster c holds: min(k, P_c)."""
    return min(k, int(engine._sizes[c]))


def _oracle_candidates(engine, c, table, k=ENGINE_K):
    """One pair's candidates from its per-pair ADC scan."""
    return oracle_row_topk(oracle_distances(engine._payloads[c], table), k)


def _reference_build_tables(engine, queries, probes, oracle, k=ENGINE_K):
    """The table pass one pair at a time: one build_flat_table call per
    (query, CAE cluster), one per-pair ADC scan per built table and one
    full ``np.argsort`` per scan — the loops the batched pass replaced —
    over the per-key ``oracle`` cache: per query, its lookups, then one
    put per miss.  Returns every pair's (values, cols), hit or built,
    cut to its ``min(k, P_c)`` columns."""
    oracle.begin(engine._codebook_version)
    rows = {}
    for qi, probe_ids in enumerate(probes):
        per_q = rows[qi] = {}
        digest = query_digest(queries[qi])
        keys = [(digest, int(c), k) for c in probe_ids]
        for key_, hit in zip(keys, oracle.get_many(keys)):
            if hit:
                per_q[key_[1]] = oracle.entries[key_]
        missing = [c for _, c, _ in keys if c not in per_q]
        for c, table in zip(missing, _reference_tables(engine, queries[qi], missing)):
            per_q[c] = _oracle_candidates(engine, c, table, k)
            oracle.put((digest, c, k), per_q[c])
    return rows


def _reference_tables(engine, query, clusters):
    """One query's table of each cluster, built on its own: the (m,
    ksub) LUT of a plain cluster, [LUT | partial sums] of a CAE one."""
    from repro.ivfpq.lut import build_luts_for_probes

    luts = build_luts_for_probes(
        engine.index.pq,
        query,
        engine.index.ivf.centroids,
        np.asarray(clusters, dtype=np.int64),
    )
    out = []
    for j, c in enumerate(clusters):
        cooc = engine._payloads[c].cooc
        out.append(luts[j].copy() if cooc is None else build_flat_table(luts[j], cooc))
    return out


def _full_rows(engine, queries, probes):
    """Every probed pair's whole distance row by the per-pair scan."""
    out = {}
    for qi, probe_ids in enumerate(probes):
        clusters = [int(c) for c in probe_ids]
        tables = _reference_tables(engine, queries[qi], clusters)
        out[qi] = {
            c: oracle_distances(engine._payloads[c], t) for c, t in zip(clusters, tables)
        }
    return out


def _assert_same_state(cache, oracle):
    """Keys in LRU order, bytes and counters, as under the oracle."""
    assert keys(cache) == list(oracle.entries)
    assert cache.nbytes == oracle.nbytes
    assert counter_values(cache._registry) == (oracle.hits, oracle.misses)


def _assert_same_entries(engine, cache, oracle):
    """Every cached entry has the oracle's candidates, bit for bit
    (the columns past ``min(k, P_c)`` are never read)."""
    for digest, c, k, row in cache.entries():
        want = oracle.entries[(digest, c, k)]
        w = _width(engine, c, k)
        for got, slab in zip(want, cache.slab(k)):
            np.testing.assert_array_equal(
                slab[row, :w].view(np.uint32), got.view(np.uint32)
            )


def _pairs(batch):
    """The batch's (query, cluster) pairs."""
    return list(zip(*(a.tolist() for a in np.nonzero(batch.row >= 0))))


def _pair(batch, qi, c, width):
    """One pair's (values, cols) in a batch's slab, cut to ``width``."""
    row = batch.row[qi, c]
    return batch.values[row, :width], batch.cols[row, :width]


def _assert_matches_reference(engine, got, want):
    """The batch's candidates are the reference's, pair for pair and bit
    for bit."""
    pairs = [(qi, c) for qi, per_q in want.items() for c in per_q]
    assert sorted(_pairs(got)) == sorted(pairs)
    for qi, c in pairs:
        values, cols = _pair(got, qi, c, _width(engine, c))
        want_v, want_c = want[qi][c]
        np.testing.assert_array_equal(values.view(np.uint32), want_v.view(np.uint32))
        np.testing.assert_array_equal(cols, want_c)


def _assert_held_bound(cache):
    """Between batches the slabs hold at most twice the live rows."""
    stats = cache.stats()
    assert stats["rows"] <= 2 * stats["entries"]


#: Bytes of one entry at ENGINE_K and of one query's slot in the small
#: engines (32 clusters).
ENTRY_BYTES = 8 * ENGINE_K + ROW_OVERHEAD
SLOT_BYTES = 4 * 32 + SLOT_OVERHEAD


def _cap(entries):
    """A cap that holds ``entries`` entries of one query."""
    return entries and SLOT_BYTES + entries * ENTRY_BYTES


def _caches(entries, engine):
    """An array cache and an oracle with the same cap."""
    cap = _cap(entries)
    return (
        LutCache(cap, registry=MetricsRegistry()),
        OracleLutCache(cap, engine.index.ivf.n_clusters),
    )


class _Engines(dict):
    """enable_cae -> engine, with a short repr for hypothesis reports."""

    def __repr__(self) -> str:
        return "<CAE and plain engines>"


@pytest.fixture(scope="module")
def engines(small_dataset, trained_index, history_queries):
    return _Engines(
        (cae, _small_engine(small_dataset, trained_index, history_queries, enable_cae=cae))
        for cae in (True, False)
    )


def _spy_gather():
    """Wrap ``kernel.compute_pair_distances`` in a mock that records
    each call and still runs it."""
    from repro.core import kernel

    return mock.patch.object(
        kernel, "compute_pair_distances", wraps=kernel.compute_pair_distances
    )


def _gathered(spy):
    """Per call of the spied gather, the (cluster, rows) of each block."""
    return [
        [(payload.cluster_id, stacked.shape[0]) for payload, stacked, _ in call.args[0]]
        for call in spy.call_args_list
    ]


def _gathered_rows(spy):
    return sum(n for call in _gathered(spy) for _, n in call)


def _build(engine, queries, probes):
    return engine._build_tables(queries, probes, engine.index.ivf.centroids, ENGINE_K)


class TestEngineTables:
    """``UpANNSEngine._build_tables`` against the per-pair reference:
    identical candidates and an identical cache afterwards."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cae=st.booleans(),
        capacity_rows=st.sampled_from([0, 3, 10, 40, 10_000]),
        batches=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=10),
            min_size=1,
            max_size=3,
        ),
    )
    def test_matches_per_table_build(
        self, engines, small_queries, cae, capacity_rows, batches
    ):
        engine = engines[cae]
        got_cache, want_cache = _caches(capacity_rows, engine)
        try:
            engine.lut_cache = got_cache
            for rows in batches:  # repeated rows: duplicates within a batch
                queries = small_queries[rows]
                probes = list(engine.index.ivf.search_clusters(queries, 8))
                got = _build(engine, queries, probes)
                want = _reference_build_tables(engine, queries, probes, want_cache)
                _assert_matches_reference(engine, got, want)
                _assert_same_state(got_cache, want_cache)
                _assert_same_entries(engine, got_cache, want_cache)
        finally:
            engine.lut_cache = None

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cae=st.booleans(),
        capacity_rows=st.sampled_from([0, 3, 10, 40, 10_000]),
        nprobe=st.sampled_from([1, 3, 8]),
        dead=st.sets(st.integers(0, 15), max_size=12),
        batches=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=10),
            min_size=1,
            max_size=3,
        ),
    )
    def test_fused_pass_matches_reference(
        self, engines, small_queries, cae, capacity_rows, nprobe, dead, batches
    ):
        """The table pass as ``search_batch`` runs it, the grouped
        kernel reading its candidates: the cache ends as under the
        per-pair reference, every entry has the reference's bytes, and
        every group's top-k equals the full-row kernel's over the
        per-pair rows.  Dead DPUs drop the clusters they held alone:
        those pairs are probed (their candidates built and cached) but
        never scheduled."""
        from repro.core.kernel import BatchWorklist
        from repro.core.scheduling import schedule_batch
        from repro.faults import FaultEvent, FaultPlan, restrict_placement

        engine = engines[cae]
        got_cache, want_cache = _caches(capacity_rows, engine)
        plan = FaultPlan(events=tuple(FaultEvent("dpu", d, 0) for d in sorted(dead)))
        state = plan.state(n_units=engine.config.pim.n_dpus)
        state.begin_batch()
        placement, _, _ = restrict_placement(engine.placement, state.dead)
        try:
            engine.lut_cache = got_cache
            for rows in batches:
                queries = small_queries[rows]
                probes = list(engine.index.ivf.search_clusters(queries, nprobe))
                assignment = schedule_batch(
                    probes, engine._sizes, placement, on_missing="drop"
                )
                worklist = BatchWorklist.from_assignment(assignment, engine._sizes)
                with _spy_gather() as spy:
                    _check_fused_batch(
                        engine, queries, probes, worklist, got_cache, want_cache
                    )
                if capacity_rows == 0:
                    # Every pair misses, so the pass gathers every row.
                    assert _gathered_rows(spy) == sum(len(p) for p in probes)
        finally:
            engine.lut_cache = None

    @pytest.mark.parametrize("cae", [True, False])
    def test_evicted_rows_not_reused_within_batch(self, engines, small_queries, cae):
        """A 3-entry cache evicts most of a batch's entries while the
        batch still needs them, and repeated queries hit entries that
        are evicted later in the batch.  Their rows are held until the
        cache settles, so no later miss overwrites a row the kernel
        reads: candidates and top-k equal the per-pair reference."""
        from repro.core.kernel import BatchWorklist
        from repro.core.scheduling import schedule_batch

        engine = engines[cae]
        got_cache, want_cache = _caches(3, engine)
        try:
            engine.lut_cache = got_cache
            for rows in ([0, 1, 0, 2, 1, 0, 3, 3], [3, 0, 4, 0, 4]):
                queries = small_queries[rows]
                probes = list(engine.index.ivf.search_clusters(queries, 8))
                assignment = schedule_batch(probes, engine._sizes, engine.placement)
                worklist = BatchWorklist.from_assignment(assignment, engine._sizes)
                _check_fused_batch(
                    engine, queries, probes, worklist, got_cache, want_cache,
                    held=True,
                )
        finally:
            engine.lut_cache = None

    @pytest.mark.parametrize("cae", [True, False])
    def test_rebuilt_entry_matches_evicted_bytes(self, engines, small_queries, cae):
        """An entry built on its own beside cache hits (as after an
        eviction) has the bytes it has when built with the rest of the
        batch."""
        engine = engines[cae]
        queries = small_queries[:6]
        probes = list(engine.index.ivf.search_clusters(queries, 8))
        qi, c = 2, int(probes[2][3])
        try:
            engine.lut_cache = LutCache(1 << 26, registry=MetricsRegistry())
            before = _build(engine, queries, probes)
            pairs = _pairs(before)
            built = {
                pair: [a.copy() for a in _pair(before, *pair, _width(engine, pair[1]))]
                for pair in pairs
            }
            cache = engine.lut_cache = LutCache(1 << 26, registry=MetricsRegistry())
            without = [p if q != qi else p[p != c] for q, p in enumerate(probes)]
            _build(engine, queries, without)
            _, misses = counter_values(cache._registry)
            with _spy_gather() as spy:
                after = _build(engine, queries, probes)
            assert counter_values(cache._registry)[1] == misses + 1
            assert _gathered(spy) == [[(c, 1)]]  # gathered alone
            assert sorted(_pairs(after)) == sorted(pairs)
            for pair in pairs:
                got = _pair(after, *pair, _width(engine, pair[1]))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in built[pair]]
        finally:
            engine.lut_cache = None

    def test_plain_entries_own_their_bytes(
        self, registry, small_dataset, trained_index, history_queries,
        small_queries,
    ):
        """The byte cap bounds what the cache keeps alive: after each
        batch of a churn at a cap of two queries' entries, the cache is
        within it and the slab holds at most twice the live rows, and
        clear() releases the slab."""
        cap = 2 * SLOT_BYTES + 16 * ENTRY_BYTES
        engine = _small_engine(
            small_dataset,
            trained_index,
            history_queries,
            enable_cae=False,
            lut_cache_bytes=cap,
        )
        cache = engine.lut_cache
        for start in range(0, 40, 7):
            engine.search_batch(small_queries[start : start + 12])
            assert 0 < cache.nbytes <= cap
            _assert_held_bound(cache)
        arrays = [weakref.ref(a) for a in cache.slab(ENGINE_K)]
        assert arrays[0]().shape[0] > 0
        cache.clear()
        assert cache.stats()["rows"] == 0
        assert all(ref() is None for ref in arrays)


class TestMixedK:
    """Entries are keyed by k: a search with another k misses instead of
    reading an entry cut to the wrong width."""

    def test_k_5_10_5_matches_fresh_engines(
        self, registry, small_dataset, trained_index, history_queries, small_queries
    ):
        from repro.core import kernel

        def fresh():
            return _small_engine(small_dataset, trained_index, history_queries)

        engine = fresh()
        cache = engine.lut_cache
        queries = small_queries[:12]
        seen = []

        def spy(worklist, points, candidates, k, *args, **kwargs):
            seen.append((candidates.values.shape[1], k))
            return real(worklist, points, candidates, k, *args, **kwargs)

        real = kernel.compute_groups_functional
        with mock.patch.object(kernel, "compute_groups_functional", spy):
            for call, k in enumerate((5, 10, 5)):
                hits, misses = counter_values(registry)
                got = engine.search_batch(queries, k=k)
                new_hits = counter_values(registry)[0] - hits
                new_misses = counter_values(registry)[1] - misses
                want = fresh().search_batch(queries, k=k)
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(
                    got.distances.view(np.uint32), want.distances.view(np.uint32)
                )
                if call < 2:  # no entry of this k yet
                    assert new_hits == 0 and new_misses > 0
                else:  # the k = 10 entries left the k = 5 ones alone
                    assert new_hits > 0 and new_misses == 0
                assert {entry[2] for entry in cache.entries()} <= {5, 10}
        # The kernel only ever read slabs as wide as its k.
        assert seen and all(width == k for width, k in seen)
        assert {entry[2] for entry in cache.entries()} == {5, 10}


class TestChunkSegmentGather:
    """The table pass gathers each chunk's cluster segments while the
    chunk is live (``compute_pair_distances`` over slices of the chunk
    buffer) and cuts each distance row to its top-k; every pair's
    candidates must equal those of the per-pair ``adc_distances`` /
    ``adc_distances_direct`` scan of a table built on its own, by
    uint32 view, wherever the chunk boundaries fall."""

    @staticmethod
    def build(engine, queries, probes, k=ENGINE_K):
        """The engine's table pass without a cache: every pair misses."""
        from repro.core.engine import build_batch_tables

        return build_batch_tables(
            engine.index.pq,
            engine.index.ivf.centroids,
            queries,
            probes,
            engine._slot_lanes,
            engine._payloads,
            None,
            engine._codebook_version,
            k,
        )

    @staticmethod
    def assert_rows_match_oracle(engine, queries, probes, got, k=ENGINE_K):
        for qi, probe_ids in enumerate(probes):
            clusters = [int(c) for c in probe_ids]
            tables = _reference_tables(engine, queries[qi], clusters)
            for c, table in zip(clusters, tables):
                want_v, want_c = _oracle_candidates(engine, c, table, k)
                values, cols = _pair(got, qi, c, _width(engine, c, k))
                np.testing.assert_array_equal(values.view(np.uint32), want_v.view(np.uint32))
                np.testing.assert_array_equal(cols, want_c)

    @pytest.mark.parametrize("cae", [True, False])
    @pytest.mark.parametrize("chunk_rows", [1, 5, 256])
    def test_segments_match_per_pair_scan(
        self, engines, small_queries, monkeypatch, cae, chunk_rows
    ):
        """Chunks of 1, 5 and 256 rows: clusters probed by more queries
        than a chunk holds are split across chunk boundaries."""
        from repro.core import engine as engine_mod

        monkeypatch.setattr(engine_mod, "TABLE_CHUNK_ROWS", chunk_rows)
        engine = engines[cae]
        queries = small_queries[:12]
        probes = list(engine.index.ivf.search_clusters(queries, 8))
        with _spy_gather() as spy:
            got = self.build(engine, queries, probes)
        assert _gathered_rows(spy) == sum(len(p) for p in probes)
        calls = _gathered(spy)
        assert all(sum(n for _, n in call) <= chunk_rows for call in calls)
        split = [
            c
            for before, after in zip(calls, calls[1:])
            for c, _ in after[:1]
            if before[-1][0] == c
        ]
        assert bool(split) == (chunk_rows < 256)
        gathered = [c for call in calls for c, _ in call]
        assert any(engine._payloads[c].is_cae for c in gathered) == cae
        self.assert_rows_match_oracle(engine, queries, probes, got)

    @pytest.mark.parametrize("cae", [True, False])
    def test_clusters_smaller_than_k(self, engines, small_queries, cae):
        """With k above some clusters' sizes, those pairs fill only
        their first P_c columns, and the kernel's top-k over the pass's
        candidates equals the full-row kernel's over the per-pair rows."""
        from repro.core.kernel import BatchWorklist, compute_groups_functional
        from repro.core.scheduling import schedule_batch

        engine = engines[cae]
        k = int(np.median(engine._sizes))
        queries = small_queries[:6]
        probes = list(engine.index.ivf.search_clusters(queries, 8))
        assert any(engine._sizes[c] < k for p in probes for c in p)
        got = self.build(engine, queries, probes, k)
        self.assert_rows_match_oracle(engine, queries, probes, got, k)
        assignment = schedule_batch(probes, engine._sizes, engine.placement)
        worklist = BatchWorklist.from_assignment(assignment, engine._sizes)
        topk = compute_groups_functional(worklist, engine._point_ids, got, k, 4)
        ref = full_row_groups(
            worklist, engine._payloads, _full_rows(engine, queries, probes), k, 4
        )
        np.testing.assert_array_equal(topk.values.view(np.uint32), ref.values.view(np.uint32))
        np.testing.assert_array_equal(topk.ids, ref.ids)
        np.testing.assert_array_equal(topk.stats, ref.stats)

    @pytest.mark.parametrize("cae", [True, False])
    def test_dropped_pairs_match_per_pair_scan(
        self, engines, small_queries, monkeypatch, cae
    ):
        """Under a FaultPlan that kills DPUs, pairs whose cluster lived
        only on dead DPUs are dropped from the schedule but still
        probed: their candidates are built like any other, and the
        kernel's top-k over them equals the full-row kernel's over the
        per-pair rows."""
        from repro.core import engine as engine_mod
        from repro.core.kernel import BatchWorklist, compute_groups_functional
        from repro.core.scheduling import schedule_batch
        from repro.faults import FaultEvent, FaultPlan, restrict_placement

        monkeypatch.setattr(engine_mod, "TABLE_CHUNK_ROWS", 5)
        engine = engines[cae]
        plan = FaultPlan(events=tuple(FaultEvent("dpu", d, 0) for d in range(0, 16, 2)))
        state = plan.state(n_units=engine.config.pim.n_dpus)
        state.begin_batch()
        placement, _, _ = restrict_placement(engine.placement, state.dead)
        queries = small_queries[:12]
        probes = list(engine.index.ivf.search_clusters(queries, 8))
        assignment = schedule_batch(probes, engine._sizes, placement, on_missing="drop")
        worklist = BatchWorklist.from_assignment(assignment, engine._sizes)
        assert worklist.pair_cluster.shape[0] < sum(len(p) for p in probes)
        got = self.build(engine, queries, probes)
        self.assert_rows_match_oracle(engine, queries, probes, got)
        topk = compute_groups_functional(worklist, engine._point_ids, got, ENGINE_K, 4)
        ref = full_row_groups(
            worklist, engine._payloads, _full_rows(engine, queries, probes), ENGINE_K, 4
        )
        np.testing.assert_array_equal(topk.values.view(np.uint32), ref.values.view(np.uint32))
        np.testing.assert_array_equal(topk.ids, ref.ids)


def _check_fused_batch(
    engine, queries, probes, worklist, got_cache, want_cache, *, held=False
):
    """One batch of the table pass and the grouped kernel against the
    per-pair reference.  ``held``: the batch must evict rows it still
    reads."""
    from repro.core.kernel import compute_groups_functional

    got = _build(engine, queries, probes)
    want = _reference_build_tables(engine, queries, probes, want_cache)
    _assert_same_state(got_cache, want_cache)
    _assert_matches_reference(engine, got, want)
    _assert_same_entries(engine, got_cache, want_cache)
    # Pairs share a slab row only when they are the same cluster and
    # the same query vector (a hit on one entry).
    owner = {}
    for qi, c in _pairs(got):
        pair = (query_digest(queries[qi]), c)
        assert owner.setdefault(int(got.row[qi, c]), pair) == pair
    if held:  # some row the batch reads holds no entry any more
        assert set(owner) - {entry[3] for entry in got_cache.entries()}
    if worklist.n_groups:
        topk = compute_groups_functional(worklist, engine._point_ids, got, ENGINE_K, 4)
        ref = full_row_groups(
            worklist, engine._payloads, _full_rows(engine, queries, probes), ENGINE_K, 4
        )
        np.testing.assert_array_equal(topk.values.view(np.uint32), ref.values.view(np.uint32))
        np.testing.assert_array_equal(topk.ids, ref.ids)
        _assert_matches_reference(engine, got, want)  # the kernel left them intact
    got_cache.settle()
    _assert_held_bound(got_cache)


class TestDigestAndCapacity:
    def test_digest_stable_and_content_sensitive(self):
        q = np.arange(8, dtype=np.float32)
        assert query_digest(q) == query_digest(q.copy())
        assert query_digest(q) != query_digest(q + 1)
        assert len(query_digest(q)) == 16

    def test_digest_normalizes_dtype(self):
        q = np.arange(8, dtype=np.float64)
        assert query_digest(q) == query_digest(q.astype(np.float32))

    def test_check_capacity_rejects_negative(self):
        assert check_capacity(0) == 0
        assert check_capacity(1024) == 1024
        with pytest.raises(ConfigError):
            check_capacity(-1)
