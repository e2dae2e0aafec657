"""Cross-batch LUT cache tests: LRU semantics, capacity, counters."""

import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.encoding import build_flat_table
from repro.core.lut_cache import LutCache, check_capacity, query_digest
from repro.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry, set_registry
from tests.core.distance_refs import full_row_groups, oracle_distances, oracle_row_topk


@pytest.fixture()
def registry():
    mine = MetricsRegistry()
    previous = set_registry(mine)
    yield mine
    set_registry(previous)


#: Candidates per unit-test entry: an entry counts 8 * K = 32 bytes.
K = 4


def cands(fill, n=K):
    """n candidates of value ``fill``, at columns 0, 1, ..."""
    return np.full(n, fill, dtype=np.float32), np.arange(n, dtype=np.int32)


def key(i, k=K):
    return (bytes([i]) * 16, i, 0, k)


def assert_holds(cache, k, fill, n=K):
    """``k``'s entry holds ``cands(fill, n)`` in its first n columns."""
    values, cols = cache.candidates(k)
    want_v, want_c = cands(fill, n)
    np.testing.assert_array_equal(values[:n].view(np.uint32), want_v.view(np.uint32))
    np.testing.assert_array_equal(cols[:n], want_c)


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
        cache = LutCache(1024)
        cache.put(key(1), *cands(1.0))
        row = cache.get(key(1))
        assert row is not None
        values, cols = cache.slab(K)
        assert values.shape[1] == cols.shape[1] == K  # k-wide rows
        np.testing.assert_array_equal(values[row], cands(1.0)[0])
        np.testing.assert_array_equal(cols[row], cands(1.0)[1])
        assert_holds(cache, key(1), 1.0)

    def test_eviction_is_by_bytes_lru_first(self, registry):
        cache = LutCache(96)  # fits three 32-byte entries
        for i in range(3):
            cache.put(key(i), *cands(float(i)))
        cache.get(key(0))  # refresh 0 -> 1 is now LRU
        cache.put(key(3), *cands(3.0))
        assert cache.get(key(1)) is None
        assert cache.get(key(0)) is not None
        assert cache.get(key(3)) is not None
        assert cache.nbytes <= 96

    def test_put_refreshes_existing_key_without_double_count(self, registry):
        cache = LutCache(1024)
        cache.put(key(1), *cands(1.0))
        cache.put(key(1), *cands(2.0))
        assert cache.nbytes == 8 * K
        assert_holds(cache, key(1), 2.0)

    def test_entry_holds_at_most_k_candidates(self, registry):
        """An entry of k holds at most k candidates (fewer for a cluster
        smaller than k, yet it counts 8 * k bytes); a put of more
        raises before it inserts anything."""
        cache = LutCache(1024)
        cache.put(key(1), *cands(1.0))
        wide = cands(1.0, n=K + 1)
        with pytest.raises(ConfigError):
            cache.put_many(
                [key(2), key(1)], [cands(2.0)[0], wide[0]], [cands(2.0)[1], wide[1]]
            )
        assert list(cache._entries) == [key(1)]
        assert cache.nbytes == 8 * K
        cache.put(key(3), *cands(3.0, n=2))
        assert cache.nbytes == 2 * 8 * K
        assert_holds(cache, key(3), 3.0, n=2)

    def test_oversized_table_not_retained(self, registry):
        cache = LutCache(16)
        cache.put(key(1), *cands(1.0))  # 32 bytes > capacity
        assert len(cache) == 0
        assert cache.get(key(1)) is None

    def test_zero_capacity_disables(self, registry):
        cache = LutCache(0)
        assert not cache.enabled
        cache.put(key(1), *cands(1.0))
        assert cache.get(key(1)) is None
        assert len(cache) == 0

    def test_clear_drops_everything(self, registry):
        cache = LutCache(1024)
        cache.put(key(1), *cands(1.0))
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert cache.stats()["entries"] == 0


class TestSlabs:
    """Entries are rows of one k-wide slab per k."""

    def test_settle_compacts_sparse_slab(self, registry):
        cache = LutCache(1024)
        keys = [(bytes([i]) * 16, i, 0, K) for i in range(4)]  # one k
        cache.put_many(
            keys, [cands(float(i))[0] for i in range(4)], [cands(0.0)[1]] * 4
        )
        cache.settle()
        assert cache.slab(K)[0].shape == (4, K)
        for k in keys[:3]:
            cache.discard(k)
        cache.settle()  # 1 live row of 4: compacted
        assert cache.slab(K)[0].shape == (1, K)
        assert cache.get(keys[3]) == 0
        assert_holds(cache, keys[3], 3.0)
        assert cache.stats()["held_bytes"] == 8 * K
        cache.discard(keys[3])
        cache.settle()  # an empty slab is dropped
        assert cache.stats()["held_bytes"] == 0

    def test_clear_releases_slab_memory(self, registry):
        """clear() drops the slab's arrays; a slab made again maps only
        the rows it hands out."""
        cache = LutCache(1024)
        keys = [(bytes([i]) * 16, 1, 0, K) for i in range(5)]
        cache.put_many(keys, [cands(float(i))[0] for i in range(5)], [cands(0.0)[1]] * 5)
        arrays = [weakref.ref(a) for a in cache.slab(K)]
        cache.clear()
        assert all(ref() is None for ref in arrays)
        cache.put(key(1), *cands(1.0))
        assert cache.slab(K)[0].shape[0] == 1
        assert cache.stats()["held_bytes"] == 8 * K
        assert_holds(cache, key(1), 1.0)

    def test_rows_evicted_in_a_batch_wait_for_settle(self, registry):
        cache = LutCache(32)  # one entry
        (first,) = cache.reserve_many([key(1)])
        (second,) = cache.reserve_many([(b"x" * 16, 1, 0, K)])  # evicts key(1)
        assert second != first  # the batch may still read the first row
        cache.settle()
        (third,) = cache.reserve_many([(b"y" * 16, 1, 0, K)])
        assert third == first  # reused once the batch settled

    @staticmethod
    def scanned_compaction(cache):
        """What ``settle()`` leaves by a whole-cache scan: each sparse
        slab's entries, found among all entries, take rows 0, 1, ... in
        their old row order; key order is untouched."""
        sparse = set()
        for k, slab in cache._slabs.items():
            live = len(slab.stamp) - len(slab.free) - len(slab.held)
            if live and 2 * live < len(slab.stamp):
                sparse.add(k)
        rows = {}
        for key_, row in cache._entries.items():
            if key_[3] in sparse:
                rows.setdefault(key_[3], []).append(row)
        renumber = {
            k: {old: new for new, old in enumerate(sorted(r))} for k, r in rows.items()
        }
        return [
            (key_, renumber[key_[3]][row] if key_[3] in sparse else row)
            for key_, row in cache._entries.items()
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        capacity_rows=st.sampled_from([2, 5, 12, 100]),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["put", "put", "get", "discard"]),
                    st.integers(0, 7),  # query
                    st.integers(0, 2),  # cluster
                ),
                max_size=24,
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @example(  # two live rows of six: compaction keeps their row order
        capacity_rows=100,
        batches=[
            [("put", q, 0) for q in range(6)]
            + [("get", 4, 0)]
            + [("discard", q, 0) for q in (0, 1, 3, 5)]
        ],
    )
    def test_settle_matches_entry_scan(self, capacity_rows, batches):
        """Compaction by each slab's own row -> key map leaves the keys,
        the LRU order, the rows and every row's bytes that scanning all
        entries does."""
        ks = [8, 3, 5]  # cluster c's entries are searched with k = ks[c]
        cache = LutCache(capacity_rows * 8 * 8, registry=MetricsRegistry())
        for ops in batches:
            for op, q, c in ops:
                k = (bytes([q]) * 16, c, 0, ks[c])
                if op == "put":
                    cache.put(k, *cands(float(q * 3 + c), ks[c]))
                elif op == "get":
                    cache.get(k)
                else:
                    cache.discard(k)
            want = self.scanned_compaction(cache)
            before = {
                k: [a.view(np.uint32) for a in cache.candidates(k)] for k in cache._entries
            }
            cache.settle()
            assert list(cache._entries.items()) == want
            for k, bits in before.items():
                for got, was in zip(cache.candidates(k), bits):
                    np.testing.assert_array_equal(got.view(np.uint32), was)
            for slab in cache._slabs.values():
                keyed = [r for r, k in enumerate(slab.keys) if k is not None]
                assert keyed == sorted(cache._entries[k] for k in slab.keys if k)
            assert cache.stats()["held_bytes"] <= 2 * cache.nbytes


class TestCounters:
    def test_hits_and_misses_counted(self, registry):
        cache = LutCache(1024, registry=registry)
        cache.put(key(1), *cands(1.0))
        cache.get(key(1))
        cache.get(key(2))
        assert counter_values(registry) == (1.0, 1.0)

    def test_get_many_matches_sequential_gets(self, registry):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        a = LutCache(1024, registry=reg_a)
        b = LutCache(1024, registry=reg_b)
        for c in (a, b):
            c.put(key(1), *cands(1.0))
            c.put(key(3), *cands(3.0))
        keys = [key(1), key(2), key(3), key(4), key(1)]
        batched = a.get_many(keys)
        single = [b.get(k) for k in keys]
        assert batched == single  # the same slab rows, None on miss
        assert [r is None for r in batched] == [False, True, False, True, False]
        assert counter_values(reg_a) == counter_values(reg_b) == (3.0, 2.0)

    def test_get_many_refreshes_recency(self, registry):
        cache = LutCache(64)  # fits two 32-byte entries
        cache.put(key(1), *cands(1.0))
        cache.put(key(2), *cands(2.0))
        cache.get_many([key(1)])  # 2 becomes LRU
        cache.put(key(3), *cands(3.0))
        assert cache.get(key(2)) is None
        assert cache.get(key(1)) is not None


class TestPutMany:
    """``put_many`` is a sequence of ``put`` calls in one call."""

    @staticmethod
    def skips(registry):
        families = {m["name"]: m for m in registry.snapshot()["metrics"]}
        fam = families.get("repro_lut_cache_admission_skips_total")
        return fam["samples"][0]["value"] if fam and fam["samples"] else None

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.sampled_from([0, 40, 96, 200, 1000]),
        floor=st.sampled_from([0.0, 0.05]),
        ks=st.lists(st.integers(1, 12), min_size=8, max_size=8),
        preload=st.lists(st.integers(0, 7), max_size=6),
        puts=st.lists(st.tuples(st.integers(0, 7), st.floats(0, 9)), max_size=25),
    )
    def test_equals_sequential_puts(self, capacity, floor, ks, preload, puts):
        # Clusters 0-5 have a frequency view, 6 and 7 lie outside it;
        # cluster i's entries are searched with k = ks[i].
        freq = np.array([0.5, 0.01, 0.2, 0.0, 0.1, 0.19])
        registries = [MetricsRegistry(), MetricsRegistry()]
        caches = [LutCache(capacity, registry=reg) for reg in registries]
        for cache in caches:
            cache.set_admission(freq, floor)
            for i in preload:
                cache.put(key(i, ks[i]), *cands(float(i), ks[i]))
        batched, single = caches
        entries = [cands(v, ks[i]) for i, v in puts]  # repeats included
        batched.put_many(
            [key(i, ks[i]) for i, _ in puts],
            [v for v, _ in entries],
            [c for _, c in entries],
        )
        for (i, _), (v, c) in zip(puts, entries):
            single.put(key(i, ks[i]), v, c)
        assert list(batched._entries.items()) == list(single._entries.items())
        for k in batched._entries:
            for got, want in zip(batched.candidates(k), single.candidates(k)):
                assert got.nbytes == want.nbytes == 4 * ks[k[1]]
                np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        last = {i: v for i, v in puts}
        for k in batched._entries:  # a refreshed key holds its last entry
            if k[1] in last:
                assert_holds(batched, k, last[k[1]], ks[k[1]])
        assert batched.nbytes == single.nbytes <= max(capacity, 0)
        assert batched.stats() == single.stats()
        assert self.skips(registries[0]) == self.skips(registries[1])


class TestAdmissionFloor:
    """Frequency-floor admission: retention-only, never values."""

    def freqs(self):
        # Cluster 0 is hot (0.9), cluster 1 is cold tail (0.01).
        return np.array([0.9, 0.01, 0.0])

    def test_below_floor_puts_skipped_and_counted(self, registry):
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        cache.put(key(0), *cands(1.0))
        cache.put(key(1), *cands(2.0))
        assert cache.get(key(0)) is not None  # hot cluster retained
        assert cache.get(key(1)) is None  # tail cluster not retained
        assert cache.stats()["admission_skips"] == 1
        families = {
            m["name"]: m for m in registry.snapshot()["metrics"]
        }
        fam = families["repro_lut_cache_admission_skips_total"]
        assert fam["samples"][0]["value"] == 1

    def test_zero_floor_admits_everything(self, registry):
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.0)
        cache.put(key(1), *cands(2.0))
        assert cache.get(key(1)) is not None
        assert cache.stats()["admission_skips"] == 0

    def test_disarm_restores_full_admission(self, registry):
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        cache.set_admission(None)
        cache.put(key(1), *cands(2.0))
        assert cache.get(key(1)) is not None

    def test_out_of_range_cluster_admitted(self, registry):
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        cache.put(key(7), *cands(3.0))  # no frequency row for cluster 7
        assert cache.get(key(7)) is not None

    def test_admission_never_changes_returned_values(self, registry):
        """A skipped put only affects retention: the caller's arrays are
        untouched and a later get is an honest miss, not a wrong hit."""
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        values, cols = cands(4.0)
        before = values.copy(), cols.copy()
        cache.put(key(1), values, cols)
        np.testing.assert_array_equal(values, before[0])
        np.testing.assert_array_equal(cols, before[1])
        assert cache.get(key(1)) is None


class TestAdmissionFloorEngine:
    """lut_admission_floor wiring: config validation + engine no-op."""

    def test_config_rejects_out_of_range_floor(self):
        from repro.config import UpANNSConfig

        with pytest.raises(ConfigError):
            UpANNSConfig(lut_admission_floor=-0.1)
        with pytest.raises(ConfigError):
            UpANNSConfig(lut_admission_floor=1.5)
        assert UpANNSConfig(lut_admission_floor=0.2).lut_admission_floor == 0.2

    def test_floor_is_functional_noop_on_engine(
        self, registry, small_dataset, trained_index, history_queries,
        small_queries,
    ):
        from repro.config import (
            IndexConfig,
            QueryConfig,
            SystemConfig,
            UpANNSConfig,
        )
        from repro.core.engine import UpANNSEngine
        from repro.hardware.specs import PimSystemSpec

        def build(floor):
            cfg = SystemConfig(
                index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
                query=QueryConfig(nprobe=8, k=5, batch_size=40),
                upanns=UpANNSConfig(lut_admission_floor=floor),
                pim=PimSystemSpec(
                    n_dimms=1, chips_per_dimm=2, dpus_per_chip=8
                ),
            )
            eng = UpANNSEngine(cfg)
            eng.build(
                small_dataset.vectors,
                history_queries=history_queries,
                prebuilt_index=trained_index,
            )
            return eng

        golden = build(0.0)
        floored = build(0.5)  # aggressive floor: most clusters skipped
        ref = golden.search_batch(small_queries)
        ref2 = golden.search_batch(small_queries)
        got = floored.search_batch(small_queries)
        got2 = floored.search_batch(small_queries)
        np.testing.assert_array_equal(ref.ids, got.ids)
        np.testing.assert_array_equal(ref.distances, got.distances)
        np.testing.assert_array_equal(ref2.ids, got2.ids)
        np.testing.assert_array_equal(ref2.distances, got2.distances)
        assert floored.lut_cache.stats()["admission_skips"] > 0
        assert golden.lut_cache.stats()["admission_skips"] == 0


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


def _reference_build_tables(engine, queries, probes, cache, k=ENGINE_K):
    """The table pass one pair at a time: one build_flat_table call per
    (query, CAE cluster), one per-pair ADC scan per built table and one
    full ``np.argsort`` per scan — the loops the batched pass replaced —
    writing each pair's candidates through ``cache`` with one put.
    Returns every pair's (values, cols), hit or built, cut to its
    ``min(k, P_c)`` columns."""
    version = engine._codebook_version
    cache.settle()
    rows = {}
    for qi, probe_ids in enumerate(probes):
        per_q = rows[qi] = {}
        digest = query_digest(queries[qi])
        missing = [int(c) for c in probe_ids]
        if cache.enabled:
            keys = [(digest, c, version, k) for c in missing]
            for key_, hit in zip(keys, cache.get_many(keys)):
                if hit is not None:
                    w = _width(engine, key_[1], k)
                    per_q[key_[1]] = tuple(a[:w] for a in cache.candidates(key_))
            missing = [c for c in missing if c not in per_q]
        if not missing:
            continue
        for c, table in zip(missing, _reference_tables(engine, queries[qi], missing)):
            per_q[c] = _oracle_candidates(engine, c, table, k)
            if cache.enabled:
                cache.put((digest, c, version, k), *per_q[c])
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


def _cache_state(cache):
    hits, misses = counter_values(cache._registry)
    return {
        "keys": list(cache._entries),
        "nbytes": [sum(a.nbytes for a in cache.candidates(k)) for k in cache._entries],
        "bytes": cache.nbytes,
        "hits": hits,
        "misses": misses,
        "skips": cache.stats()["admission_skips"],
    }


def _assert_same_entries(engine, got_cache, want_cache):
    """Every cached entry has the reference's candidates, bit for bit
    (the columns past ``min(k, P_c)`` are never read)."""
    for k in want_cache._entries:
        w = _width(engine, k[1], k[3])
        for got, want in zip(got_cache.candidates(k), want_cache.candidates(k)):
            np.testing.assert_array_equal(got[:w].view(np.uint32), want[:w].view(np.uint32))


def _pair(batch, qi, c, width):
    """One pair's (values, cols) in a batch's slab, cut to ``width``."""
    (row,) = batch.rows(np.array([qi]), c)
    return batch.values[row, :width], batch.cols[row, :width]


def _assert_matches_reference(engine, got, want):
    """The batch's candidates are the reference's, pair for pair and bit
    for bit."""
    pairs = [(qi, c) for qi, per_q in want.items() for c in per_q]
    assert sorted(zip(got.query.tolist(), got.cluster.tolist())) == sorted(pairs)
    for qi, c in pairs:
        values, cols = _pair(got, qi, c, _width(engine, c))
        want_v, want_c = want[qi][c]
        np.testing.assert_array_equal(values.view(np.uint32), want_v.view(np.uint32))
        np.testing.assert_array_equal(cols, want_c)


def _held_bound(cache):
    """The most the slabs may hold between batches: twice the live
    rows."""
    return 2 * cache.nbytes


#: Bytes of one entry at ENGINE_K: caps below are counted in these.
ENTRY_BYTES = 8 * ENGINE_K


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
        floor=st.sampled_from([0.0, 0.03]),
        batches=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=10),
            min_size=1,
            max_size=3,
        ),
    )
    def test_matches_per_table_build(
        self, engines, small_queries, cae, capacity_rows, floor, batches
    ):
        engine = engines[cae]
        caches = [
            LutCache(capacity_rows * ENTRY_BYTES, registry=MetricsRegistry())
            for _ in range(2)
        ]
        freq = np.linspace(2.0, 0.0, engine.index.ivf.n_clusters)
        for cache in caches:
            cache.set_admission(freq / freq.sum(), floor)
        got_cache, want_cache = caches
        try:
            engine.lut_cache = got_cache
            for rows in batches:  # repeated rows: duplicates within a batch
                queries = small_queries[rows]
                probes = list(engine.index.ivf.search_clusters(queries, 8))
                got = _build(engine, queries, probes)
                want = _reference_build_tables(engine, queries, probes, want_cache)
                _assert_matches_reference(engine, got, want)
                assert _cache_state(got_cache) == _cache_state(want_cache)
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
        floor=st.sampled_from([0.0, 0.03]),
        nprobe=st.sampled_from([1, 3, 8]),
        dead=st.sets(st.integers(0, 15), max_size=12),
        batches=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=10),
            min_size=1,
            max_size=3,
        ),
    )
    def test_fused_pass_matches_reference(
        self, engines, small_queries, cae, capacity_rows, floor, nprobe, dead, batches
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
        caches = [
            LutCache(capacity_rows * ENTRY_BYTES, registry=MetricsRegistry())
            for _ in range(2)
        ]
        freq = np.linspace(2.0, 0.0, engine.index.ivf.n_clusters)
        for cache in caches:
            cache.set_admission(freq / freq.sum(), floor)
        got_cache, want_cache = caches
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
        caches = [
            LutCache(3 * ENTRY_BYTES, registry=MetricsRegistry()) for _ in range(2)
        ]
        got_cache, want_cache = caches
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
        """An entry rebuilt on its own after an eviction has the bytes
        it had when it was built with the rest of the batch."""
        engine = engines[cae]
        cache = LutCache(1 << 26, registry=MetricsRegistry())
        queries = small_queries[:6]
        probes = list(engine.index.ivf.search_clusters(queries, 8))
        try:
            engine.lut_cache = cache
            before = _build(engine, queries, probes)
            pairs = list(zip(before.query.tolist(), before.cluster.tolist()))
            built = {
                pair: [a.copy() for a in _pair(before, *pair, _width(engine, pair[1]))]
                for pair in pairs
            }
            key_ = list(cache._entries)[20]
            cache.discard(key_)
            cached = set(cache._entries)
            version = engine._codebook_version
            _, misses = counter_values(cache._registry)
            with _spy_gather() as spy:
                after = _build(engine, queries, probes)
            rebuilt = [
                (qi, c)
                for qi, c in pairs
                if (query_digest(queries[qi]), c, version, ENGINE_K) not in cached
            ]
            assert counter_values(cache._registry)[1] == misses + 1
            assert len(rebuilt) == 1
            qi, c = rebuilt[0]
            assert (query_digest(queries[qi]), c) == key_[:2]
            assert _gathered(spy) == [[(c, 1)]]  # gathered alone
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
        batch of a churn at a cap of 16 entries, the slab holds at most
        twice the live rows, and clear() releases it."""
        engine = _small_engine(
            small_dataset,
            trained_index,
            history_queries,
            enable_cae=False,
            lut_cache_bytes=16 * ENTRY_BYTES,
        )
        cache = engine.lut_cache
        for start in range(0, 40, 7):
            engine.search_batch(small_queries[start : start + 12])
            held = cache.stats()["held_bytes"]
            assert 0 < held <= _held_bound(cache) <= 2 * 16 * ENTRY_BYTES
        arrays = [weakref.ref(a) for k in list(cache._slabs) for a in cache.slab(k)]
        assert arrays
        cache.clear()
        assert cache.stats()["held_bytes"] == 0
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
                assert {key_[3] for key_ in cache._entries} <= {5, 10}
        # The kernel only ever read slabs as wide as its k.
        assert seen and all(width == k for width, k in seen)
        assert {key_[3] for key_ in cache._entries} == {5, 10}


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
    assert _cache_state(got_cache) == _cache_state(want_cache)
    _assert_matches_reference(engine, got, want)
    _assert_same_entries(engine, got_cache, want_cache)
    # Pairs share a slab row only when they are the same cluster and
    # the same query vector (a hit on one entry).
    owner = {}
    for qi, c, row in zip(got.query.tolist(), got.cluster.tolist(), got.row.tolist()):
        pair = (query_digest(queries[qi]), c)
        assert owner.setdefault(row, pair) == pair
    if held:
        assert any(slab.held for slab in got_cache._slabs.values())
    if worklist.n_groups:
        topk = compute_groups_functional(worklist, engine._point_ids, got, ENGINE_K, 4)
        ref = full_row_groups(
            worklist, engine._payloads, _full_rows(engine, queries, probes), ENGINE_K, 4
        )
        np.testing.assert_array_equal(topk.values.view(np.uint32), ref.values.view(np.uint32))
        np.testing.assert_array_equal(topk.ids, ref.ids)
        _assert_matches_reference(engine, got, want)  # the kernel left them intact
    got_cache.settle()
    assert got_cache.stats()["held_bytes"] <= _held_bound(got_cache)


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
