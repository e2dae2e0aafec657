"""Cross-batch LUT cache tests: LRU semantics, capacity, counters."""

import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.encoding import build_flat_table
from repro.core.lut_cache import LutCache, check_capacity, query_digest
from repro.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry, set_registry


@pytest.fixture()
def registry():
    mine = MetricsRegistry()
    previous = set_registry(mine)
    yield mine
    set_registry(previous)


def table(fill, n=8):
    return np.full(n, fill, dtype=np.float32)  # 4 * n bytes


def key(i):
    return (bytes([i]) * 16, i, 0)


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
        cache.put(key(1), table(1.0))
        row = cache.get(key(1))
        assert row is not None
        np.testing.assert_array_equal(cache.slab(1)[row, :-1], table(1.0))
        np.testing.assert_array_equal(cache.table(key(1)), table(1.0))
        assert cache.slab(1)[row, -1] == 0.0  # the sentinel

    def test_eviction_is_by_bytes_lru_first(self, registry):
        cache = LutCache(96)  # fits three 32-byte tables
        for i in range(3):
            cache.put(key(i), table(float(i)))
        cache.get(key(0))  # refresh 0 -> 1 is now LRU
        cache.put(key(3), table(3.0))
        assert cache.get(key(1)) is None
        assert cache.get(key(0)) is not None
        assert cache.get(key(3)) is not None
        assert cache.nbytes <= 96

    def test_put_refreshes_existing_key_without_double_count(self, registry):
        cache = LutCache(1024)
        cache.put(key(1), table(1.0))
        cache.put(key(1), table(2.0))
        assert cache.nbytes == table(2.0).nbytes
        np.testing.assert_array_equal(cache.table(key(1)), table(2.0))

    def test_cluster_keeps_one_table_length(self, registry):
        """A slab's rows all have its cluster's table length; a put
        that breaks it keeps what it inserted before it, accounted."""
        cache = LutCache(1024)
        cache.put(key(1), table(1.0))
        with pytest.raises(ConfigError):
            cache.put_many([key(2), key(1)], [table(2.0), table(1.0, n=9)])
        assert list(cache._entries) == [key(1), key(2)]
        assert cache.nbytes == 2 * table(1.0).nbytes

    def test_oversized_table_not_retained(self, registry):
        cache = LutCache(16)
        cache.put(key(1), table(1.0))  # 32 bytes > capacity
        assert len(cache) == 0
        assert cache.get(key(1)) is None

    def test_zero_capacity_disables(self, registry):
        cache = LutCache(0)
        assert not cache.enabled
        cache.put(key(1), table(1.0))
        assert cache.get(key(1)) is None
        assert len(cache) == 0

    def test_clear_drops_everything(self, registry):
        cache = LutCache(1024)
        cache.put(key(1), table(1.0))
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert cache.stats()["entries"] == 0


class TestSlabs:
    """Entries are rows of per-cluster slabs."""

    def test_settle_compacts_sparse_slab(self, registry):
        cache = LutCache(1024)
        keys = [(bytes([i]) * 16, 1, 0) for i in range(4)]  # one cluster
        cache.put_many(keys, [table(float(i)) for i in range(4)])
        cache.settle()
        assert cache.slab(1).shape == (4, 9)
        for k in keys[:3]:
            cache.discard(k)
        cache.settle()  # 1 live row of 4: compacted
        assert cache.slab(1).shape == (1, 9)
        assert cache.get(keys[3]) == 0
        np.testing.assert_array_equal(cache.table(keys[3]), table(3.0))
        assert cache.stats()["held_bytes"] == 9 * 4
        cache.discard(keys[3])
        cache.settle()  # an empty slab is dropped
        assert cache.stats()["held_bytes"] == 0

    def test_cleared_slab_comes_back_at_its_size(self, registry):
        """A slab made again after clear() maps the rows its cluster had
        at once; only the rows handed out count as held."""
        cache = LutCache(1024)
        keys = [(bytes([i]) * 16, 1, 0) for i in range(5)]
        cache.put_many(keys, [table(float(i)) for i in range(5)])
        mapped = cache.slab(1).shape[0]
        cache.clear()
        cache.put(key(1), table(1.0))
        assert cache.slab(1).shape[0] == mapped == 5
        assert cache.stats()["held_bytes"] == 9 * 4
        np.testing.assert_array_equal(cache.table(key(1)), table(1.0))

    def test_rows_evicted_in_a_batch_wait_for_settle(self, registry):
        cache = LutCache(32)  # one 8-float table
        (first,) = cache.reserve_many([key(1)], [8])
        (second,) = cache.reserve_many([(b"x" * 16, 1, 0)], [8])  # evicts key(1)
        assert second != first  # the batch may still read the first row
        cache.settle()
        (third,) = cache.reserve_many([(b"y" * 16, 1, 0)], [8])
        assert third == first  # reused once the batch settled


class TestCounters:
    def test_hits_and_misses_counted(self, registry):
        cache = LutCache(1024, registry=registry)
        cache.put(key(1), table(1.0))
        cache.get(key(1))
        cache.get(key(2))
        assert counter_values(registry) == (1.0, 1.0)

    def test_get_many_matches_sequential_gets(self, registry):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        a = LutCache(1024, registry=reg_a)
        b = LutCache(1024, registry=reg_b)
        for c in (a, b):
            c.put(key(1), table(1.0))
            c.put(key(3), table(3.0))
        keys = [key(1), key(2), key(3), key(4), key(1)]
        batched = a.get_many(keys)
        single = [b.get(k) for k in keys]
        assert batched == single  # the same slab rows, None on miss
        assert [r is None for r in batched] == [False, True, False, True, False]
        assert counter_values(reg_a) == counter_values(reg_b) == (3.0, 2.0)

    def test_get_many_refreshes_recency(self, registry):
        cache = LutCache(64)  # fits two 32-byte tables
        cache.put(key(1), table(1.0))
        cache.put(key(2), table(2.0))
        cache.get_many([key(1)])  # 2 becomes LRU
        cache.put(key(3), table(3.0))
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
        lengths=st.lists(st.integers(1, 40), min_size=8, max_size=8),
        preload=st.lists(st.integers(0, 7), max_size=6),
        puts=st.lists(st.tuples(st.integers(0, 7), st.floats(0, 9)), max_size=25),
    )
    def test_equals_sequential_puts(self, capacity, floor, lengths, preload, puts):
        # Clusters 0-5 have a frequency view, 6 and 7 lie outside it;
        # cluster i's tables hold lengths[i] floats.
        freq = np.array([0.5, 0.01, 0.2, 0.0, 0.1, 0.19])
        registries = [MetricsRegistry(), MetricsRegistry()]
        caches = [LutCache(capacity, registry=reg) for reg in registries]
        preloaded = [(key(i), table(float(i), lengths[i])) for i in preload]
        for cache in caches:
            cache.set_admission(freq, floor)
            for k, t in preloaded:
                cache.put(k, t)
        batched, single = caches
        tables = [table(v, lengths[i]) for i, v in puts]  # repeats included
        batched.put_many([key(i) for i, _ in puts], tables)
        for (i, _), t in zip(puts, tables):
            single.put(key(i), t)
        assert list(batched._entries.items()) == list(single._entries.items())
        for k in batched._entries:
            got, want = batched.table(k), single.table(k)
            assert got.nbytes == want.nbytes == 4 * lengths[k[1]]
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        last = {i: v for i, v in puts}
        for k in batched._entries:  # a refreshed key holds its last table
            if k[1] in last:
                np.testing.assert_array_equal(
                    batched.table(k), table(last[k[1]], lengths[k[1]])
                )
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
        cache.put(key(0), table(1.0))
        cache.put(key(1), table(2.0))
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
        cache.put(key(1), table(2.0))
        assert cache.get(key(1)) is not None
        assert cache.stats()["admission_skips"] == 0

    def test_disarm_restores_full_admission(self, registry):
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        cache.set_admission(None)
        cache.put(key(1), table(2.0))
        assert cache.get(key(1)) is not None

    def test_out_of_range_cluster_admitted(self, registry):
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        cache.put(key(7), table(3.0))  # no frequency row for cluster 7
        assert cache.get(key(7)) is not None

    def test_admission_never_changes_returned_values(self, registry):
        """A skipped put only affects retention: the caller's table is
        untouched and a later get is an honest miss, not a wrong hit."""
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        t = table(4.0)
        before = t.copy()
        cache.put(key(1), t)
        np.testing.assert_array_equal(t, before)
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


def _reference_build_tables(engine, queries, probes, cache):
    """The table build as one build_flat_table call per (query, CAE
    cluster) — the loop the batched build replaced — writing through
    ``cache`` with one put per table.  Every table, hit or built, is
    its own array."""
    from repro.ivfpq.lut import build_luts_for_probes

    version = engine._codebook_version
    cache.settle()
    tables = {}
    for qi, probe_ids in enumerate(probes):
        per_q = tables[qi] = {}
        digest = query_digest(queries[qi])
        missing = [int(c) for c in probe_ids]
        if cache.enabled:
            keys = [(digest, c, version) for c in missing]
            for k, hit in zip(keys, cache.get_many(keys)):
                if hit is not None:
                    table = cache.table(k)
                    if engine._payloads[k[1]].cooc is None:
                        table = table.reshape(engine.index.pq.m, -1)
                    per_q[k[1]] = table
            missing = [c for c in missing if c not in per_q]
        if not missing:
            continue
        luts = build_luts_for_probes(
            engine.index.pq,
            queries[qi],
            engine.index.ivf.centroids,
            np.asarray(missing, dtype=np.int64),
        )
        for j, c in enumerate(missing):
            cooc = engine._payloads[c].cooc
            table = luts[j].copy() if cooc is None else build_flat_table(luts[j], cooc)
            per_q[c] = table
            if cache.enabled:
                cache.put((digest, c, version), table)
    return tables


def _cache_state(cache):
    hits, misses = counter_values(cache._registry)
    return {
        "keys": list(cache._entries),
        "nbytes": [cache.table(k).nbytes for k in cache._entries],
        "bytes": cache.nbytes,
        "hits": hits,
        "misses": misses,
        "skips": cache.stats()["admission_skips"],
    }


def _assert_same_tables(got_cache, want_cache):
    """Every cached table has the reference's bits."""
    for k in want_cache._entries:
        np.testing.assert_array_equal(
            got_cache.table(k).view(np.uint32), want_cache.table(k).view(np.uint32)
        )


def _assert_matches_reference(got, want):
    """The batch's tables are the reference's, pair for pair and bit for
    bit."""
    pairs = [(qi, c) for qi, per_q in want.items() for c in per_q]
    assert sorted(zip(got.query.tolist(), got.cluster.tolist())) == sorted(pairs)
    for qi, c in pairs:
        table = want[qi][c].reshape(-1)
        assert got.table(qi, c).shape == table.shape
        np.testing.assert_array_equal(
            got.table(qi, c).view(np.uint32), table.view(np.uint32)
        )


def _held_bound(cache):
    """The most the slabs may hold between batches: twice the live
    tables' rows, one sentinel float each."""
    return 2 * (cache.nbytes + 4 * len(cache))


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


class TestEngineTables:
    """``UpANNSEngine._build_tables`` against the per-table reference:
    identical tables and an identical cache afterwards."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cae=st.booleans(),
        capacity_tables=st.sampled_from([0, 3, 10, 40, 10_000]),
        floor=st.sampled_from([0.0, 0.03]),
        batches=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=10),
            min_size=1,
            max_size=3,
        ),
    )
    def test_matches_per_table_build(
        self, engines, small_queries, cae, capacity_tables, floor, batches
    ):
        engine = engines[cae]
        table_bytes = 8 * 256 * 4  # an (m, ksub) float32 LUT
        caches = [
            LutCache(capacity_tables * table_bytes, registry=MetricsRegistry())
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
                got, _ = engine._build_tables(
                    queries, probes, engine.index.ivf.centroids
                )
                want = _reference_build_tables(engine, queries, probes, want_cache)
                _assert_matches_reference(got, want)
                assert _cache_state(got_cache) == _cache_state(want_cache)
                _assert_same_tables(got_cache, want_cache)
        finally:
            engine.lut_cache = None

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cae=st.booleans(),
        capacity_tables=st.sampled_from([0, 3, 10, 40, 10_000]),
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
        self, engines, small_queries, cae, capacity_tables, floor, nprobe, dead, batches
    ):
        """The table pass with a worklist, as ``search_batch`` runs it:
        the cache ends as under the per-table reference, every table has
        the reference's bytes, and every distance block (gathered from
        the pass's buffer or from slab rows) equals the looped per-pair
        oracle.  Dead DPUs drop the clusters they held alone: those
        pairs are probed (their tables built and cached) but never
        scheduled."""
        from repro.core.kernel import BatchWorklist
        from repro.core.scheduling import schedule_batch
        from repro.faults import FaultEvent, FaultPlan, restrict_placement

        engine = engines[cae]
        table_bytes = 8 * 256 * 4
        caches = [
            LutCache(capacity_tables * table_bytes, registry=MetricsRegistry())
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
        fused = 0
        try:
            engine.lut_cache = got_cache
            for rows in batches:
                queries = small_queries[rows]
                probes = list(engine.index.ivf.search_clusters(queries, nprobe))
                assignment = schedule_batch(
                    probes, engine._sizes, placement, on_missing="drop"
                )
                worklist = BatchWorklist.from_assignment(assignment, engine._sizes)
                fused += _check_fused_batch(
                    engine, queries, probes, worklist, got_cache, want_cache
                )
        finally:
            engine.lut_cache = None
        if capacity_tables == 0 and not dead:
            assert fused  # every scheduled cluster misses: all fuse

    @pytest.mark.parametrize("cae", [True, False])
    def test_evicted_rows_not_reused_within_batch(self, engines, small_queries, cae):
        """A 3-table cache evicts most of a batch's tables while the
        batch still needs them, and repeated queries hit tables that are
        evicted later in the batch.  Those rows are held until the cache
        settles, so no later miss overwrites a table the gather reads:
        tables, distance blocks and top-k equal the per-table
        reference."""
        from repro.core.kernel import BatchWorklist
        from repro.core.scheduling import schedule_batch

        engine = engines[cae]
        caches = [
            LutCache(3 * 8 * 256 * 4, registry=MetricsRegistry()) for _ in range(2)
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
        """A table rebuilt on its own after an eviction has the bytes it
        had when it was built with the rest of the batch."""
        engine = engines[cae]
        centroids = engine.index.ivf.centroids
        cache = LutCache(1 << 26, registry=MetricsRegistry())
        queries = small_queries[:6]
        probes = list(engine.index.ivf.search_clusters(queries, 8))
        try:
            engine.lut_cache = cache
            before, _ = engine._build_tables(queries, probes, centroids)
            pairs = list(zip(before.query.tolist(), before.cluster.tolist()))
            built = {pair: before.table(*pair).copy() for pair in pairs}
            key = list(cache._entries)[20]
            cache.discard(key)
            cached = set(cache._entries)
            version = engine._codebook_version
            _, misses = counter_values(cache._registry)
            after, _ = engine._build_tables(queries, probes, centroids)
            rebuilt = [
                (qi, c)
                for qi, c in pairs
                if (query_digest(queries[qi]), c, version) not in cached
            ]
            assert counter_values(cache._registry)[1] == misses + 1
            assert len(rebuilt) == 1
            qi, c = rebuilt[0]
            assert (query_digest(queries[qi]), c) == key[:2]
            for pair in pairs:
                assert after.table(*pair).tobytes() == built[pair].tobytes()
        finally:
            engine.lut_cache = None

    def test_plain_entries_own_their_bytes(
        self, registry, small_dataset, trained_index, history_queries,
        small_queries,
    ):
        """The byte cap bounds what the cache keeps alive: after each
        batch of a churn at a 16-table cap, the slabs hold at most twice
        the live tables' rows, and clear() releases every slab."""
        engine = _small_engine(
            small_dataset,
            trained_index,
            history_queries,
            enable_cae=False,
            lut_cache_bytes=16 * 8 * 256 * 4,
        )
        cache = engine.lut_cache
        row_bytes = (8 * 256 + 1) * 4
        for start in range(0, 40, 7):
            engine.search_batch(small_queries[start : start + 12])
            held = cache.stats()["held_bytes"]
            assert 0 < held <= _held_bound(cache) <= 2 * 16 * row_bytes
        slabs = [weakref.ref(cache.slab(c)) for c in list(cache._slabs)]
        assert slabs
        cache.clear()
        assert cache.stats()["held_bytes"] == 0
        assert all(ref() is None for ref in slabs)


def _check_fused_batch(
    engine, queries, probes, worklist, got_cache, want_cache, *, held=False
):
    """One batch of the table pass with a worklist against the
    per-table reference; returns how many clusters it fused.  ``held``:
    the batch must evict rows it still reads."""
    from repro.core.kernel import compute_groups_functional, compute_pair_distances
    from repro.ivfpq.adc import adc_distances, adc_distances_direct
    from tests.core.table_refs import as_batch_tables

    payloads = engine._payloads
    got, distances = engine._build_tables(
        queries, probes, engine.index.ivf.centroids, worklist
    )
    want = _reference_build_tables(engine, queries, probes, want_cache)
    assert _cache_state(got_cache) == _cache_state(want_cache)
    _assert_matches_reference(got, want)
    _assert_same_tables(got_cache, want_cache)
    # Pairs of different queries share a slab row only when the two
    # queries are the same vector (a hit on one table).
    owner = {}
    for qi, c, row in zip(got.query.tolist(), got.cluster.tolist(), got.row.tolist()):
        digest = query_digest(queries[qi])
        assert owner.setdefault((c, row), digest) == digest
    if held:
        assert any(slab.held for slab in got_cache._slabs.values())
    fused = 0
    if not worklist.n_groups:
        assert not distances
    else:
        clusters, _, block_pairs = worklist.by_cluster
        assert set(distances) <= set(clusters)
        fused = len(distances)
        pair_query = worklist.group_query[worklist.pair_group]
        for c, pairs in zip(clusters, block_pairs):
            payload = payloads[c]
            queries_c = pair_query[pairs]
            if c in distances:
                block = distances[c]
            else:
                rows = got.rows(queries_c, np.full_like(queries_c, c))
                stacked = np.take(got.slabs[c], rows, axis=0)
                (block,) = compute_pair_distances(
                    [(payload, stacked, stacked.shape[1] - 1)]
                )
            for row, q in zip(block, queries_c.tolist()):
                table = want[q][c]
                if payload.is_cae:
                    enc = payload.encoded
                    oracle = adc_distances_direct(
                        enc.addresses, table, enc.lengths.astype(np.int64)
                    )
                else:
                    oracle = adc_distances(payload.codes, table)
                assert list(map(float.hex, row.tolist())) == list(
                    map(float.hex, oracle.tolist())
                )
        topk = compute_groups_functional(
            worklist, payloads, got, 5, 4, distances=distances
        )
        ref = compute_groups_functional(worklist, payloads, as_batch_tables(want), 5, 4)
        np.testing.assert_array_equal(topk.values.view(np.uint32), ref.values.view(np.uint32))
        np.testing.assert_array_equal(topk.ids, ref.ids)
        _assert_matches_reference(got, want)  # the gather left them intact
    got_cache.settle()
    assert got_cache.stats()["held_bytes"] <= _held_bound(got_cache)
    return fused


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
