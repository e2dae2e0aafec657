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
from tests.core.distance_refs import as_batch_distances, oracle_distances


@pytest.fixture()
def registry():
    mine = MetricsRegistry()
    previous = set_registry(mine)
    yield mine
    set_registry(previous)


def dist_row(fill, n=8):
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
        cache.put(key(1), dist_row(1.0))
        row = cache.get(key(1))
        assert row is not None
        assert cache.slab(1).shape[1] == 8  # the row alone: no sentinel
        np.testing.assert_array_equal(cache.slab(1)[row], dist_row(1.0))
        np.testing.assert_array_equal(cache.distances(key(1)), dist_row(1.0))

    def test_eviction_is_by_bytes_lru_first(self, registry):
        cache = LutCache(96)  # fits three 32-byte rows
        for i in range(3):
            cache.put(key(i), dist_row(float(i)))
        cache.get(key(0))  # refresh 0 -> 1 is now LRU
        cache.put(key(3), dist_row(3.0))
        assert cache.get(key(1)) is None
        assert cache.get(key(0)) is not None
        assert cache.get(key(3)) is not None
        assert cache.nbytes <= 96

    def test_put_refreshes_existing_key_without_double_count(self, registry):
        cache = LutCache(1024)
        cache.put(key(1), dist_row(1.0))
        cache.put(key(1), dist_row(2.0))
        assert cache.nbytes == dist_row(2.0).nbytes
        np.testing.assert_array_equal(cache.distances(key(1)), dist_row(2.0))

    def test_cluster_keeps_one_table_length(self, registry):
        """A slab's rows all have its cluster's point count; a put that
        breaks it keeps what it inserted before it, accounted."""
        cache = LutCache(1024)
        cache.put(key(1), dist_row(1.0))
        with pytest.raises(ConfigError):
            cache.put_many([key(2), key(1)], [dist_row(2.0), dist_row(1.0, n=9)])
        assert list(cache._entries) == [key(1), key(2)]
        assert cache.nbytes == 2 * dist_row(1.0).nbytes

    def test_oversized_table_not_retained(self, registry):
        cache = LutCache(16)
        cache.put(key(1), dist_row(1.0))  # 32 bytes > capacity
        assert len(cache) == 0
        assert cache.get(key(1)) is None

    def test_zero_capacity_disables(self, registry):
        cache = LutCache(0)
        assert not cache.enabled
        cache.put(key(1), dist_row(1.0))
        assert cache.get(key(1)) is None
        assert len(cache) == 0

    def test_clear_drops_everything(self, registry):
        cache = LutCache(1024)
        cache.put(key(1), dist_row(1.0))
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert cache.stats()["entries"] == 0


class TestSlabs:
    """Entries are rows of per-cluster slabs."""

    def test_settle_compacts_sparse_slab(self, registry):
        cache = LutCache(1024)
        keys = [(bytes([i]) * 16, 1, 0) for i in range(4)]  # one cluster
        cache.put_many(keys, [dist_row(float(i)) for i in range(4)])
        cache.settle()
        assert cache.slab(1).shape == (4, 8)
        for k in keys[:3]:
            cache.discard(k)
        cache.settle()  # 1 live row of 4: compacted
        assert cache.slab(1).shape == (1, 8)
        assert cache.get(keys[3]) == 0
        np.testing.assert_array_equal(cache.distances(keys[3]), dist_row(3.0))
        assert cache.stats()["held_bytes"] == 8 * 4
        cache.discard(keys[3])
        cache.settle()  # an empty slab is dropped
        assert cache.stats()["held_bytes"] == 0

    def test_cleared_slab_comes_back_at_its_size(self, registry):
        """A slab made again after clear() maps the rows its cluster had
        at once; only the rows handed out count as held."""
        cache = LutCache(1024)
        keys = [(bytes([i]) * 16, 1, 0) for i in range(5)]
        cache.put_many(keys, [dist_row(float(i)) for i in range(5)])
        mapped = cache.slab(1).shape[0]
        cache.clear()
        cache.put(key(1), dist_row(1.0))
        assert cache.slab(1).shape[0] == mapped == 5
        assert cache.stats()["held_bytes"] == 8 * 4
        np.testing.assert_array_equal(cache.distances(key(1)), dist_row(1.0))

    def test_rows_evicted_in_a_batch_wait_for_settle(self, registry):
        cache = LutCache(32)  # one 8-float row
        (first,) = cache.reserve_many([key(1)], [8])
        (second,) = cache.reserve_many([(b"x" * 16, 1, 0)], [8])  # evicts key(1)
        assert second != first  # the batch may still read the first row
        cache.settle()
        (third,) = cache.reserve_many([(b"y" * 16, 1, 0)], [8])
        assert third == first  # reused once the batch settled

    @staticmethod
    def scanned_compaction(cache):
        """What ``settle()`` leaves by the whole-cache scan it replaced:
        each sparse slab's entries, found among all entries, take rows
        0, 1, ... in their old row order; key order is untouched."""
        sparse = set()
        for cluster, slab in cache._slabs.items():
            live = len(slab.stamp) - len(slab.free) - len(slab.held)
            if live and 2 * live < len(slab.stamp):
                sparse.add(cluster)
        rows = {}
        for k, row in cache._entries.items():
            if k[1] in sparse:
                rows.setdefault(k[1], []).append(row)
        renumber = {
            c: {old: new for new, old in enumerate(sorted(r))} for c, r in rows.items()
        }
        return [
            (k, renumber[k[1]][row] if k[1] in sparse else row)
            for k, row in cache._entries.items()
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
        entries did."""
        lengths = [8, 3, 5]  # cluster c's rows hold lengths[c] floats
        cache = LutCache(capacity_rows * 4 * 8, registry=MetricsRegistry())
        for ops in batches:
            for op, q, c in ops:
                k = (bytes([q]) * 16, c, 0)
                if op == "put":
                    cache.put(k, dist_row(float(q * 3 + c), lengths[c]))
                elif op == "get":
                    cache.get(k)
                else:
                    cache.discard(k)
            want = self.scanned_compaction(cache)
            before = {k: cache.distances(k).view(np.uint32) for k in cache._entries}
            cache.settle()
            assert list(cache._entries.items()) == want
            for k, bits in before.items():
                np.testing.assert_array_equal(cache.distances(k).view(np.uint32), bits)
            for slab in cache._slabs.values():
                keyed = [r for r, k in enumerate(slab.keys) if k is not None]
                assert keyed == sorted(cache._entries[k] for k in slab.keys if k)
            assert cache.stats()["held_bytes"] <= 2 * cache.nbytes


class TestCounters:
    def test_hits_and_misses_counted(self, registry):
        cache = LutCache(1024, registry=registry)
        cache.put(key(1), dist_row(1.0))
        cache.get(key(1))
        cache.get(key(2))
        assert counter_values(registry) == (1.0, 1.0)

    def test_get_many_matches_sequential_gets(self, registry):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        a = LutCache(1024, registry=reg_a)
        b = LutCache(1024, registry=reg_b)
        for c in (a, b):
            c.put(key(1), dist_row(1.0))
            c.put(key(3), dist_row(3.0))
        keys = [key(1), key(2), key(3), key(4), key(1)]
        batched = a.get_many(keys)
        single = [b.get(k) for k in keys]
        assert batched == single  # the same slab rows, None on miss
        assert [r is None for r in batched] == [False, True, False, True, False]
        assert counter_values(reg_a) == counter_values(reg_b) == (3.0, 2.0)

    def test_get_many_refreshes_recency(self, registry):
        cache = LutCache(64)  # fits two 32-byte rows
        cache.put(key(1), dist_row(1.0))
        cache.put(key(2), dist_row(2.0))
        cache.get_many([key(1)])  # 2 becomes LRU
        cache.put(key(3), dist_row(3.0))
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
        # cluster i's rows hold lengths[i] floats.
        freq = np.array([0.5, 0.01, 0.2, 0.0, 0.1, 0.19])
        registries = [MetricsRegistry(), MetricsRegistry()]
        caches = [LutCache(capacity, registry=reg) for reg in registries]
        preloaded = [(key(i), dist_row(float(i), lengths[i])) for i in preload]
        for cache in caches:
            cache.set_admission(freq, floor)
            for k, t in preloaded:
                cache.put(k, t)
        batched, single = caches
        rows = [dist_row(v, lengths[i]) for i, v in puts]  # repeats included
        batched.put_many([key(i) for i, _ in puts], rows)
        for (i, _), t in zip(puts, rows):
            single.put(key(i), t)
        assert list(batched._entries.items()) == list(single._entries.items())
        for k in batched._entries:
            got, want = batched.distances(k), single.distances(k)
            assert got.nbytes == want.nbytes == 4 * lengths[k[1]]
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        last = {i: v for i, v in puts}
        for k in batched._entries:  # a refreshed key holds its last row
            if k[1] in last:
                np.testing.assert_array_equal(
                    batched.distances(k), dist_row(last[k[1]], lengths[k[1]])
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
        cache.put(key(0), dist_row(1.0))
        cache.put(key(1), dist_row(2.0))
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
        cache.put(key(1), dist_row(2.0))
        assert cache.get(key(1)) is not None
        assert cache.stats()["admission_skips"] == 0

    def test_disarm_restores_full_admission(self, registry):
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        cache.set_admission(None)
        cache.put(key(1), dist_row(2.0))
        assert cache.get(key(1)) is not None

    def test_out_of_range_cluster_admitted(self, registry):
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        cache.put(key(7), dist_row(3.0))  # no frequency row for cluster 7
        assert cache.get(key(7)) is not None

    def test_admission_never_changes_returned_values(self, registry):
        """A skipped put only affects retention: the caller's row is
        untouched and a later get is an honest miss, not a wrong hit."""
        cache = LutCache(1024)
        cache.set_admission(self.freqs(), floor=0.05)
        t = dist_row(4.0)
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
    """The table pass one pair at a time: one build_flat_table call per
    (query, CAE cluster) and one per-pair ADC scan per built table — the
    loops the batched pass replaced — writing each distance row through
    ``cache`` with one put.  Returns every pair's distance row, hit or
    built, as its own array."""
    version = engine._codebook_version
    cache.settle()
    rows = {}
    for qi, probe_ids in enumerate(probes):
        per_q = rows[qi] = {}
        digest = query_digest(queries[qi])
        missing = [int(c) for c in probe_ids]
        if cache.enabled:
            keys = [(digest, c, version) for c in missing]
            for k, hit in zip(keys, cache.get_many(keys)):
                if hit is not None:
                    per_q[k[1]] = cache.distances(k)
            missing = [c for c in missing if c not in per_q]
        if not missing:
            continue
        for c, table in zip(missing, _reference_tables(engine, queries[qi], missing)):
            per_q[c] = oracle_distances(engine._payloads[c], table)
            if cache.enabled:
                cache.put((digest, c, version), per_q[c])
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


def _cache_state(cache):
    hits, misses = counter_values(cache._registry)
    return {
        "keys": list(cache._entries),
        "nbytes": [cache.distances(k).nbytes for k in cache._entries],
        "bytes": cache.nbytes,
        "hits": hits,
        "misses": misses,
        "skips": cache.stats()["admission_skips"],
    }


def _assert_same_rows(got_cache, want_cache):
    """Every cached distance row has the reference's bits."""
    for k in want_cache._entries:
        np.testing.assert_array_equal(
            got_cache.distances(k).view(np.uint32),
            want_cache.distances(k).view(np.uint32),
        )


def _assert_matches_reference(got, want):
    """The batch's distance rows are the reference's, pair for pair and
    bit for bit."""
    pairs = [(qi, c) for qi, per_q in want.items() for c in per_q]
    assert sorted(zip(got.query.tolist(), got.cluster.tolist())) == sorted(pairs)
    for qi, c in pairs:
        row = want[qi][c]
        assert got.distances(qi, c).shape == row.shape
        np.testing.assert_array_equal(
            got.distances(qi, c).view(np.uint32), row.view(np.uint32)
        )


def _held_bound(cache):
    """The most the slabs may hold between batches: twice the live
    rows."""
    return 2 * cache.nbytes


def _row_bytes(engine):
    """Bytes of a distance row of a mean-sized cluster: caps below are
    counted in these."""
    return 4 * int(engine._sizes.mean())


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


class TestEngineTables:
    """``UpANNSEngine._build_tables`` against the per-pair reference:
    identical distance rows and an identical cache afterwards."""

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
            LutCache(capacity_rows * _row_bytes(engine), registry=MetricsRegistry())
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
                got = engine._build_tables(queries, probes, engine.index.ivf.centroids)
                want = _reference_build_tables(engine, queries, probes, want_cache)
                _assert_matches_reference(got, want)
                assert _cache_state(got_cache) == _cache_state(want_cache)
                _assert_same_rows(got_cache, want_cache)
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
        kernel reading its rows: the cache ends as under the per-pair
        reference, every row has the reference's bytes, and every
        group's top-k equals the top-k over the reference's rows.  Dead
        DPUs drop the clusters they held alone: those pairs are probed
        (their rows built and cached) but never scheduled."""
        from repro.core.kernel import BatchWorklist
        from repro.core.scheduling import schedule_batch
        from repro.faults import FaultEvent, FaultPlan, restrict_placement

        engine = engines[cae]
        caches = [
            LutCache(capacity_rows * _row_bytes(engine), registry=MetricsRegistry())
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
        """A 3-row cache evicts most of a batch's rows while the batch
        still needs them, and repeated queries hit rows that are evicted
        later in the batch.  Those rows are held until the cache
        settles, so no later miss overwrites a row the kernel reads:
        distance rows and top-k equal the per-pair reference."""
        from repro.core.kernel import BatchWorklist
        from repro.core.scheduling import schedule_batch

        engine = engines[cae]
        caches = [
            LutCache(3 * _row_bytes(engine), registry=MetricsRegistry())
            for _ in range(2)
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
        """A distance row rebuilt on its own after an eviction has the
        bytes it had when it was built with the rest of the batch."""
        engine = engines[cae]
        centroids = engine.index.ivf.centroids
        cache = LutCache(1 << 26, registry=MetricsRegistry())
        queries = small_queries[:6]
        probes = list(engine.index.ivf.search_clusters(queries, 8))
        try:
            engine.lut_cache = cache
            before = engine._build_tables(queries, probes, centroids)
            pairs = list(zip(before.query.tolist(), before.cluster.tolist()))
            built = {pair: before.distances(*pair).copy() for pair in pairs}
            key = list(cache._entries)[20]
            cache.discard(key)
            cached = set(cache._entries)
            version = engine._codebook_version
            _, misses = counter_values(cache._registry)
            with _spy_gather() as spy:
                after = engine._build_tables(queries, probes, centroids)
            rebuilt = [
                (qi, c)
                for qi, c in pairs
                if (query_digest(queries[qi]), c, version) not in cached
            ]
            assert counter_values(cache._registry)[1] == misses + 1
            assert len(rebuilt) == 1
            qi, c = rebuilt[0]
            assert (query_digest(queries[qi]), c) == key[:2]
            assert _gathered(spy) == [[(c, 1)]]  # gathered alone
            for pair in pairs:
                assert after.distances(*pair).tobytes() == built[pair].tobytes()
        finally:
            engine.lut_cache = None

    def test_plain_entries_own_their_bytes(
        self, registry, small_dataset, trained_index, history_queries,
        small_queries,
    ):
        """The byte cap bounds what the cache keeps alive: after each
        batch of a churn at a cap of 16 rows of the largest cluster, the
        slabs hold at most twice the live rows, and clear() releases
        every slab."""
        row_bytes = 4 * int(trained_index.ivf.cluster_sizes().max())
        engine = _small_engine(
            small_dataset,
            trained_index,
            history_queries,
            enable_cae=False,
            lut_cache_bytes=16 * row_bytes,
        )
        cache = engine.lut_cache
        for start in range(0, 40, 7):
            engine.search_batch(small_queries[start : start + 12])
            held = cache.stats()["held_bytes"]
            assert 0 < held <= _held_bound(cache) <= 2 * 16 * row_bytes
        slabs = [weakref.ref(cache.slab(c)) for c in list(cache._slabs)]
        assert slabs
        cache.clear()
        assert cache.stats()["held_bytes"] == 0
        assert all(ref() is None for ref in slabs)


class TestChunkSegmentGather:
    """The table pass gathers each chunk's cluster segments while the
    chunk is live (``compute_pair_distances`` over slices of the chunk
    buffer); every row must equal the per-pair ``adc_distances`` /
    ``adc_distances_direct`` scan of a table built on its own, by
    uint32 view, wherever the chunk boundaries fall."""

    @staticmethod
    def build(engine, queries, probes):
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
        )

    @staticmethod
    def assert_rows_match_oracle(engine, queries, probes, got):
        for qi, probe_ids in enumerate(probes):
            clusters = [int(c) for c in probe_ids]
            tables = _reference_tables(engine, queries[qi], clusters)
            for c, table in zip(clusters, tables):
                want = oracle_distances(engine._payloads[c], table)
                np.testing.assert_array_equal(
                    got.distances(qi, c).view(np.uint32), want.view(np.uint32)
                )

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
    def test_dropped_pairs_match_per_pair_scan(
        self, engines, small_queries, monkeypatch, cae
    ):
        """Under a FaultPlan that kills DPUs, pairs whose cluster lived
        only on dead DPUs are dropped from the schedule but still
        probed: their rows are gathered like any other, and the kernel's
        top-k over the pass's rows equals it over the per-pair rows."""
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
        want = {
            qi: {int(c): got.distances(qi, int(c)).copy() for c in p}
            for qi, p in enumerate(probes)
        }
        topk = compute_groups_functional(worklist, engine._payloads, got, 5, 4)
        ref = compute_groups_functional(
            worklist, engine._payloads, as_batch_distances(want), 5, 4
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

    payloads = engine._payloads
    got = engine._build_tables(queries, probes, engine.index.ivf.centroids)
    want = _reference_build_tables(engine, queries, probes, want_cache)
    assert _cache_state(got_cache) == _cache_state(want_cache)
    _assert_matches_reference(got, want)
    _assert_same_rows(got_cache, want_cache)
    # Pairs of different queries share a slab row only when the two
    # queries are the same vector (a hit on one row).
    owner = {}
    for qi, c, row in zip(got.query.tolist(), got.cluster.tolist(), got.row.tolist()):
        digest = query_digest(queries[qi])
        assert owner.setdefault((c, row), digest) == digest
    if held:
        assert any(slab.held for slab in got_cache._slabs.values())
    if worklist.n_groups:
        topk = compute_groups_functional(worklist, payloads, got, 5, 4)
        ref = compute_groups_functional(
            worklist, payloads, as_batch_distances(want), 5, 4
        )
        np.testing.assert_array_equal(topk.values.view(np.uint32), ref.values.view(np.uint32))
        np.testing.assert_array_equal(topk.ids, ref.ids)
        _assert_matches_reference(got, want)  # the kernel left them intact
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
