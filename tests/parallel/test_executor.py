"""The grouped kernel's in-process execution path: the table pass over
a caller-owned LUT cache, and cache invalidation between batches.

The grouped kernel runs :func:`~repro.core.engine.build_batch_tables`
then :func:`~repro.core.kernel.compute_groups_functional` in the
calling process; these tests pin the cache contracts of that path.
"""

import numpy as np

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.hardware.specs import PimSystemSpec
from repro.telemetry.registry import MetricsRegistry, set_registry

TIMING_FIELDS = (
    "host_filter_s",
    "host_schedule_s",
    "transfer_in_s",
    "dpu_makespan_s",
    "transfer_out_s",
    "host_aggregate_s",
)


def timing_hex(timing):
    return tuple(getattr(timing, f).hex() for f in TIMING_FIELDS)


def make_config(**upanns_kwargs):
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        upanns=UpANNSConfig(**upanns_kwargs),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
    )


def build_engine(small_dataset, trained_index, history_queries, **upanns_kwargs):
    eng = UpANNSEngine(make_config(**upanns_kwargs))
    eng.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return eng


def run_with_counters(engine, batches):
    """Run batches under a private registry; return (results, counters)."""
    mine = MetricsRegistry()
    previous = set_registry(mine)
    try:
        results = [engine.search_batch(q) for q in batches]
    finally:
        set_registry(previous)
    families = {m["name"]: m for m in mine.snapshot()["metrics"]}
    counters = {}
    for name in (
        "repro_lut_cache_hits_total",
        "repro_lut_cache_misses_total",
    ):
        fam = families.get(name)
        counters[name] = (
            fam["samples"][0]["value"] if fam and fam["samples"] else 0
        )
    return results, counters


def assert_results_identical(first, second):
    for r_a, r_b in zip(first, second):
        np.testing.assert_array_equal(r_a.ids, r_b.ids)
        np.testing.assert_array_equal(r_a.distances, r_b.distances)
        assert timing_hex(r_a.timing) == timing_hex(r_b.timing)
        assert r_a.heap_stats == r_b.heap_stats
        assert (r_a.degraded is None) == (r_b.degraded is None)


class TestSerialProcessBitIdentity:
    def test_cache_invalidation_propagates_to_workers(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        """After clear_runtime_caches, a warmed engine's next batch must
        match a freshly built engine's first batch: same results, same
        modeled timing and the same LUT-cache hit/miss counters."""
        fresh = build_engine(small_dataset, trained_index, history_queries)
        warmed = build_engine(small_dataset, trained_index, history_queries)
        warmed.search_batch(small_queries)  # warm everything
        warmed.clear_runtime_caches()
        cold, cold_counters = run_with_counters(fresh, [small_queries])
        cleared, cleared_counters = run_with_counters(warmed, [small_queries])
        assert_results_identical(cold, cleared)
        assert cold_counters == cleared_counters
        assert cleared_counters["repro_lut_cache_hits_total"] == 0
        assert cleared_counters["repro_lut_cache_misses_total"] > 0


class TestWorkerTables:
    def test_plain_entries_own_their_bytes(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        """The table pass over a caller-owned cache: the cache's byte
        cap bounds the slab memory it keeps.  A batch in flight adds at
        most a row per pair to twice the live rows; once settled, the
        cache is within its cap and the slab holds at most twice the
        live rows, and clear() releases it."""
        import weakref

        from repro.core.engine import build_batch_tables
        from repro.core.lut_cache import ROW_OVERHEAD, SLOT_OVERHEAD, LutCache

        eng = build_engine(
            small_dataset, trained_index, history_queries, enable_cae=False
        )
        k = 5
        cap = 2 * (4 * 32 + SLOT_OVERHEAD) + 16 * (8 * k + ROW_OVERHEAD)
        cache = LutCache(cap, registry=MetricsRegistry())
        for start in range(0, 40, 10):
            queries = small_queries[start : start + 20]
            probes = list(eng.index.ivf.search_clusters(queries, 8))
            live = cache.stats()["entries"]
            rows = build_batch_tables(
                eng.index.pq,
                eng.index.ivf.centroids,
                queries,
                probes,
                {},
                eng._payloads,
                cache,
                0,
                k,
            )
            assert cache.stats()["rows"] <= 2 * live + int((rows.row >= 0).sum())
            del rows
            cache.settle()
            stats = cache.stats()
            assert 0 < stats["rows"] <= 2 * stats["entries"]
            assert 0 < cache.nbytes <= cap
        slabs = [weakref.ref(a) for a in cache.slab(k)]
        cache.clear()
        assert cache.stats()["rows"] == 0
        assert all(ref() is None for ref in slabs)
