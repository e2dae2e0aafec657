"""Executor backend tests: spec parsing, deterministic chunking, and the
serial/process bit-identity contract.

The property at the heart of this module: for any batch — fault-free or
faulted — the grouped engine must return byte-identical results under
``serial`` and ``process:N``, including modeled timings, coverage and
the LUT-cache hit/miss counters.  Only host wall-clock may differ.
"""

import numpy as np
import pytest

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.errors import ConfigError, ExecutorError
from repro.faults import FaultPlan
from repro.hardware.specs import PimSystemSpec
from repro.parallel import ExecutorSpec, parse_executor_spec
from repro.parallel.executor import _chunk_indices
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


class TestParseExecutorSpec:
    def test_serial_aliases(self):
        assert parse_executor_spec(None) == ExecutorSpec(kind="serial")
        assert parse_executor_spec("") == ExecutorSpec(kind="serial")
        assert parse_executor_spec("serial") == ExecutorSpec(kind="serial")
        assert parse_executor_spec("  SERIAL ") == ExecutorSpec(kind="serial")

    def test_process_with_count(self):
        spec = parse_executor_spec("process:4")
        assert spec == ExecutorSpec(kind="process", workers=4)

    def test_bare_process_sizes_to_host(self):
        spec = parse_executor_spec("process")
        assert spec.kind == "process"
        assert spec.workers >= 1

    @pytest.mark.parametrize(
        "bad", ["process:0", "process:-1", "process:x", "threads", "pool:2"]
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_executor_spec(bad)


class TestChunkIndices:
    def test_partitions_everything_exactly_once(self):
        chunks = _chunk_indices([5, 1, 9, 3, 3, 7], 3)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(6))

    def test_deterministic(self):
        counts = [4, 4, 2, 8, 1, 1, 6]
        assert _chunk_indices(counts, 3) == _chunk_indices(counts, 3)

    def test_members_sorted_and_no_empty_chunks(self):
        chunks = _chunk_indices([1, 1], 8)
        assert all(chunk == sorted(chunk) for chunk in chunks)
        assert all(chunk for chunk in chunks)
        assert len(chunks) == 2

    def test_balances_load(self):
        chunks = _chunk_indices([10, 10, 1, 1], 2)
        loads = sorted(
            sum([10, 10, 1, 1][i] for i in chunk) for chunk in chunks
        )
        assert loads == [11, 11]


def make_config(**upanns_kwargs):
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        upanns=UpANNSConfig(**upanns_kwargs),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
    )


def build_engine(small_dataset, trained_index, history_queries, executor):
    eng = UpANNSEngine(make_config(), executor=executor)
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


def assert_results_identical(serial, pooled):
    for r_s, r_p in zip(serial, pooled):
        np.testing.assert_array_equal(r_s.ids, r_p.ids)
        np.testing.assert_array_equal(r_s.distances, r_p.distances)
        assert timing_hex(r_s.timing) == timing_hex(r_p.timing)
        assert r_s.heap_stats == r_p.heap_stats
        if r_s.degraded is None:
            assert r_p.degraded is None
        else:
            assert r_p.degraded is not None
            np.testing.assert_array_equal(
                r_s.degraded.coverage, r_p.degraded.coverage
            )


class TestSerialProcessBitIdentity:
    """Satellite: serial vs process-pool results are bit-identical across
    fault-free and faulted batches — ids, distances, timings, coverage
    and the LUT-cache hit/miss counters."""

    def test_fault_free_batches(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        serial_eng = build_engine(
            small_dataset, trained_index, history_queries, "serial"
        )
        pool_eng = build_engine(
            small_dataset, trained_index, history_queries, "process:2"
        )
        try:
            # Two identical batches: the first is cold (cache misses),
            # the second warm (cache hits) — counters must agree on both.
            batches = [small_queries, small_queries]
            serial, serial_counters = run_with_counters(serial_eng, batches)
            pooled, pooled_counters = run_with_counters(pool_eng, batches)
            assert_results_identical(serial, pooled)
            assert serial_counters == pooled_counters
            assert serial_counters["repro_lut_cache_hits_total"] > 0
        finally:
            serial_eng.close()
            pool_eng.close()

    def test_faulted_batches(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        plan = FaultPlan.from_specs(["dpu:1@0", "dpu:5@1"], seed=3)
        serial_eng = build_engine(
            small_dataset, trained_index, history_queries, "serial"
        )
        pool_eng = build_engine(
            small_dataset, trained_index, history_queries, "process:2"
        )
        try:
            serial_eng.inject(plan)
            pool_eng.inject(plan)
            batches = [small_queries, small_queries, small_queries]
            serial, serial_counters = run_with_counters(serial_eng, batches)
            pooled, pooled_counters = run_with_counters(pool_eng, batches)
            assert any(r.degraded is not None for r in serial)
            assert_results_identical(serial, pooled)
            assert serial_counters == pooled_counters
        finally:
            serial_eng.close()
            pool_eng.close()

    def test_cache_invalidation_propagates_to_workers(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        """clear_runtime_caches must leave pooled results identical to a
        genuinely cold serial run (workers drop their caches on the
        epoch bump, not just the parent)."""
        serial_eng = build_engine(
            small_dataset, trained_index, history_queries, "serial"
        )
        pool_eng = build_engine(
            small_dataset, trained_index, history_queries, "process:2"
        )
        try:
            for eng in (serial_eng, pool_eng):
                eng.search_batch(small_queries)  # warm everything
                eng.clear_runtime_caches()
            serial, serial_counters = run_with_counters(
                serial_eng, [small_queries]
            )
            pooled, pooled_counters = run_with_counters(
                pool_eng, [small_queries]
            )
            assert_results_identical(serial, pooled)
            assert serial_counters == pooled_counters
            assert serial_counters["repro_lut_cache_hits_total"] == 0
        finally:
            serial_eng.close()
            pool_eng.close()


class TestWorkerTables:
    def test_plain_entries_own_their_bytes(
        self, monkeypatch, small_dataset, trained_index, history_queries, small_queries
    ):
        """Twin of the engine's test: the worker's private cache must not
        keep views into a query's LUT stack, or its byte cap would not
        bound the memory it pins."""
        from repro.core.kernel import BatchWorklist
        from repro.core.lut_cache import LutCache
        from repro.parallel import worker

        eng = UpANNSEngine(make_config(enable_cae=False))
        eng.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        state = worker._WorkerState(
            shm=None,
            pq=eng.index.pq,
            centroids=eng.index.ivf.centroids,
            payloads={p.cluster_id: p for p in eng._payloads},
            slot_lanes={},
            tables=LutCache(16 * 8 * 256 * 4, registry=MetricsRegistry()),
        )
        probes = list(eng.index.ivf.search_clusters(small_queries, 8))
        worklist = BatchWorklist.from_assignment(
            eng.search_batch(small_queries, probes=probes).assignment, eng._sizes
        )
        monkeypatch.setattr(worker, "_STATE", state)
        worker.run_task(
            (0, 0, 5, 4, True, worklist, small_queries, probes)
        )
        entries = list(state.tables._entries.values())
        assert entries
        assert all(entry.base is None for entry in entries)


class TestExecutorSelection:
    def test_env_variable_selects_backend(
        self,
        monkeypatch,
        small_dataset,
        trained_index,
        history_queries,
        small_queries,
    ):
        monkeypatch.setenv("REPRO_EXECUTOR", "process:1")
        eng = build_engine(small_dataset, trained_index, history_queries, None)
        try:
            eng.search_batch(small_queries)
            assert eng._executor_runtime is not None
            assert eng._executor_runtime.backend == "process"
        finally:
            eng.close()

    def test_explicit_field_beats_env(
        self,
        monkeypatch,
        small_dataset,
        trained_index,
        history_queries,
        small_queries,
    ):
        monkeypatch.setenv("REPRO_EXECUTOR", "process:1")
        eng = build_engine(
            small_dataset, trained_index, history_queries, "serial"
        )
        try:
            eng.search_batch(small_queries)
            assert eng._executor_runtime is None
        finally:
            eng.close()

    def test_bad_spec_surfaces_as_config_error(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        eng = build_engine(
            small_dataset, trained_index, history_queries, "threads:4"
        )
        try:
            with pytest.raises(ConfigError):
                eng.search_batch(small_queries)
        finally:
            eng.close()


class TestWorkerCrash:
    def test_crash_raises_executor_error_then_recovers(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        """A dead worker must surface as a clean ExecutorError (not a
        hang), and the engine must rebuild the pool on the next batch."""
        eng = build_engine(
            small_dataset, trained_index, history_queries, "process:2"
        )
        try:
            before = eng.search_batch(small_queries)
            runtime = eng._executor_runtime
            assert runtime is not None
            with pytest.raises(ExecutorError):
                runtime.inject_crash()
            # The pool is broken: the next batch fails fast and cleanly.
            with pytest.raises(ExecutorError):
                eng.search_batch(small_queries)
            # ... and the one after that runs on a rebuilt pool.
            after = eng.search_batch(small_queries)
            assert eng._executor_runtime is not runtime
            np.testing.assert_array_equal(before.ids, after.ids)
            np.testing.assert_array_equal(before.distances, after.distances)
        finally:
            eng.close()
