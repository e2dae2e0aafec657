"""End-to-end: serving batches populates the metrics registry.

Each test swaps in a fresh registry, drives real pipeline code (engine,
service, multi-host coordinator), and asserts the instrumented hot paths
reported what the modeled run actually did.  The golden-timing tests in
``tests/sim`` are the other half of the contract: instrumentation must
never change modeled time.
"""

import numpy as np
import pytest

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.multihost import MultiHostEngine
from repro.core.service import OnlineService
from repro.hardware.mram import MAX_DMA_BYTES
from repro.hardware.specs import PimSystemSpec
from repro.telemetry.registry import MetricsRegistry, set_registry


@pytest.fixture()
def registry():
    mine = MetricsRegistry()
    previous = set_registry(mine)
    yield mine
    set_registry(previous)


def tiny_config(batch_size=40):
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=4),
        query=QueryConfig(nprobe=8, k=5, batch_size=batch_size),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
    )


@pytest.fixture()
def engine(small_dataset, trained_index, history_queries):
    eng = UpANNSEngine(tiny_config())
    eng.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return eng


class TestEngineBatch:
    def test_queries_and_batches_counted(self, registry, engine, small_queries):
        engine.search_batch(small_queries)
        fam = registry.get("repro_queries_total")
        assert fam.labels(engine="upanns").value == len(small_queries)
        assert registry.get("repro_batches_total").labels(engine="upanns").value == 1

    def test_stage_seconds_match_timing(self, registry, engine, small_queries):
        result = engine.search_batch(small_queries)
        fam = registry.get("repro_stage_seconds_total")
        total = sum(
            fam.labels(engine="upanns", stage=s).value
            for s in (
                "cluster_filter",
                "schedule",
                "transfer_in",
                "dpu",
                "transfer_out",
                "aggregate",
            )
        )
        assert total == pytest.approx(result.timing.total_s, rel=1e-9)

    def test_dpu_load_metrics(self, registry, engine, small_queries):
        engine.search_batch(small_queries)
        assert registry.get("repro_dpu_busy_cycles_total").labels().value > 0
        active = registry.get("repro_dpu_active").labels().value
        assert 1 <= active <= engine.pim.n_dpus
        assert registry.get("repro_dpu_tasklets").labels().value >= 1

    def test_batch_size_histogram(self, registry, engine, small_queries):
        engine.search_batch(small_queries)
        child = registry.get("repro_batch_size").labels(engine="upanns")
        assert child.count == 1
        assert child.sum == len(small_queries)


class TestDmaAndWram:
    def test_dma_bytes_and_transfer_sizes(self, registry, engine, small_queries):
        engine.search_batch(small_queries)
        read = registry.get("repro_mram_dma_bytes_total").labels(direction="read")
        assert read.value > 0
        hist = registry.get("repro_mram_dma_transfer_bytes").labels(direction="read")
        assert hist.count > 0
        # Every modeled DMA transaction respects the hardware ceiling, so
        # the last finite bucket must already hold every observation.
        assert hist.cumulative_buckets()[-1] == (float(MAX_DMA_BYTES), hist.count)
        assert hist.inf_count == 0

    def test_wram_peak_within_capacity(self, registry, engine, small_queries):
        engine.search_batch(small_queries)
        peak = registry.get("repro_wram_peak_bytes").labels().value
        assert 0 < peak <= engine.pim.dpus[0].spec.wram_bytes


class TestServiceMetrics:
    def test_batches_and_queue_depth(self, registry, engine, small_queries):
        service = OnlineService(engine)
        service.submit(small_queries)
        service.submit(small_queries)
        assert registry.get("repro_service_batches_total").labels().value == 2
        assert registry.get("repro_service_queue_depth").labels().value == 2


class TestMultiHostMetrics:
    def test_routing_and_network_counters(
        self, registry, small_dataset, trained_index, history_queries, small_queries
    ):
        engine = MultiHostEngine(host_configs=[tiny_config(), tiny_config()])
        engine.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        engine.search_batch(small_queries)
        assert (
            registry.get("repro_multihost_queries_total").labels().value
            == len(small_queries)
        )
        pairs = registry.get("repro_multihost_routed_pairs_total")
        routed = sum(child.value for child in pairs.children())
        assert routed >= len(small_queries)  # nprobe pairs per query
        net = registry.get("repro_multihost_network_bytes_total")
        assert net.labels(direction="distribute").value > 0
        assert net.labels(direction="gather").value > 0
        stages = registry.get("repro_stage_seconds_total")
        assert stages.labels(engine="multihost", stage="host_search").value > 0


class TestBatchedDmaObservation:
    """observe_dma_batch must leave the registry exactly where the
    per-stream observe_dma calls it replaces would."""

    def test_batch_flush_equals_per_stream_calls(self):
        from repro.telemetry.pipeline import (
            dma_observations,
            observe_dma,
            observe_dma_batch,
        )

        streams = [(3000, 2048), (512, 2048), (7, 8), (2048, 2048)]
        reg_single = MetricsRegistry()
        total = 0
        agg: dict[int, int] = {}
        for nbytes, chunk in streams:
            observe_dma("read", nbytes, chunk, registry=reg_single)
            total += nbytes
            for size, count in dma_observations(nbytes, chunk):
                agg[size] = agg.get(size, 0) + count
        reg_batch = MetricsRegistry()
        observe_dma_batch("read", total, agg, registry=reg_batch)
        assert reg_single.snapshot() == reg_batch.snapshot()

    def test_zero_bytes_is_a_noop(self):
        from repro.telemetry.pipeline import observe_dma_batch

        reg = MetricsRegistry()
        observe_dma_batch("write", 0, {})
        assert reg.snapshot()["metrics"] == []


class TestLaneTelemetry:
    """Queue-depth and occupancy series from the discrete-event core."""

    def stream(self):
        from repro.sim import EventEngine, execute_stream
        from tests.tracing.test_record import traced_work

        works = [
            traced_work(n_queries=4, start=4 * b, batch=b) for b in range(3)
        ]
        eng = EventEngine()
        sched = execute_stream(works, overlap="double_buffer", engine=eng)
        return eng, sched

    def test_lane_stats_become_gauges(self, registry):
        from repro.telemetry.pipeline import observe_lane_stats

        eng, sched = self.stream()
        observe_lane_stats(eng.lane_stats, schedule=sched)
        for resource, stats in eng.lane_stats.items():
            def val(name):
                return registry.gauge(name, "", ("resource",)).labels(
                    resource=resource
                ).value
            assert val("repro_lane_dispatched") == stats.dispatched
            assert val("repro_lane_queued") == stats.queued
            assert val("repro_lane_cancelled") == stats.cancelled
            assert val("repro_lane_peak_outstanding") == stats.peak_outstanding
        # Interleaved batches queue on the bus, and the peak shows it.
        bus = eng.lane_stats["pim_bus"]
        assert bus.peak_outstanding >= 2

    def test_occupancy_busy_plus_idle_is_makespan(self, registry):
        from repro.telemetry.pipeline import observe_lane_stats

        eng, sched = self.stream()
        observe_lane_stats(eng.lane_stats, schedule=sched)
        busy = registry.gauge("repro_lane_busy_seconds", "", ("resource",))
        idle = registry.gauge("repro_lane_idle_seconds", "", ("resource",))
        for resource, tl in sched.timelines.items():
            b = busy.labels(resource=resource).value
            i = idle.labels(resource=resource).value
            assert b == pytest.approx(sum(s.duration for s in tl.spans))
            assert b + i == pytest.approx(sched.makespan)

    def test_queue_wait_histogram_names_a_trace(self, registry):
        from repro.telemetry.pipeline import observe_lane_stats

        eng, sched = self.stream()
        observe_lane_stats(eng.lane_stats, schedule=sched)
        waits = registry.histogram(
            "repro_lane_queue_wait_seconds", "", ("resource",)
        )
        child = waits.labels(resource="pim_bus")
        assert child.count > 0
        # The exemplar is a real query of the stream, not a made-up tag.
        assert child.worst_exemplar() in {f"q{n:06d}" for n in range(12)}

    def test_worst_latency_exemplar_resolves_in_the_export(self, registry):
        # Acceptance: the worst latency bucket's exemplar trace id must
        # resolve to a query the exported trace record declares.
        from repro.telemetry.pipeline import observe_query_latencies
        from repro.tracing import make_trace_record, query_latencies, worst_query

        _, sched = self.stream()
        record = make_trace_record(name="x", config={}, schedule=sched)
        family = observe_query_latencies(query_latencies(sched))
        exemplar = family.labels().worst_exemplar()
        assert exemplar in {q["trace_id"] for q in record["queries"]}
        assert exemplar == worst_query(record)

    def test_event_mode_service_publishes_lane_series(
        self, registry, engine, small_queries
    ):
        # combined_schedule() exports EventEngine.lane_stats without any
        # caller-side plumbing.
        service = OnlineService(engine=engine, overlap="double_buffer")
        for _ in range(2):
            service.submit(small_queries)
        service.combined_schedule()
        assert service.last_event_engine is not None
        names = {f.name for f in registry.families()}
        assert {
            "repro_lane_dispatched",
            "repro_lane_peak_outstanding",
            "repro_lane_busy_seconds",
            "repro_lane_outstanding",
            "repro_lane_queue_wait_seconds",
            "repro_query_latency_seconds",
        } <= names
        latency = registry.histogram("repro_query_latency_seconds", "")
        assert latency.labels().count == 2 * len(small_queries)
