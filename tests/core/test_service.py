"""Online serving loop tests."""

import numpy as np
import pytest

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.scheduling import AdaptivePolicy
from repro.core.service import OnlineService
from repro.errors import NotTrainedError
from repro.hardware.specs import PimSystemSpec
from repro.workload.batch import BatchGenerator


def built_engine(small_dataset, trained_index, history_queries):
    cfg = SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=4),
        query=QueryConfig(nprobe=8, k=5, batch_size=30),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
    )
    eng = UpANNSEngine(cfg)
    eng.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return eng


class TestLifecycle:
    def test_requires_built_engine(self):
        cfg = SystemConfig(
            index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=2),
            pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        )
        with pytest.raises(NotTrainedError):
            OnlineService(engine=UpANNSEngine(cfg))

    def test_submit_returns_report(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries)
        )
        report = service.submit(small_queries)
        assert report.action in {"keep", "rereplicate", "relocate"}
        assert report.drift >= 0.0
        assert report.result.ids.shape == (len(small_queries), 5)

    def test_latency_accumulates(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries)
        )
        service.submit(small_queries)
        service.submit(small_queries)
        assert service.latency.n_batches == 2
        summary = service.summary()
        assert summary["batches"] == 2.0
        assert summary["p50_ms"] > 0


class TestTailLatency:
    def test_report_carries_running_percentiles(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries)
        )
        first = service.submit(small_queries)
        assert 0 < first.p50_ms <= first.p95_ms <= first.p99_ms
        # One batch: every percentile is that batch's per-query latency.
        assert first.p50_ms == pytest.approx(first.p99_ms)
        second = service.submit(small_queries)
        assert second.p50_ms == pytest.approx(service.latency.percentile_ms(50))
        assert second.p95_ms == pytest.approx(service.latency.percentile_ms(95))
        assert second.p99_ms == pytest.approx(service.latency.percentile_ms(99))

    def test_summary_percentiles_match_recorder(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries)
        )
        service.submit(small_queries)
        summary = service.summary()
        for key, q in (("p50_ms", 50), ("p95_ms", 95), ("p99_ms", 99)):
            assert summary[key] == pytest.approx(service.latency.percentile_ms(q))


class TestAdaptation:
    def test_stable_traffic_keeps_placement(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries),
            policy=AdaptivePolicy(replicate_threshold=0.9, relocate_threshold=0.95),
        )
        for _ in range(3):
            report = service.submit(small_queries)
            assert report.action == "keep"
        assert service.refresh_count == 0

    def test_drifting_traffic_triggers_refresh(
        self, small_dataset, trained_index, history_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries),
            policy=AdaptivePolicy(replicate_threshold=0.01, relocate_threshold=0.8),
        )
        gen = BatchGenerator(
            small_dataset, batch_size=30, zipf_alpha=1.2, drift_per_batch=0.8,
            rng=np.random.default_rng(9),
        )
        service.serve(gen.batches(4))
        assert service.refresh_count >= 1

    def test_results_stay_exact_through_refreshes(
        self, small_dataset, trained_index, history_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries),
            policy=AdaptivePolicy(replicate_threshold=0.0, relocate_threshold=0.5),
        )
        gen = BatchGenerator(
            small_dataset, batch_size=30, zipf_alpha=1.0, drift_per_batch=0.5,
            rng=np.random.default_rng(4),
        )
        for batch in gen.batches(3):
            report = service.submit(batch.queries)
            ref = trained_index.search(batch.queries, 5, 8)
            np.testing.assert_allclose(
                np.where(np.isfinite(report.result.distances), report.result.distances, -1),
                np.where(np.isfinite(ref.distances), ref.distances, -1),
                rtol=1e-4, atol=1e-4,
            )

    def test_refresh_rate_limited(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries),
            policy=AdaptivePolicy(replicate_threshold=0.0, relocate_threshold=0.9),
            min_batches_between_refreshes=100,
        )
        for _ in range(3):
            service.submit(small_queries)
        assert service.refresh_count == 0  # rate limiter held it back


class TestEventStream:
    """Run-level schedules from one discrete-event stream run."""

    def test_sequential_event_stream_matches_composed_wallclock(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries),
            overlap="sequential",
        )
        reports = [service.submit(small_queries) for _ in range(3)]
        assert service.wallclock_seconds() == pytest.approx(
            sum(r.result.timing.total_s for r in reports), rel=1e-9
        )

    def test_double_buffer_queues_behind_real_bus_occupancy(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        from repro.sanitize import sanitize_schedule
        from repro.sim import PIM_BUS, STAGE_TRANSFER_IN, execute_stream

        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries),
            overlap="double_buffer",
        )
        for _ in range(3):
            service.submit(small_queries)
        combined = service.combined_schedule()
        sequential = execute_stream(service.works, overlap="sequential")
        assert combined.makespan < sequential.makespan
        tins = sorted(
            (
                s
                for s in combined.timeline(PIM_BUS).spans
                if s.stage == STAGE_TRANSFER_IN
            ),
            key=lambda s: s.t0,
        )
        assert len(tins) == 6  # broadcast + metadata transfer per batch
        for prev, cur in zip(tins, tins[1:]):
            assert cur.t0 >= prev.t1  # genuine bus serialization
        assert sanitize_schedule(combined) == []

    def test_transient_transfer_faults_keep_retries_contiguous(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        """Double-buffered interleaving with retry traffic: each retry
        rides directly behind the transfer it repairs (no other batch's
        transfer-in wedges in between) and the composed stream
        sanitizes clean."""
        from repro.faults import FaultPlan
        from repro.sanitize import sanitize_schedule
        from repro.sim import PIM_BUS, STAGE_RETRY, STAGE_TRANSFER_IN

        engine = built_engine(small_dataset, trained_index, history_queries)
        engine.inject(FaultPlan.from_specs([], seed=3, transfer_hazard=0.9))
        service = OnlineService(engine, overlap="double_buffer")
        for _ in range(3):
            service.submit(small_queries)
        combined = service.combined_schedule()
        bus = sorted(combined.timeline(PIM_BUS).spans, key=lambda s: s.t0)
        retries = [s for s in bus if s.stage == STAGE_RETRY]
        assert retries, "hazard 0.9 over 3 batches must fire at least once"
        for i, span in enumerate(bus):
            if span.stage == STAGE_RETRY:
                assert bus[i - 1].stage in (STAGE_TRANSFER_IN, STAGE_RETRY)
        assert sanitize_schedule(combined) == []

    def test_dpu_death_interrupts_stream_mid_flight(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        from repro.faults import FaultPlan, pick_replicated_unit
        from repro.sanitize import sanitize_schedule
        from repro.sim import dpu_resource

        engine = built_engine(small_dataset, trained_index, history_queries)
        target = pick_replicated_unit(engine.placement)
        assert target is not None
        engine.inject(FaultPlan.from_specs([f"dpu:{target}@1"]))
        service = OnlineService(engine, overlap="double_buffer")
        for _ in range(3):
            service.submit(small_queries)
        assert engine.fault_state is not None
        assert engine.fault_state.death_batches.get(target) == 1
        combined = service.combined_schedule()
        # The victim's lane is fenced at the death batch: nothing on it
        # outlives the stream's view of the fault, and the run-level
        # timeline stays causally clean despite the truncation.
        victim = combined.timeline(dpu_resource(target))
        fence = max((s.t1 for s in victim.spans), default=0.0)
        assert fence < combined.makespan
        assert sanitize_schedule(combined) == []

    @pytest.mark.parametrize("pre", [0, 2])
    def test_death_fences_the_stream_batch_that_observed_it(
        self, pre, small_dataset, trained_index, history_queries, small_queries
    ):
        """Deaths are keyed by stream position, not by the fault plane's
        batch count (which starts at ``inject()``): engine batches served
        before the service existed must not drop the mid-flight fence."""
        from repro.faults import FaultPlan, pick_replicated_unit
        from repro.sanitize import sanitize_schedule
        from repro.sim import dpu_resource

        engine = built_engine(small_dataset, trained_index, history_queries)
        target = pick_replicated_unit(engine.placement)
        assert target is not None
        engine.inject(FaultPlan.from_specs([f"dpu:{target}@{pre + 1}"]))
        for _ in range(pre):
            engine.search_batch(small_queries)
        service = OnlineService(engine, overlap="double_buffer")
        reports = [service.submit(small_queries) for _ in range(3)]
        victim = dpu_resource(target)
        assert [r.deaths for r in reports] == [(), (victim,), ()]
        combined = service.combined_schedule()
        # Batch 1's transfer-in fences the lane while batch 0's compute
        # is still in flight on it.
        killed = [
            s for s in combined.timeline(victim).spans if s.trace.killed
        ]
        assert len(killed) == 1 and killed[0].trace.batch == 0
        assert sanitize_schedule(combined) == []

    def test_empty_service_rejected_in_event_mode_too(
        self, small_dataset, trained_index, history_queries
    ):
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries),
        )
        with pytest.raises(ValueError, match="empty"):
            service.combined_schedule()
