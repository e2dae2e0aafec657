"""Overlap modes on the event core: sequential barriers vs. double buffering."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.hardware.counters import StageCycles
from repro.sim import (
    HOST_CPU,
    PIM_BUS,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_SCHEDULE,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchSchedule,
    BatchWork,
    execute_stream,
    validate_chrome_trace,
)


def make_batch(
    *,
    filter_s: float = 1.0,
    tin_s: float = 2.0,
    dpu_cycles: float = 3.5e8,  # 1 s at 350 MHz
    tout_s: float = 0.5,
    agg_s: float = 0.25,
) -> BatchWork:
    """A synthetic single-batch description shaped like the engines emit."""
    work = BatchWork(dpu_frequency_hz=350e6)
    filt = work.work(HOST_CPU, STAGE_CLUSTER_FILTER, filter_s)
    sched = work.work(HOST_CPU, STAGE_SCHEDULE, 0.1, after=(filt,))
    tin = work.work(PIM_BUS, STAGE_TRANSFER_IN, tin_s, after=(sched,))
    stage = StageCycles(distance_calc=dpu_cycles)
    (tail,) = work.work_dpu_stages(
        [0], [list(stage.as_dict().values())], [stage], after=(tin,)
    )
    tout = work.work(PIM_BUS, STAGE_TRANSFER_OUT, tout_s, after=(tail,))
    work.work(HOST_CPU, STAGE_AGGREGATE, agg_s, after=(tout,))
    return work


def wallclock(batches: list[BatchWork], overlap: str) -> float:
    return execute_stream(batches, overlap=overlap).makespan


def assert_no_overlap(schedule: BatchSchedule) -> None:
    for tl in schedule.timelines.values():
        for prev, cur in zip(tl.spans, tl.spans[1:]):
            assert cur.t0 >= prev.t1 - 1e-12 * max(1.0, abs(prev.t1))


class TestSequential:
    def test_single_batch_is_identity_shaped(self):
        batch = make_batch()
        combined = execute_stream([batch], overlap="sequential")
        assert combined.makespan == pytest.approx(batch.execute().makespan)

    def test_makespan_is_sum_of_batches(self):
        batches = [make_batch() for _ in range(3)]
        combined = execute_stream(batches, overlap="sequential")
        assert combined.makespan == pytest.approx(
            sum(b.execute().makespan for b in batches)
        )

    def test_no_overlap_per_resource(self):
        combined = execute_stream(
            [make_batch() for _ in range(4)], overlap="sequential"
        )
        assert_no_overlap(combined)


class TestDoubleBuffer:
    def test_single_batch_matches_sequential(self):
        batch = make_batch()
        assert wallclock([batch], "double_buffer") == pytest.approx(
            wallclock([batch], "sequential")
        )

    def test_multi_batch_is_strictly_faster(self):
        """With nonzero transfer-in there is always time to hide."""
        batches = [make_batch() for _ in range(4)]
        assert wallclock(batches, "double_buffer") < wallclock(
            batches, "sequential"
        )

    def test_hides_at_most_the_front_end(self):
        """The win per pipelined batch is bounded by its prep+transfer-in."""
        batches = [make_batch() for _ in range(4)]
        seq = wallclock(batches, "sequential")
        db = wallclock(batches, "double_buffer")
        front_end = 1.0 + 0.1 + 2.0  # filter + schedule + tin per batch
        assert seq - db <= 3 * front_end + 1e-9

    def test_no_overlap_per_resource(self):
        combined = execute_stream(
            [make_batch() for _ in range(4)], overlap="double_buffer"
        )
        assert_no_overlap(combined)

    def test_composed_trace_is_valid(self):
        combined = execute_stream(
            [make_batch() for _ in range(3)], overlap="double_buffer"
        )
        assert validate_chrome_trace(combined.to_chrome_trace()) == []

    def test_dpu_work_is_preserved(self):
        combined = execute_stream(
            [make_batch() for _ in range(3)], overlap="double_buffer"
        )
        total_cycles = sum(
            tl.busy_cycles() for tl in combined.dpu_timelines()
        )
        assert total_cycles == pytest.approx(3 * 3.5e8)

    def test_zero_transfer_in_gives_no_benefit_beyond_prep(self):
        batches = [
            make_batch(filter_s=0.0, tin_s=0.0) for _ in range(3)
        ]
        seq = wallclock(batches, "sequential")
        db = wallclock(batches, "double_buffer")
        # Only the 0.1 s schedule span and the aggregate offload remain
        # hideable; the bulk of the timeline is unchanged.
        assert db <= seq + 1e-9


class TestDispatch:
    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigError):
            execute_stream([make_batch()], overlap="triple_buffer")

    def test_compose_empty_sequence_raises(self):
        """An empty run has no schedule — callers asking for a combined
        run-level view before serving anything get a clear error
        instead of a silent zero-makespan schedule."""
        for mode in ("sequential", "double_buffer"):
            with pytest.raises(ValueError, match="empty"):
                execute_stream([], overlap=mode)


class TestServiceIntegration:
    @pytest.fixture(scope="class")
    def engine(self, small_dataset, history_queries, trained_index):
        from repro.config import (
            IndexConfig,
            QueryConfig,
            SystemConfig,
            UpANNSConfig,
        )
        from repro.core.engine import UpANNSEngine
        from repro.hardware.specs import PimSystemSpec

        cfg = SystemConfig(
            index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
            query=QueryConfig(nprobe=8, k=5, batch_size=10),
            upanns=UpANNSConfig(),
            pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        )
        return UpANNSEngine(cfg).build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )

    def serve(self, engine, queries, overlap: str):
        from repro.core.service import OnlineService

        service = OnlineService(engine, overlap=overlap)
        reports = [
            service.submit(queries[lo : lo + 10])
            for lo in range(0, len(queries), 10)
        ]
        return service, reports

    def test_sequential_wallclock_matches_batch_totals(
        self, engine, small_queries
    ):
        service, reports = self.serve(engine, small_queries, "sequential")
        total = sum(r.result.timing.total_s for r in reports)
        assert service.wallclock_seconds() == pytest.approx(total, rel=1e-9)

    def test_double_buffer_is_strictly_faster(self, engine, small_queries):
        """The same served stream run both ways: double buffering must
        win whenever there is transfer-in time to hide."""
        service, reports = self.serve(engine, small_queries, "sequential")
        assert len(service.works) > 1
        assert reports[0].result.schedule.stage_seconds(STAGE_TRANSFER_IN) > 0
        assert wallclock(service.works, "double_buffer") < wallclock(
            service.works, "sequential"
        )

    def test_double_buffer_service_beats_batch_total_sum(
        self, engine, small_queries
    ):
        service, reports = self.serve(engine, small_queries, "double_buffer")
        total = sum(r.result.timing.total_s for r in reports)
        assert service.wallclock_seconds() < total

    def test_summary_reports_wallclock(self, engine, small_queries):
        service, _reports = self.serve(engine, small_queries, "sequential")
        summary = service.summary()
        assert summary["wallclock_s"] == pytest.approx(
            service.wallclock_seconds()
        )

    def test_unknown_overlap_rejected(self, engine):
        from repro.core.service import OnlineService

        with pytest.raises(ConfigError):
            OnlineService(engine, overlap="nope")
