"""Discrete-event core: queuing, determinism, kills, stream execution.

The event engine must (a) make cross-batch contention *emerge* from
FIFO lane queuing rather than composition rules, and (b) interrupt work
mid-flight on a fault while conserving cycles on the truncated span.
Single-batch engine schedules are pinned span by span in
``golden_spans.json`` (test_golden_equivalence).
"""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.errors import ConfigError
from repro.hardware.counters import StageCycles
from repro.sanitize import sanitize_schedule
from repro.sim import (
    HOST_AGG,
    HOST_CPU,
    PIM_BUS,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_RETRY,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchWork,
    EventEngine,
    WorkItem,
    execute_stream,
)

FREQ = 350e6


def make_batch_work(
    *,
    filter_s: float = 1.0,
    tin_s: float = 2.0,
    dpu_cycles: float = 3.5e8,  # 1 s at 350 MHz
    tout_s: float = 0.5,
    agg_s: float = 0.25,
) -> BatchWork:
    """A synthetic batch description shaped like the engines emit."""
    work = BatchWork(dpu_frequency_hz=FREQ)
    host = work.work(HOST_CPU, STAGE_CLUSTER_FILTER, filter_s)
    tin = work.work(PIM_BUS, STAGE_TRANSFER_IN, tin_s, after=(host,))
    stage = StageCycles(distance_calc=dpu_cycles)
    (tail,) = work.work_dpu_stages(
        [0], [list(stage.as_dict().values())], [stage], after=(tin,)
    )
    tout = work.work(PIM_BUS, STAGE_TRANSFER_OUT, tout_s, after=(tail,))
    work.work(HOST_CPU, STAGE_AGGREGATE, agg_s, after=(tout,))
    return work


class TestBatchWork:
    def test_forward_dependency_rejected(self):
        work = BatchWork()
        with pytest.raises(ConfigError):
            work.work(HOST_CPU, STAGE_CLUSTER_FILTER, 1.0, after=(3,))

    def test_none_deps_filtered(self):
        work = BatchWork()
        uid = work.work(HOST_CPU, STAGE_CLUSTER_FILTER, 1.0, after=(None,))
        assert work.items[uid].deps == ()

    def test_dpu_stages_require_frequency(self):
        work = BatchWork()
        with pytest.raises(ConfigError):
            stage = StageCycles(distance_calc=1.0)
            work.work_dpu_stages([0], [list(stage.as_dict().values())], [stage])


class TestFifoQueuing:
    def test_second_arrival_queues_behind_busy_lane(self):
        work = BatchWork()
        work.work(PIM_BUS, STAGE_TRANSFER_IN, 2.0)
        work.work(PIM_BUS, STAGE_TRANSFER_IN, 1.0)
        engine = EventEngine()
        schedule = engine.run(work.items)
        spans = schedule.timeline(PIM_BUS).spans
        assert spans[0].t0 == 0.0 and spans[0].t1 == 2.0
        assert spans[1].t0 == 2.0 and spans[1].t1 == 3.0
        stats = engine.lane_stats[PIM_BUS]
        assert stats.dispatched == 2
        assert stats.queued == 1
        assert stats.peak_outstanding == 2

    def test_simultaneous_arrivals_start_in_uid_order(self):
        work = BatchWork()
        for dur in (1.0, 2.0, 3.0):
            work.work(PIM_BUS, STAGE_TRANSFER_IN, dur)
        spans = EventEngine().run(work.items).timeline(PIM_BUS).spans
        assert [s.t1 - s.t0 for s in spans] == [1.0, 2.0, 3.0]

    def test_pinned_successor_preempts_queue(self):
        """Retry traffic stays contiguous with the transfer it repairs
        even when another batch's transfer is already queued."""
        work = BatchWork()
        tin_a = work.work(PIM_BUS, STAGE_TRANSFER_IN, 1.0)
        work.work(PIM_BUS, STAGE_TRANSFER_IN, 1.0)  # rival, queued at t=0
        work.work(PIM_BUS, STAGE_RETRY, 0.5, after=(tin_a,), pinned=True)
        spans = EventEngine().run(work.items).timeline(PIM_BUS).spans
        assert [s.stage for s in spans] == [
            STAGE_TRANSFER_IN,
            STAGE_RETRY,
            STAGE_TRANSFER_IN,
        ]
        assert spans[1].t0 == spans[0].t1

    def test_duplicate_uid_rejected(self):
        items = [
            WorkItem(uid=0, resource=PIM_BUS, stage=STAGE_TRANSFER_IN, duration=1.0),
            WorkItem(uid=0, resource=PIM_BUS, stage=STAGE_TRANSFER_IN, duration=1.0),
        ]
        with pytest.raises(ConfigError):
            EventEngine().run(items)

    def test_dependency_cycle_is_deadlock_not_hang(self):
        items = [
            WorkItem(
                uid=0, resource=PIM_BUS, stage=STAGE_TRANSFER_IN,
                duration=1.0, deps=(1,),
            ),
            WorkItem(
                uid=1, resource=HOST_CPU, stage=STAGE_AGGREGATE,
                duration=1.0, deps=(0,),
            ),
        ]
        with pytest.raises(ConfigError, match="deadlock"):
            EventEngine().run(items)


class TestMidFlightKill:
    def test_inflight_compute_truncates_with_cycle_conservation(self):
        work = BatchWork(dpu_frequency_hz=FREQ)
        stage = StageCycles(distance_calc=3.5e8)
        (tail,) = work.work_dpu_stages([0], [list(stage.as_dict().values())], [stage])
        work.work(PIM_BUS, STAGE_TRANSFER_OUT, 0.5, after=(tail,))
        engine = EventEngine(dpu_frequency_hz=FREQ)
        schedule = engine.run(work.items, kills_at=[("dpu/0", 0.4)])
        # The lane carries the zero-cycle stage chain plus the truncated
        # distance_calc; stages after the fence never record.
        spans = schedule.timeline("dpu/0").spans
        cut = spans[-1]
        assert cut.stage == "distance_calc"
        # Whole cycles retired before the fence, duration exact.
        assert cut.cycles == float(int(0.4 * FREQ))
        assert cut.t1 - cut.t0 == cut.cycles / FREQ
        assert cut.t1 <= 0.4 + 1e-12
        # The dependent gather proceeds at the fence, not at the
        # original 1 s completion — graceful degradation, no deadlock.
        tout = schedule.timeline(PIM_BUS).spans[0]
        assert tout.t0 == 0.4
        assert engine.lane_stats["dpu/0"].cancelled >= 1
        assert sanitize_schedule(schedule) == []

    def test_kill_before_start_cancels_without_span(self):
        work = BatchWork()
        first = work.work(PIM_BUS, STAGE_TRANSFER_IN, 1.0)
        blocked = work.work("dpu/0", "distance_calc", 1.0, after=(first,))
        work.work(HOST_CPU, STAGE_AGGREGATE, 0.25, after=(blocked,))
        engine = EventEngine()
        schedule = engine.run(work.items, kills_at=[("dpu/0", 0.0)])
        assert schedule.timeline("dpu/0").spans == []
        # The aggregate still runs, released when its dead dependency
        # settles (at the transfer's end, which gated the dpu item).
        agg = schedule.timeline(HOST_CPU).spans[0]
        assert agg.t0 == 1.0
        assert engine.lane_stats["dpu/0"].cancelled == 1

    def test_kill_is_idempotent_and_fences_later_arrivals(self):
        work = BatchWork()
        work.work("dpu/0", "distance_calc", 1.0)
        later = work.work(PIM_BUS, STAGE_TRANSFER_IN, 2.0)
        work.work("dpu/0", "distance_calc", 1.0, after=(later,))
        engine = EventEngine()
        schedule = engine.run(
            work.items, kills_at=[("dpu/0", 0.5), ("dpu/0", 0.7)]
        )
        spans = schedule.timeline("dpu/0").spans
        assert len(spans) == 1 and spans[0].t1 == 0.5
        assert engine.lane_stats["dpu/0"].cancelled == 2


class TestExecuteStream:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            execute_stream([])

    def test_unknown_overlap_rejected(self):
        with pytest.raises(ConfigError):
            execute_stream([make_batch_work()], overlap="triple_buffer")

    def test_sequential_matches_composed_makespan(self):
        """A sequential stream's makespan is the per-batch makespans
        composed end to end."""
        works = [make_batch_work() for _ in range(3)]
        per_batch = sum(make_batch_work().execute().makespan for _ in range(3))
        stream = execute_stream(works, overlap="sequential")
        assert stream.makespan == pytest.approx(per_batch, rel=1e-12)
        assert sanitize_schedule(stream) == []

    def test_double_buffer_overlaps_and_queues_on_the_bus(self):
        works = [make_batch_work() for _ in range(3)]
        seq = execute_stream(
            [make_batch_work() for _ in range(3)], overlap="sequential"
        )
        stream = execute_stream(works, overlap="double_buffer")
        assert stream.makespan < seq.makespan
        # Inbound transfers are serialized by genuine bus occupancy:
        # batch N+1's transfer-in starts no earlier than batch N's ends.
        tins = [
            s
            for s in stream.timeline(PIM_BUS).spans
            if s.stage == STAGE_TRANSFER_IN
        ]
        assert len(tins) == 3
        for prev, cur in zip(tins, tins[1:]):
            assert cur.t0 >= prev.t1
        # Aggregation moved to its own lane.
        assert len(stream.timeline(HOST_AGG).spans) == 3
        assert sanitize_schedule(stream) == []

    def test_stream_kill_interrupts_previous_batch_mid_flight(self):
        """A DPU death at batch 1's first bus activity truncates batch
        0's compute still in flight on the victim lane."""
        # 2 s of compute: batch 1's transfer-in (released by batch 0's
        # transfer-in, one host-prep later) starts while it still runs.
        works = [
            make_batch_work(dpu_cycles=7e8),
            make_batch_work(dpu_cycles=7e8),
        ]
        stream = execute_stream(
            works, overlap="double_buffer", kills={"dpu/0": 1}
        )
        dc = [
            s
            for s in stream.timeline("dpu/0").spans
            if s.stage == "distance_calc"
        ]
        # Batch 0's 2 s compute was cut short; batch 1's never ran.
        assert len(dc) == 1
        assert 0.0 < dc[0].t1 - dc[0].t0 < 2.0
        assert dc[0].cycles == pytest.approx((dc[0].t1 - dc[0].t0) * FREQ)
        assert sanitize_schedule(stream) == []

    def test_sequential_stream_barriers_single_item_batches(self):
        w0, w1 = BatchWork(), BatchWork()
        w0.work(PIM_BUS, STAGE_TRANSFER_IN, 1.0)
        w1.work(PIM_BUS, STAGE_TRANSFER_IN, 1.0)
        stream = execute_stream([w0, w1], overlap="sequential")
        spans = stream.timeline(PIM_BUS).spans
        assert [s.t0 for s in spans] == [0.0, 1.0]


class TestArrivalRelease:
    """Arrival-time work release: WorkItem.earliest + stream releases."""

    def test_item_earliest_honored(self):
        work = make_batch_work()
        work.items = (replace(work.items[0], earliest=5.0), *work.items[1:])
        schedule = work.execute()
        head = schedule.timeline(HOST_CPU).spans[0]
        assert head.t0 == pytest.approx(5.0)
        assert sanitize_schedule(schedule) == []

    def test_default_earliest_is_bit_compatible(self):
        plain = make_batch_work().execute()
        explicit = make_batch_work()
        explicit.items = [replace(i, earliest=0.0) for i in explicit.items]
        assert explicit.execute().makespan == plain.makespan

    def test_release_delays_batch_start(self):
        """A batch submitted at time t starts no earlier than t, even
        on an idle pipeline — the gap is real queue time."""
        works = [make_batch_work(), make_batch_work()]
        base = execute_stream(
            [make_batch_work(), make_batch_work()], overlap="sequential"
        )
        gap = base.makespan + 3.0
        stream = execute_stream(
            works, overlap="sequential", releases=[0.0, gap]
        )
        batch1 = [
            s
            for tl in stream.timelines.values()
            for s in tl.spans
            if s.trace is not None and s.trace.batch == 1
        ]
        assert min(s.t0 for s in batch1) >= gap
        assert stream.makespan == pytest.approx(
            base.makespan / 2 + gap, rel=1e-12
        )
        assert sanitize_schedule(stream) == []

    def test_zero_releases_match_no_releases_bitwise(self):
        no_releases = execute_stream(
            [make_batch_work(), make_batch_work()], overlap="double_buffer"
        )
        zeros = execute_stream(
            [make_batch_work(), make_batch_work()],
            overlap="double_buffer",
            releases=[0.0, 0.0],
        )
        assert zeros.makespan == no_releases.makespan
        for name, tl in no_releases.timelines.items():
            other = zeros.timeline(name).spans
            assert [(s.t0, s.t1, s.stage) for s in tl.spans] == [
                (s.t0, s.t1, s.stage) for s in other
            ]

    def test_release_count_must_match_batches(self):
        with pytest.raises(ConfigError, match="release times"):
            execute_stream([make_batch_work()], releases=[0.0, 1.0])

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_release_values_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            execute_stream(
                [make_batch_work(), make_batch_work()], releases=[0.0, bad]
            )

    def test_decreasing_releases_rejected(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            execute_stream(
                [make_batch_work(), make_batch_work()], releases=[2.0, 1.0]
            )
