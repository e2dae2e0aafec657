"""Per-query critical-path attribution: coverage, waits, fault notes."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults import KILL_ANNOTATION, RETRY_ANNOTATION
from repro.hardware.counters import StageCycles
from repro.sim import (
    HOST_CPU,
    PIM_BUS,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_RETRY,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchWork,
    dpu_resource,
    execute_stream,
)
from repro.tracing import (
    TraceContext,
    explain_query,
    make_trace_record,
    render_explanation,
    worst_query,
)
from tests.tracing.test_record import FREQ, traced_record


class TestCoverage:
    def test_interleaved_stream_fully_covered(self):
        record = traced_record(3)
        for q in record["queries"]:
            exp = explain_query(record, q["trace_id"])
            assert exp.coverage >= 0.95
            assert exp.latency_s == pytest.approx(q["latency_s"])
            # Ranked shares are the same seconds, normalized.
            total = sum(c.seconds for c in exp.ranked)
            assert total / exp.latency_s == pytest.approx(exp.coverage)
            assert exp.ranked == sorted(
                exp.ranked, key=lambda c: (-c.seconds, c.where)
            )

    def test_queue_wait_attributed_to_the_lane(self):
        # Under double_buffer interleaving, a batch's transfer-out sits
        # ready behind the next batch's transfer-in on the bus FIFO —
        # the explainer must say so, not fold it into service time.
        record = traced_record(3)
        exp = explain_query(record, "q000000")
        waits = [c for c in exp.ranked if c.kind == "wait"]
        assert waits and waits[0].where == f"(wait)@{PIM_BUS}"
        assert waits[0].seconds > 0.0
        # The final batch has nothing queueing behind it.
        last = explain_query(record, record["queries"][-1]["trace_id"])
        assert not [c for c in last.ranked if c.kind == "wait"]

    def test_fig16_double_buffer_service_acceptance(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        """The paper's fig-16 serving shape: a double-buffered stream
        through the real engine must explain >= 95% of a traced query's
        wall-clock latency (the repo's acceptance bar)."""
        from repro.core.service import OnlineService
        from tests.core.test_service import built_engine

        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries),
            overlap="double_buffer",
        )
        for _ in range(3):
            service.submit(small_queries)
        record = make_trace_record(
            name="fig16_stream",
            config={"overlap": "double_buffer"},
            schedule=service.combined_schedule(),
        )
        qid = worst_query(record)
        exp = explain_query(record, qid)
        assert exp.coverage >= 0.95
        declared = {row["span"] for row in record["spans"]}
        for c in exp.ranked:
            assert set(c.spans) <= declared

    def test_unknown_query_raises(self):
        with pytest.raises(ConfigError):
            explain_query(traced_record(1), "q424242")


class TestWorstQuery:
    def test_picks_max_latency(self):
        record = traced_record(3)
        qid = worst_query(record)
        worst = max(q["latency_s"] for q in record["queries"])
        mine = next(q for q in record["queries"] if q["trace_id"] == qid)
        assert mine["latency_s"] == worst

    def test_empty_record_rejected(self):
        with pytest.raises(ConfigError):
            worst_query({"queries": []})


def fault_work(
    *, retry_s: float = 0.0, dpu_s: float = 1.0, batch: int = 0
) -> BatchWork:
    """Two-query batch with an optional pinned bus retry before dpu/0."""
    ctx = TraceContext.for_batch(2, batch=batch, start=2 * batch)
    work = BatchWork(dpu_frequency_hz=FREQ, batch=batch)
    host = work.work(
        HOST_CPU, STAGE_CLUSTER_FILTER, 1.0, trace_ids=ctx.all_ids()
    )
    tin = work.work(
        PIM_BUS, STAGE_TRANSFER_IN, 2.0, after=(host,), trace_ids=ctx.all_ids()
    )
    gate = tin
    if retry_s > 0.0:
        gate = work.work(
            PIM_BUS,
            STAGE_RETRY,
            retry_s,
            after=(tin,),
            pinned=True,
            trace_ids=ctx.ids_for([0]),
        )
    d0 = work.work(
        dpu_resource(0),
        "distance_calc",
        dpu_s,
        cycles=dpu_s * FREQ,
        after=(gate,),
        trace_ids=ctx.ids_for([0]),
    )
    stage = StageCycles(distance_calc=1.75e8)
    (d1,) = work.work_dpu_stages(
        [1],
        [list(stage.as_dict().values())],
        [stage],
        after=(tin,),
        trace_ids=ctx.ids_for([1]),
    )
    tout = work.work(
        PIM_BUS, STAGE_TRANSFER_OUT, 0.5, after=(d0, d1), trace_ids=ctx.all_ids()
    )
    work.work(
        HOST_CPU, STAGE_AGGREGATE, 0.25, after=(tout,), trace_ids=ctx.all_ids()
    )
    return work


class TestFaultAnnotations:
    def test_retry_contribution_is_annotated(self):
        record = make_trace_record(
            name="x",
            config={},
            schedule=execute_stream([fault_work(retry_s=0.4)]),
        )
        exp = explain_query(record, "q000000")
        retry = next(c for c in exp.ranked if c.kind == "retry")
        assert retry.where == f"{STAGE_RETRY}@{PIM_BUS}"
        assert retry.annotation == RETRY_ANNOTATION
        assert retry.seconds == pytest.approx(0.4)
        # The batch's shared transfer-out waited on the faulted chain,
        # so the collateral query's critical path crosses the retry too
        # — cross-query interference is exactly what explain exposes.
        other = explain_query(record, "q000001")
        assert any(c.kind == "retry" for c in other.ranked)

    def test_mid_flight_kill_is_annotated(self):
        # dpu/0 runs 3 -> 13 s; batch 1's first bus activity fences it
        # mid-flight, truncating the span on the victim query's path.
        works = [fault_work(dpu_s=10.0, batch=b) for b in range(2)]
        record = make_trace_record(
            name="x",
            config={},
            schedule=execute_stream(
                works, overlap="double_buffer", kills={"dpu/0": 1}
            ),
        )
        exp = explain_query(record, "q000000")
        assert exp.killed
        killed = [c for c in exp.ranked if KILL_ANNOTATION in c.annotation]
        assert killed and killed[0].where == f"distance_calc@{dpu_resource(0)}"


class TestRender:
    def test_mentions_query_coverage_and_rows(self):
        record = traced_record(2)
        exp = explain_query(record, "q000000")
        text = render_explanation(exp)
        assert "query q000000" in text
        assert "critical path covers" in text
        assert f"(wait)@{PIM_BUS}" in text
        assert "%" in text

    def test_kill_marker_rendered(self):
        works = [fault_work(dpu_s=10.0, batch=b) for b in range(2)]
        record = make_trace_record(
            name="x",
            config={},
            schedule=execute_stream(
                works, overlap="double_buffer", kills={"dpu/0": 1}
            ),
        )
        text = render_explanation(explain_query(record, "q000000"))
        assert "mid-flight kill" in text
