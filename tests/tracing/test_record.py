"""``repro.trace/v1`` records: maker, validator, and per-query views."""

from __future__ import annotations

import copy

import pytest

from repro.errors import ConfigError
from repro.hardware.counters import StageCycles
from repro.sim import (
    HOST_CPU,
    PIM_BUS,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchWork,
    execute_stream,
)
from repro.tracing import (
    TRACE_SCHEMA,
    TraceContext,
    make_trace_record,
    query_latencies,
    query_spans,
    span_id,
    validate_trace_record,
)

FREQ = 350e6


def traced_work(*, n_queries: int = 4, start: int = 0, batch: int = 0) -> BatchWork:
    """A synthetic traced batch shaped like the engines emit.

    Batch-wide stages (filter, bus transfers, aggregate) carry every
    query's id; each DPU chain carries only the queries it scans for.
    """
    ctx = TraceContext.for_batch(n_queries, batch=batch, start=start)
    work = BatchWork(dpu_frequency_hz=FREQ, batch=batch)
    host = work.work(
        HOST_CPU, STAGE_CLUSTER_FILTER, 1.0, trace_ids=ctx.all_ids()
    )
    tin = work.work(
        PIM_BUS, STAGE_TRANSFER_IN, 2.0, after=(host,), trace_ids=ctx.all_ids()
    )
    half = n_queries // 2
    d0 = work.work_dpu_stages(
        0,
        StageCycles(distance_calc=3.5e8),  # 1 s at 350 MHz
        after=(tin,),
        trace_ids=ctx.ids_for(range(half)),
    )
    d1 = work.work_dpu_stages(
        1,
        StageCycles(distance_calc=1.75e8),  # 0.5 s
        after=(tin,),
        trace_ids=ctx.ids_for(range(half, n_queries)),
    )
    tout = work.work(
        PIM_BUS, STAGE_TRANSFER_OUT, 0.5, after=(d0, d1), trace_ids=ctx.all_ids()
    )
    work.work(
        HOST_CPU, STAGE_AGGREGATE, 0.25, after=(tout,), trace_ids=ctx.all_ids()
    )
    return work


def traced_stream(n_batches: int = 2, *, per_batch: int = 4, **kwargs):
    works = [
        traced_work(n_queries=per_batch, start=b * per_batch, batch=b)
        for b in range(n_batches)
    ]
    return execute_stream(works, overlap="double_buffer", **kwargs)


def traced_record(n_batches: int = 2, **kwargs):
    return make_trace_record(
        name="test_stream",
        config={"batches": n_batches},
        schedule=traced_stream(n_batches, **kwargs),
    )


class TestMakeRecord:
    def test_record_validates_and_covers_every_query(self):
        record = traced_record(2)
        assert record["schema"] == TRACE_SCHEMA
        assert validate_trace_record(record) == []
        qids = [q["trace_id"] for q in record["queries"]]
        assert qids == sorted(qids)
        assert qids == [f"q{n:06d}" for n in range(8)]

    def test_span_ids_scope_uid_by_batch(self):
        assert span_id(2, 7) == "b2.7"
        record = traced_record(2)
        ids = [row["span"] for row in record["spans"]]
        assert len(ids) == len(set(ids))
        # Stream-merged uids are globally unique; batches annotate.
        assert all(r["span"] == span_id(r["batch"], r["uid"]) for r in record["spans"])

    def test_query_window_spans_ready_to_last_span_end(self):
        record = traced_record(1)
        q = {row["trace_id"]: row for row in record["queries"]}["q000000"]
        mine = query_spans(record, "q000000")
        ready = min(r["t0"] - r["wait_s"] for r in mine)
        end = max(r["t0"] + r["duration_s"] for r in mine)
        assert q["t0"] == pytest.approx(ready)
        assert q["t1"] == pytest.approx(end)
        assert q["latency_s"] == pytest.approx(end - ready)
        assert q["n_spans"] == len(mine)

    def test_parents_resolve_across_batches(self):
        # double_buffer gates batch 1's roots on batch 0's last inbound
        # bus item, so a batch-1 root's parent lives in batch 0.
        record = traced_record(2)
        roots = [
            r
            for r in record["spans"]
            if r["batch"] == 1
            and r["resource"] == HOST_CPU
            and r["stage"] == STAGE_CLUSTER_FILTER
        ]
        assert roots and all(
            p.startswith("b0.") for r in roots for p in r["parents"]
        )

    def test_untraced_schedule_rejected(self):
        # Schedules recorded directly without tracing carry no SpanTrace
        # at all; event-core runs of id-less work carry causal metadata
        # but declare no queries.  Both refuse to export.
        from repro.sim import BatchSchedule

        bare = BatchSchedule()
        bare.record(HOST_CPU, STAGE_CLUSTER_FILTER, 1.0)
        with pytest.raises(ConfigError, match="no trace metadata"):
            make_trace_record(name="x", config={}, schedule=bare)

        work = BatchWork(dpu_frequency_hz=FREQ)
        work.work(HOST_CPU, STAGE_CLUSTER_FILTER, 1.0)
        with pytest.raises(ConfigError, match="invalid trace record"):
            make_trace_record(
                name="x", config={}, schedule=execute_stream([work])
            )


class TestValidator:
    def test_duplicate_span_id_rejected(self):
        record = traced_record(1)
        record["spans"].append(copy.deepcopy(record["spans"][0]))
        assert any("duplicate span id" in e for e in validate_trace_record(record))

    def test_unresolved_parent_rejected(self):
        record = traced_record(1)
        record["spans"][-1]["parents"] = ["b9.99"]
        assert any("unresolved parent" in e for e in validate_trace_record(record))

    def test_undeclared_trace_id_rejected(self):
        record = traced_record(1)
        record["spans"][0]["trace_ids"].append("q999999")
        assert any(
            "undeclared trace id" in e for e in validate_trace_record(record)
        )

    def test_span_less_query_rejected(self):
        record = traced_record(1)
        record["queries"].append(
            {
                "trace_id": "q999999",
                "batch": 0,
                "t0": 0.0,
                "t1": 1.0,
                "latency_s": 1.0,
                "n_spans": 1,
            }
        )
        assert any("owns no spans" in e for e in validate_trace_record(record))

    def test_wrong_schema_and_non_object(self):
        record = traced_record(1)
        record["schema"] = "repro.trace/v0"
        assert validate_trace_record(record)
        assert validate_trace_record([]) == ["record must be a JSON object"]


class TestQueryViews:
    def test_query_spans_sorted_and_scoped(self):
        record = traced_record(2)
        rows = query_spans(record, "q000004")
        assert rows == sorted(rows, key=lambda r: (r["batch"], r["uid"]))
        assert all("q000004" in r["trace_ids"] for r in rows)
        # Batch 1's query never appears in batch 0's spans.
        assert all(r["batch"] == 1 for r in rows)

    def test_unknown_query_raises_with_known_ids(self):
        with pytest.raises(ConfigError, match="q000000"):
            query_spans(traced_record(1), "q424242")

    def test_query_latencies_match_record_windows(self):
        schedule = traced_stream(2)
        latencies = query_latencies(schedule)
        record = make_trace_record(name="x", config={}, schedule=schedule)
        assert latencies == {
            q["trace_id"]: pytest.approx(q["latency_s"])
            for q in record["queries"]
        }

    def test_untraced_schedule_has_no_latencies(self):
        work = BatchWork(dpu_frequency_hz=FREQ)
        work.work(HOST_CPU, STAGE_CLUSTER_FILTER, 1.0)
        assert query_latencies(execute_stream([work])) == {}
