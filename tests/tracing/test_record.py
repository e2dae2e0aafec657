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


def traced_work(
    *, n_queries: int = 4, start: int = 0, batch: int = 0, dpu0_s: float = 1.0
) -> BatchWork:
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
    stage0 = StageCycles(distance_calc=dpu0_s * FREQ)
    (d0,) = work.work_dpu_stages(
        [0],
        [list(stage0.as_dict().values())],
        [stage0],
        after=(tin,),
        trace_ids=ctx.ids_for(range(half)),
    )
    stage1 = StageCycles(distance_calc=1.75e8)  # 0.5 s
    (d1,) = work.work_dpu_stages(
        [1],
        [list(stage1.as_dict().values())],
        [stage1],
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


def scan_resolve_parent(batch, parent_uid, keys):
    """The quadratic parent lookup the record maker replaced: scan every
    traced (batch, uid) key, prefer the same batch, else the latest
    earlier batch, else drop the reference."""
    if (batch, parent_uid) in keys:
        return span_id(batch, parent_uid)
    earlier = [b for (b, u) in keys if u == parent_uid and b < batch]
    if earlier:
        return span_id(max(earlier), parent_uid)
    return None


def scan_parents(schedule):
    """Span id -> resolved parent ids, by the scan above."""
    traced = [
        span
        for tl in schedule.timelines.values()
        for span in tl.spans
        if span.trace is not None
    ]
    keys = {(s.trace.batch, s.trace.uid) for s in traced}
    out = {}
    for s in traced:
        refs = (scan_resolve_parent(s.trace.batch, p, keys) for p in s.trace.parents)
        out[span_id(s.trace.batch, s.trace.uid)] = [r for r in refs if r is not None]
    return out


class TestParentResolution:
    """The per-uid batch index resolves every parent exactly as the
    scan over all traced span keys did."""

    @pytest.mark.parametrize("overlap", ["sequential", "double_buffer"])
    def test_stream_with_killed_dpu_matches_scan(self, overlap):
        # Batch 1's long dpu/0 chain is still running when batch 2
        # drives the bus under double buffering, so the kill truncates
        # it there; later batches' dpu/0 items are cancelled.
        works = [
            traced_work(
                n_queries=4, start=4 * b, batch=b, dpu0_s=10.0 if b == 1 else 1.0
            )
            for b in range(5)
        ]
        schedule = execute_stream(works, overlap=overlap, kills={"dpu/0": 2})
        record = make_trace_record(name="x", config={}, schedule=schedule)
        want = scan_parents(schedule)
        assert [r["span"] for r in record["spans"]] == sorted(
            want, key=lambda sid: tuple(map(int, sid[1:].split(".")))
        )
        assert {r["span"]: r["parents"] for r in record["spans"]} == want
        # Not vacuous: roots are gated on an earlier batch, and the
        # killed DPU's cancelled items leave references to drop.
        assert any(
            not p.startswith(f"b{r['batch']}.")
            for r in record["spans"]
            for p in r["parents"]
        )
        spans = [s for tl in schedule.timelines.values() for s in tl.spans]
        n_refs = sum(len(s.trace.parents) for s in spans if s.trace is not None)
        assert sum(len(r["parents"]) for r in record["spans"]) < n_refs
        if overlap == "double_buffer":
            assert any(r.get("killed") for r in record["spans"])

    def test_colliding_uids_prefer_same_then_latest_earlier_batch(self):
        # Uid spaces that restart per batch: the same uid lives in
        # several batches, so only the batch order can pick the parent.
        from types import SimpleNamespace

        from repro.sim.span import Span, SpanTrace

        rows = [
            (0, 0, ()),
            (0, 1, (0,)),
            (1, 0, ()),
            (1, 1, (0, 5)),  # uid 5 lives only in a later batch: dropped
            (2, 5, (1,)),
            (2, 2, (1, 9)),  # uid 9 has no span at all: dropped
            (3, 3, (1, 5, 0)),
        ]
        spans = [
            Span(
                HOST_CPU,
                STAGE_CLUSTER_FILTER,
                float(i),
                1.0,
                trace=SpanTrace(
                    uid=uid, parents=parents, trace_ids=("q000000",), batch=b
                ),
            )
            for i, (b, uid, parents) in enumerate(rows)
        ]
        schedule = SimpleNamespace(
            timelines={HOST_CPU: SimpleNamespace(spans=spans)}
        )
        record = make_trace_record(name="x", config={}, schedule=schedule)
        got = {r["span"]: r["parents"] for r in record["spans"]}
        assert got == {
            "b0.0": [],
            "b0.1": ["b0.0"],
            "b1.0": [],
            "b1.1": ["b1.0"],
            "b2.2": ["b1.1"],
            "b2.5": ["b1.1"],
            "b3.3": ["b1.1", "b2.5", "b1.0"],
        }
        assert got == scan_parents(schedule)
