"""Schema-versioned per-query trace records (``repro.trace/v1``).

A trace record is the exported form of a traced
:class:`~repro.sim.schedule.BatchSchedule`: one row per span carrying
:class:`~repro.sim.span.SpanTrace` metadata, plus one row per query
deriving its end-to-end window from the spans that served it.  The
record's spec (field rules, id and parent cross-references, query
windows) is its entry in :data:`repro.telemetry.schema.SPECS`: the maker
validates what it builds against it, ``python -m repro.telemetry.schema``
validates files with it and simsan re-derives the windows from it.

Span ids are ``b<batch>.<uid>`` — the work-item uid scoped by stream
position, which is unique both for per-batch schedules (uid spaces
restart per batch, batches differ) and for stream-merged schedules
(uids are globally unique, batches annotate).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

from repro.errors import ConfigError
from repro.sim.schedule import BatchSchedule
from repro.telemetry.schema import TRACE, TRACE_SCHEMA


def span_id(batch: int, uid: int) -> str:
    """Canonical span id: the work-item uid scoped by stream position."""
    return f"b{batch}.{uid}"


def _resolve_parent(
    batch: int, parent_uid: int, batches_by_uid: dict[int, list[int]]
) -> str | None:
    """Span id of a parent uid, preferring the same batch.

    Stream-merged DAGs gate a batch's roots on the previous batch's last
    bus item, so a parent uid may live in an earlier batch: the latest
    traced batch at or before ``batch`` holding that uid wins
    (``batches_by_uid`` lists each uid's batches in ascending order).
    Cancelled items (mid-flight kills) may have produced no span at
    all, in which case the reference is dropped rather than fabricated.
    """
    batches = batches_by_uid.get(parent_uid, ())
    i = bisect_right(batches, batch)
    return span_id(batches[i - 1], parent_uid) if i else None


def make_trace_record(
    *,
    name: str,
    config: dict[str, Any],
    schedule: BatchSchedule,
) -> dict[str, Any]:
    """Assemble and validate one trace record from a traced schedule."""
    traced = [
        span
        for tl in schedule.timelines.values()
        for span in tl.spans
        if span.trace is not None
    ]
    if not traced:
        raise ConfigError(
            "schedule carries no trace metadata; run the batches through "
            "an engine with tracing (any search_batch call) first"
        )

    traced.sort(key=lambda s: (s.trace.batch, s.trace.uid))
    batches_by_uid: dict[int, list[int]] = {}
    for span in traced:
        batches = batches_by_uid.setdefault(span.trace.uid, [])
        if not batches or batches[-1] != span.trace.batch:
            batches.append(span.trace.batch)

    span_rows: list[dict[str, Any]] = []
    queries: dict[str, dict[str, Any]] = {}
    for span in traced:
        tr = span.trace
        parents = []
        for p in tr.parents:
            ref = _resolve_parent(tr.batch, p, batches_by_uid)
            if ref is not None:
                parents.append(ref)
        row: dict[str, Any] = {
            "span": span_id(tr.batch, tr.uid),
            "uid": tr.uid,
            "batch": tr.batch,
            "resource": span.resource,
            "stage": span.stage,
            "t0": span.t0,
            "duration_s": span.duration,
            "wait_s": tr.wait_s,
            "parents": parents,
            "trace_ids": list(tr.trace_ids),
        }
        if span.cycles is not None:
            row["cycles"] = span.cycles
        if tr.killed:
            row["killed"] = True
        span_rows.append(row)
        for qid in tr.trace_ids:
            q = queries.get(qid)
            ready = span.t0 - tr.wait_s
            if q is None:
                queries[qid] = {
                    "trace_id": qid,
                    "batch": tr.batch,
                    "t0": ready,
                    "t1": span.t1,
                    "n_spans": 1,
                    "killed": tr.killed,
                }
            else:
                q["t0"] = min(q["t0"], ready)
                q["t1"] = max(q["t1"], span.t1)
                q["n_spans"] += 1
                q["killed"] = q["killed"] or tr.killed
    query_rows = []
    for qid in sorted(queries):
        q = queries[qid]
        q["latency_s"] = q["t1"] - q["t0"]
        if not q["killed"]:
            del q["killed"]
        query_rows.append(q)

    return TRACE.checked(
        {
            "schema": TRACE_SCHEMA,
            "name": name,
            "config": dict(config),
            "queries": query_rows,
            "spans": span_rows,
        }
    )


def query_latencies(schedule: BatchSchedule) -> dict[str, float]:
    """Per-query wall-clock latency straight from a traced schedule.

    The cheap sibling of :func:`make_trace_record` for metric hot paths:
    each query's window is min ready time (``t0 - wait_s``) to max span
    end over the spans carrying its id, reduced over the schedule's
    columns (:meth:`BatchSchedule.query_windows`).  Untraced schedules
    yield ``{}``.
    """
    ids, ready, end = schedule.query_windows()
    return dict(sorted(zip(ids, (end - ready).tolist())))


def query_spans(record: dict[str, Any], trace_id: str) -> list[dict[str, Any]]:
    """The span rows that did work for ``trace_id``, in (batch, uid) order.

    Raises :class:`ConfigError` when the record declares no such query —
    the caller almost certainly typo'd an id, and an empty dump would
    read as "this query did nothing".
    """
    declared = {
        q.get("trace_id")
        for q in record.get("queries", ())
        if isinstance(q, dict)
    }
    if trace_id not in declared:
        sample = ", ".join(sorted(x for x in declared if isinstance(x, str))[:5])
        raise ConfigError(
            f"trace id {trace_id!r} not in this record (knowns start: {sample})"
        )
    rows = [
        row
        for row in record.get("spans", ())
        if isinstance(row, dict) and trace_id in row.get("trace_ids", ())
    ]
    rows.sort(key=lambda r: (r.get("batch", 0), r.get("uid", 0)))
    return rows
