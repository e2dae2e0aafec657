"""Schema-versioned per-query trace records (``repro.trace/v1``).

A trace record is the exported form of a traced
:class:`~repro.sim.schedule.BatchSchedule`: one row per span carrying
:class:`~repro.sim.span.SpanTrace` metadata, plus one row per query
deriving its end-to-end window from the spans that served it.  Like
``repro.bench.result/v1``, the maker validates what it builds and the
validator is runnable from CI (``python -m repro.telemetry.schema``
dispatches on the embedded ``schema`` tag).

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

TRACE_SCHEMA = "repro.trace/v1"

#: Required keys of one span row in a trace record.
SPAN_FIELDS = ("span", "uid", "batch", "resource", "stage", "t0", "duration_s", "wait_s")
#: Required keys of one query row in a trace record.
QUERY_FIELDS = ("trace_id", "batch", "t0", "t1", "latency_s", "n_spans")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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

    record = {
        "schema": TRACE_SCHEMA,
        "name": name,
        "config": dict(config),
        "queries": query_rows,
        "spans": span_rows,
    }
    errors = validate_trace_record(record)
    if errors:
        raise ConfigError(
            "constructed an invalid trace record: " + "; ".join(errors)
        )
    return record


def validate_trace_record(record: Any) -> list[str]:
    """Structural errors in a ``repro.trace/v1`` record (empty = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return ["record must be a JSON object"]
    if record.get("schema") != TRACE_SCHEMA:
        errors.append(
            f"schema must be {TRACE_SCHEMA!r}, got {record.get('schema')!r}"
        )
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append("missing non-empty string 'name'")
    config = record.get("config")
    if not isinstance(config, dict) or not all(isinstance(k, str) for k in config):
        errors.append("'config' must be an object with string keys")

    spans = record.get("spans")
    declared_ids: set[str] = set()
    referenced_ids: set[str] = set()
    span_ids: set[str] = set()
    if not isinstance(spans, list) or not spans:
        errors.append("'spans' must be a non-empty list")
        spans = []
    for i, row in enumerate(spans):
        where = f"spans[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("span", "resource", "stage"):
            if not isinstance(row.get(key), str) or not row.get(key):
                errors.append(f"{where}: missing non-empty string '{key}'")
        for key in ("uid", "batch"):
            if not isinstance(row.get(key), int) or row.get(key, -1) < 0:
                errors.append(f"{where}.{key} must be a non-negative integer")
        for key in ("t0", "duration_s", "wait_s"):
            if not _is_number(row.get(key)) or row.get(key, -1) < 0:
                errors.append(f"{where}.{key} must be a non-negative number")
        parents = row.get("parents")
        if not isinstance(parents, list) or not all(
            isinstance(p, str) for p in parents
        ):
            errors.append(f"{where}.parents must be a list of span ids")
        trace_ids = row.get("trace_ids")
        if not isinstance(trace_ids, list) or not all(
            isinstance(t, str) for t in trace_ids
        ):
            errors.append(f"{where}.trace_ids must be a list of trace ids")
        else:
            referenced_ids.update(trace_ids)
        if isinstance(row.get("span"), str):
            if row["span"] in span_ids:
                errors.append(f"{where}: duplicate span id {row['span']!r}")
            span_ids.add(row["span"])

    queries = record.get("queries")
    if not isinstance(queries, list) or not queries:
        errors.append("'queries' must be a non-empty list")
        queries = []
    for i, row in enumerate(queries):
        where = f"queries[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        qid = row.get("trace_id")
        if not isinstance(qid, str) or not qid:
            errors.append(f"{where}: missing non-empty string 'trace_id'")
        else:
            if qid in declared_ids:
                errors.append(f"{where}: duplicate trace id {qid!r}")
            declared_ids.add(qid)
        if not isinstance(row.get("batch"), int) or row.get("batch", -1) < 0:
            errors.append(f"{where}.batch must be a non-negative integer")
        for key in ("t0", "t1", "latency_s"):
            if not _is_number(row.get(key)) or row.get(key, -1) < 0:
                errors.append(f"{where}.{key} must be a non-negative number")
        n = row.get("n_spans")
        if not isinstance(n, int) or n < 1:
            errors.append(f"{where}.n_spans must be a positive integer")

    # Cross-section consistency: every id a span references is declared,
    # and every declared query owns at least one span.
    for qid in sorted(referenced_ids - declared_ids):
        errors.append(f"span references undeclared trace id {qid!r}")
    for qid in sorted(declared_ids - referenced_ids):
        errors.append(f"query {qid!r} owns no spans")
    # Parent references must resolve within the record.
    for i, row in enumerate(spans):
        if not isinstance(row, dict) or not isinstance(row.get("parents"), list):
            continue
        for p in row["parents"]:
            if isinstance(p, str) and p not in span_ids:
                errors.append(f"spans[{i}]: unresolved parent {p!r}")
    return errors


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
