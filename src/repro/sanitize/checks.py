"""The dynamic schedule sanitizer: lane checks + ledger conservation.

The core abstraction is a *lane map*: ``resource -> [(t0, duration,
stage), ...]``.  Both input shapes reduce to it — a live
:class:`~repro.sim.schedule.BatchSchedule` trivially, an exported
Chrome trace via its thread-name metadata — so every invariant is
checked by one implementation (:func:`check_lanes`), which
``repro.sim.trace`` also delegates to instead of keeping its own copy.

The happens-before checks are deliberately conservative: they hold for
single-batch engine output *and* for ``sequential`` / ``double_buffer``
compositions, where batches interleave on shared lanes and per-span
batch identity is gone.  What survives composition:

* no DPU span may start before the first ``transfer_in`` span on the
  ``pim_bus`` lane has ended (nothing executes before any input landed);
* no ``aggregate`` span may start before the first ``transfer_out``
  span ended, nor before the first DPU span closed;
* every ``retry`` span must directly follow a ``transfer_in`` or
  ``retry`` span on its lane (recovery is contiguous with the transfer
  it repairs — kernels launch after recovery, not around it).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.sanitize.findings import (
    SAN_LEDGER,
    SAN_NUMERIC,
    SAN_ORDER,
    SAN_OVERLAP,
    SAN_SCHEMA,
    SAN_TRACE,
    SanFinding,
)
from repro.sim.schedule import (
    STAGE_AGGREGATE,
    STAGE_RETRY,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
)
from repro.sim.span import PIM_BUS, is_dpu_resource
from repro.telemetry.schema import _is_number

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.schedule import BatchSchedule, BatchTiming

#: One span in lane form: (t0, duration, stage).
LaneSpan = tuple[float, float, str]
LaneMap = dict[str, list[LaneSpan]]

#: Relative slack for trace-side comparisons: scaling seconds to
#: microseconds rounds ts and dur independently (same as the historical
#: ``repro.sim.trace`` tolerance).
TRACE_RTOL = 1e-9


def _bad_number(value: float) -> str | None:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "infinite"
    if value < 0:
        return "negative"
    return None


def _slack(rtol: float, reference: float) -> float:
    return rtol * max(1.0, abs(reference))


def check_lanes(
    lanes: LaneMap,
    *,
    rtol: float = 0.0,
    causality: bool = True,
    strict_zero: bool = False,
) -> list[SanFinding]:
    """All lane-level invariants over a resource -> spans map."""
    findings: list[SanFinding] = []
    findings.extend(_check_numeric(lanes, strict_zero=strict_zero))
    findings.extend(_check_overlap(lanes, rtol=rtol))
    if causality:
        findings.extend(_check_causality(lanes, rtol=rtol))
        findings.extend(_check_retry_contiguity(lanes))
    return findings


def _check_numeric(lanes: LaneMap, *, strict_zero: bool) -> list[SanFinding]:
    findings = []
    for resource, spans in lanes.items():
        for t0, duration, stage in spans:
            for label, value in (("start", t0), ("duration", duration)):
                problem = _bad_number(value)
                if problem is not None:
                    findings.append(
                        SanFinding(
                            SAN_NUMERIC,
                            resource,
                            f"{problem} {label} {value!r} on {stage!r} span",
                        )
                    )
            if strict_zero and duration == 0.0:
                findings.append(
                    SanFinding(
                        SAN_NUMERIC,
                        resource,
                        f"zero-duration {stage!r} span at t={t0} (strict mode)",
                    )
                )
    return findings


def _check_overlap(lanes: LaneMap, *, rtol: float) -> list[SanFinding]:
    findings = []
    for resource, spans in lanes.items():
        ordered = sorted(spans, key=lambda s: s[0])
        prev_end = 0.0
        prev_stage = ""
        for t0, duration, stage in ordered:
            if math.isnan(t0) or math.isnan(duration):
                continue  # already a SAN-NUMERIC finding
            if t0 + _slack(rtol, prev_end) < prev_end:
                findings.append(
                    SanFinding(
                        SAN_OVERLAP,
                        resource,
                        f"{stage!r} at t={t0} overlaps {prev_stage!r} "
                        f"ending at {prev_end}",
                    )
                )
            if t0 + duration > prev_end:
                prev_end, prev_stage = t0 + duration, stage
    return findings


def _first_span(
    lanes: LaneMap, stage: str, *, resources: tuple[str, ...] | None = None
) -> LaneSpan | None:
    """Earliest-starting span with ``stage`` (optionally on given lanes)."""
    best: LaneSpan | None = None
    for resource, spans in lanes.items():
        if resources is not None and resource not in resources:
            continue
        for span in spans:
            if span[2] == stage and not math.isnan(span[0]):
                if best is None or span[0] < best[0]:
                    best = span
    return best


def _check_causality(lanes: LaneMap, *, rtol: float) -> list[SanFinding]:
    findings = []
    first_tin = _first_span(lanes, STAGE_TRANSFER_IN, resources=(PIM_BUS,))
    if first_tin is not None:
        tin_end = first_tin[0] + first_tin[1]
        for resource, spans in lanes.items():
            if not is_dpu_resource(resource):
                continue
            for t0, _duration, stage in spans:
                if t0 + _slack(rtol, tin_end) < tin_end:
                    findings.append(
                        SanFinding(
                            SAN_ORDER,
                            resource,
                            f"DPU {stage!r} span starts at t={t0} before the "
                            f"first transfer_in on {PIM_BUS} ends at {tin_end}",
                        )
                    )

    first_tout = _first_span(lanes, STAGE_TRANSFER_OUT)
    first_dpu_end: float | None = None
    for resource, spans in lanes.items():
        if not is_dpu_resource(resource):
            continue
        for t0, duration, _stage in spans:
            if math.isnan(t0) or math.isnan(duration):
                continue
            if first_dpu_end is None or t0 + duration < first_dpu_end:
                first_dpu_end = t0 + duration
    for resource, spans in lanes.items():
        for t0, _duration, stage in spans:
            if stage != STAGE_AGGREGATE:
                continue
            if first_tout is not None:
                tout_end = first_tout[0] + first_tout[1]
                if t0 + _slack(rtol, tout_end) < tout_end:
                    findings.append(
                        SanFinding(
                            SAN_ORDER,
                            resource,
                            f"aggregate span starts at t={t0} before the first "
                            f"transfer_out ends at {tout_end}",
                        )
                    )
            if (
                first_dpu_end is not None
                and t0 + _slack(rtol, first_dpu_end) < first_dpu_end
            ):
                findings.append(
                    SanFinding(
                        SAN_ORDER,
                        resource,
                        f"aggregate span starts at t={t0} before the first DPU "
                        f"span closes at {first_dpu_end}",
                    )
                )
    return findings


def _check_retry_contiguity(lanes: LaneMap) -> list[SanFinding]:
    findings = []
    for resource, spans in lanes.items():
        ordered = sorted(spans, key=lambda s: s[0])
        for i, (t0, _duration, stage) in enumerate(ordered):
            if stage != STAGE_RETRY:
                continue
            prev_stage = ordered[i - 1][2] if i > 0 else None
            if prev_stage not in (STAGE_TRANSFER_IN, STAGE_RETRY):
                before = repr(prev_stage) if prev_stage else "nothing"
                findings.append(
                    SanFinding(
                        SAN_ORDER,
                        resource,
                        f"retry span at t={t0} follows {before} — recovery "
                        "must be contiguous with its failed transfer_in",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# BatchSchedule-level sanitization (lanes + derived-ledger conservation)
# ---------------------------------------------------------------------------


def schedule_lanes(schedule: "BatchSchedule") -> LaneMap:
    """A schedule's timelines in lane form (no copies of Span objects)."""
    return {
        resource: [(s.t0, s.duration, s.stage) for s in tl.spans]
        for resource, tl in schedule.timelines.items()
    }


def sanitize_schedule(
    schedule: "BatchSchedule",
    *,
    timing: "BatchTiming | None" = None,
    stage_seconds: Any = None,
    degraded: Any = None,
    strict_zero: bool = False,
) -> list[SanFinding]:
    """Every simsan invariant over one schedule.

    ``timing``, ``stage_seconds`` and ``degraded`` are the views an
    engine *derived and reported* for this schedule; when supplied they
    are re-derived from the spans and compared bit-for-bit, so a ledger
    that drifted from its events is a finding, not a rounding question.
    """
    findings = check_lanes(schedule_lanes(schedule), strict_zero=strict_zero)
    for resource, tl in schedule.timelines.items():
        for span in tl.spans:
            if span.resource != resource:
                findings.append(
                    SanFinding(
                        SAN_SCHEMA,
                        resource,
                        f"span claims resource {span.resource!r} but is filed "
                        f"under the {resource!r} lane",
                    )
                )
    findings.extend(_check_cycle_conservation(schedule))
    findings.extend(check_trace_partition(schedule))
    findings.extend(
        _check_derived_ledgers(
            schedule, timing=timing, stage_seconds=stage_seconds, degraded=degraded
        )
    )
    return findings


def check_trace_partition(schedule: "BatchSchedule") -> list[SanFinding]:
    """Trace ids must partition a traced schedule's span set.

    An untraced schedule (no span carries metadata) is legal — hand-built
    schedules and composition fixtures never ran through an engine.  But
    once *any* span is traced, all of them must be: a half-traced
    schedule means some emission path dropped the context, and every
    downstream attribution (trace records, explainers, exemplars) would
    silently under-count.  Additionally each ``(batch, uid)`` span
    identity must be unique, each trace id must stay within one batch
    (queries never span stream positions), and queue waits are
    non-negative by construction.
    """
    traced = 0
    untraced: list[tuple[str, str]] = []
    findings: list[SanFinding] = []
    seen_keys: dict[tuple[int, int], str] = {}
    batches_by_qid: dict[str, set[int]] = {}
    for resource, tl in schedule.timelines.items():
        for span in tl.spans:
            tr = span.trace
            if tr is None:
                untraced.append((resource, span.stage))
                continue
            traced += 1
            key = (tr.batch, tr.uid)
            if key in seen_keys:
                findings.append(
                    SanFinding(
                        SAN_TRACE,
                        resource,
                        f"span identity b{tr.batch}.{tr.uid} on {span.stage!r} "
                        f"duplicates one on {seen_keys[key]!r}",
                    )
                )
            else:
                seen_keys[key] = resource
            if math.isnan(tr.wait_s) or tr.wait_s < 0:
                findings.append(
                    SanFinding(
                        SAN_TRACE,
                        resource,
                        f"{span.stage!r} span reports queue wait "
                        f"{tr.wait_s!r} (must be finite and >= 0)",
                    )
                )
            for qid in tr.trace_ids:
                batches_by_qid.setdefault(qid, set()).add(tr.batch)
    if traced and untraced:
        resource, stage = untraced[0]
        findings.append(
            SanFinding(
                SAN_TRACE,
                resource,
                f"{len(untraced)} span(s) carry no trace metadata while "
                f"{traced} do (first: {stage!r}) — trace ids must "
                "partition the span set",
            )
        )
    for qid in sorted(batches_by_qid):
        batches = batches_by_qid[qid]
        if len(batches) > 1:
            findings.append(
                SanFinding(
                    SAN_TRACE,
                    qid,
                    f"trace id appears in {len(batches)} batches "
                    f"{sorted(batches)} — a query lives in exactly one",
                )
            )
    return findings


def _check_cycle_conservation(schedule: "BatchSchedule") -> list[SanFinding]:
    """DPU spans carry cycles; duration must equal ``cycles / f`` exactly
    (that is the only way ``record_dpu_stages`` ever computes it)."""
    freq = schedule.dpu_frequency_hz
    if freq is None or freq <= 0:
        return []
    findings = []
    for tl in schedule.dpu_timelines():
        for span in tl.spans:
            if span.cycles is None or math.isnan(span.duration):
                continue
            expected = span.cycles / freq
            if span.duration != expected:
                findings.append(
                    SanFinding(
                        SAN_LEDGER,
                        tl.resource,
                        f"{span.stage!r} span lasts {span.duration}s but its "
                        f"{span.cycles} cycles at {freq:g} Hz model "
                        f"{expected}s",
                    )
                )
    return findings


def _check_derived_ledgers(
    schedule: "BatchSchedule",
    *,
    timing: "BatchTiming | None",
    stage_seconds: Any,
    degraded: Any,
) -> list[SanFinding]:
    findings: list[SanFinding] = []
    if timing is None:
        return findings
    derived = schedule.derive_batch_timing()
    for name in (
        "host_filter_s",
        "host_schedule_s",
        "transfer_in_s",
        "dpu_makespan_s",
        "transfer_out_s",
        "host_aggregate_s",
        "retry_s",
    ):
        reported = getattr(timing, name)
        expected = getattr(derived, name)
        if reported != expected:
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    f"timing.{name}",
                    f"reported {reported!r} but the spans derive {expected!r}",
                )
            )
    if timing.total_s != derived.total_s:
        findings.append(
            SanFinding(
                SAN_LEDGER,
                "timing.total_s",
                f"reported {timing.total_s!r} but the spans derive "
                f"{derived.total_s!r}",
            )
        )
    if stage_seconds is not None:
        from repro.metrics.breakdown import stage_seconds_from_schedule

        expected_stages = stage_seconds_from_schedule(schedule, derived)
        for name, expected in expected_stages.as_dict().items():
            reported = getattr(stage_seconds, name)
            if reported != expected:
                findings.append(
                    SanFinding(
                        SAN_LEDGER,
                        f"stage_seconds.{name}",
                        f"reported {reported!r} but the spans derive "
                        f"{expected!r}",
                    )
                )
    if degraded is not None:
        if degraded.retry_s != derived.retry_s:
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    "degraded.retry_s",
                    f"fault ledger charges {degraded.retry_s!r} but the retry "
                    f"spans sum to {derived.retry_s!r}",
                )
            )
        # Engines emit one retry span per failed attempt (incl. attempts
        # by units that escalated to death), so on a schedule with DPU
        # lanes the span count must equal the attempt ledger.  Host-level
        # coordinators charge retries on their member engines instead.
        if schedule.dpu_timelines():
            n_retry_spans = sum(
                1
                for tl in schedule.timelines.values()
                for span in tl.spans
                if span.stage == STAGE_RETRY
            )
            if degraded.retries != n_retry_spans:
                findings.append(
                    SanFinding(
                        SAN_LEDGER,
                        "degraded.retries",
                        f"fault ledger counts {degraded.retries} attempts but "
                        f"{n_retry_spans} retry span(s) were recorded",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Chrome-trace sanitization (structure + the same lane checks)
# ---------------------------------------------------------------------------


def collect_trace_lanes(payload: Any) -> tuple[LaneMap, list[SanFinding]]:
    """Parse a Trace Event Format object into a lane map.

    Structural problems come back as ``SAN-SCHEMA`` findings.  Lanes are
    keyed by the thread-name metadata (the simulator names one thread
    per resource) so resource-aware checks work on exported traces; an
    unnamed lane falls back to its ``pid=N tid=M`` key.
    """
    findings: list[SanFinding] = []
    if not isinstance(payload, dict):
        return {}, [
            SanFinding(SAN_SCHEMA, "trace", "top level must be a JSON object")
        ]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return {}, [
            SanFinding(SAN_SCHEMA, "trace", "missing or non-list 'traceEvents'")
        ]

    names: dict[tuple[Any, Any], str] = {}
    raw_lanes: dict[tuple[Any, Any], list[LaneSpan]] = {}
    for i, event in enumerate(events):
        where = f"event {i}"
        if not isinstance(event, dict):
            findings.append(SanFinding(SAN_SCHEMA, where, "not an object"))
            continue
        ph = event.get("ph")
        if ph in ("s", "t", "f"):
            # Flow events bind spans into per-query chains; they carry
            # no lane duration, so validate the binding id and move on.
            if not isinstance(event.get("id"), str) or not event.get("id"):
                findings.append(
                    SanFinding(
                        SAN_SCHEMA, where, "flow event needs a string 'id'"
                    )
                )
            elif not _is_number(event.get("ts")) or event.get("ts") < 0:
                findings.append(
                    SanFinding(
                        SAN_SCHEMA, where, "'ts' must be a non-negative number"
                    )
                )
            continue
        if ph not in ("X", "M"):
            findings.append(
                SanFinding(SAN_SCHEMA, where, f"unsupported phase {ph!r}")
            )
            continue
        if not isinstance(event.get("name"), str):
            findings.append(
                SanFinding(SAN_SCHEMA, where, "missing string 'name'")
            )
        key = (event.get("pid"), event.get("tid"))
        if ph == "M":
            args = event.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                findings.append(
                    SanFinding(
                        SAN_SCHEMA, where, "metadata event needs args.name"
                    )
                )
            elif event.get("name") == "thread_name":
                names[key] = args["name"]
            continue
        ts, dur = event.get("ts"), event.get("dur")
        if not _is_number(ts) or ts < 0:
            findings.append(
                SanFinding(
                    SAN_SCHEMA, where, "'ts' must be a non-negative number"
                )
            )
            continue
        if not _is_number(dur) or dur < 0:
            findings.append(
                SanFinding(
                    SAN_SCHEMA, where, "'dur' must be a non-negative number"
                )
            )
            continue
        raw_lanes.setdefault(key, []).append(
            (float(ts), float(dur), str(event.get("name")))
        )

    lanes: LaneMap = {}
    for key, spans in raw_lanes.items():
        label = names.get(key, f"lane pid={key[0]} tid={key[1]}")
        lanes.setdefault(label, []).extend(spans)
    return lanes, findings


def sanitize_chrome_trace(
    payload: Any, *, strict_zero: bool = False
) -> list[SanFinding]:
    """Structure + every lane invariant over an exported Chrome trace."""
    lanes, findings = collect_trace_lanes(payload)
    findings.extend(
        check_lanes(
            lanes, rtol=TRACE_RTOL, causality=True, strict_zero=strict_zero
        )
    )
    return findings
