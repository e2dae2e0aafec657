"""simsan over JSON artifacts: kind detection, record conservation, the
golden-timings fixture and the ``repro.sanitize/v1`` report.

Tagged records are checked against their one spec in
:data:`repro.telemetry.schema.SPECS`, the same entry the schema CLI
validates with.  :func:`sanitize_payload` and the ``sanitize_*_record``
functions report the spec's ``SAN-LEDGER`` invariants (conservation:
the cross-field sums a structurally valid record can still get wrong)
and skip what a partial record lacks; :func:`structure_findings`
reports its field rules and structural invariants as ``SAN-SCHEMA``.
Two inputs carry no tag: Chrome traces (lane checks in
:mod:`repro.sanitize.checks`) and the golden-timings fixture, whose
hex-pinned ``total_s`` must equal the left-to-right sum of its parts
bit for bit (``float.fromhex`` is lossless).
"""

from __future__ import annotations

import math
from typing import Any

from repro.sanitize.checks import sanitize_chrome_trace
from repro.sanitize.findings import SAN_LEDGER, SAN_SCHEMA, SanFinding
from repro.telemetry.schema import (
    CHAOS,
    RESULT,
    SANITIZE,
    SANITIZE_SCHEMA,
    SERVE,
    SPECS,
    TRACE,
    RecordSpec,
    spec_for,
)

#: ``BatchTiming`` fields in ``total_s`` summation order.
_TIMING_PARTS = (
    "host_filter_s",
    "host_schedule_s",
    "transfer_in_s",
    "dpu_makespan_s",
    "transfer_out_s",
    "host_aggregate_s",
    "retry_s",
)


def detect_kind(payload: Any) -> str:
    """Classify a loaded JSON payload for :func:`sanitize_payload`."""
    if isinstance(payload, dict) and "traceEvents" in payload:
        return "trace"
    spec = spec_for(payload)
    if spec is not None:
        return spec.kind
    # Golden-timings fixture: engine name -> views; at least one entry
    # pins a "timing" block (some, e.g. multihost, pin a flat dict of
    # other hex parts and carry no total to conserve).
    if (
        isinstance(payload, dict)
        and payload
        and all(isinstance(v, dict) for v in payload.values())
        and any("timing" in v for v in payload.values())
    ):
        return "golden"
    return "unknown"


def sanitize_payload(payload: Any, *, strict_zero: bool = False) -> list[SanFinding]:
    """Dispatch a loaded JSON payload to the matching sanitizer."""
    kind = detect_kind(payload)
    if kind == "trace":
        return sanitize_chrome_trace(payload, strict_zero=strict_zero)
    if kind == "golden":
        return sanitize_golden_timings(payload)
    spec = spec_for(payload)
    if spec is not None:
        return _conservation(spec, payload)
    return [
        SanFinding(
            SAN_SCHEMA,
            "input",
            "unrecognized payload: expected a Chrome trace, a "
            "golden-timings fixture or a record tagged "
            + ", ".join(SPECS),
        )
    ]


def structure_findings(payload: Any) -> list[SanFinding]:
    """A tagged record's field-rule and structural-invariant violations
    as ``SAN-SCHEMA`` findings ([] for untagged inputs)."""
    spec = spec_for(payload)
    if spec is None:
        return []
    return [
        SanFinding(SAN_SCHEMA, where, message)
        for where, message in spec.violations(payload, SAN_SCHEMA)
    ]


def _conservation(spec: RecordSpec, record: Any) -> list[SanFinding]:
    if not isinstance(record, dict):
        return [SanFinding(SAN_SCHEMA, "record", "record must be a JSON object")]
    return [
        SanFinding(SAN_LEDGER, where, message)
        for where, message in spec.violations(record, SAN_LEDGER)
    ]


def sanitize_chaos_record(record: Any) -> list[SanFinding]:
    """Recovery totals, coverage floor and fault counters of a
    ``repro.chaos/v1`` record against its per-batch rows."""
    return _conservation(CHAOS, record)


def sanitize_serve_record(record: Any) -> list[SanFinding]:
    """Offered conservation of every ``repro.serve/v1`` ledger row,
    per-reason shed counts and tenant rows against the totals."""
    return _conservation(SERVE, record)


def sanitize_result_record(record: Any) -> list[SanFinding]:
    """Critical-path coverage and per-resource busy + idle windows of a
    ``repro.bench.result/v1`` record."""
    return _conservation(RESULT, record)


def sanitize_trace_record(record: Any) -> list[SanFinding]:
    """Every query window of a ``repro.trace/v1`` record re-derived
    from the spans that carry its id."""
    return _conservation(TRACE, record)


def sanitize_golden_timings(payload: Any) -> list[SanFinding]:
    """Bit-exact conservation over a golden-timings fixture.

    Every pinned ``total_s`` must equal the left-to-right sum of its
    parts in :class:`~repro.sim.schedule.BatchTiming` field order — the
    exact accumulation ``total_s`` performs — with no rounding slack:
    the fixture stores ``float.hex()`` strings precisely so this check
    can be exact.
    """
    findings: list[SanFinding] = []
    if not isinstance(payload, dict):
        return [SanFinding(SAN_SCHEMA, "fixture", "fixture must be a JSON object")]
    for name, entry in payload.items():
        if not isinstance(entry, dict):
            continue
        timing = entry.get("timing")
        if not isinstance(timing, dict):
            continue
        try:
            parts = {p: float.fromhex(timing[p]) for p in _TIMING_PARTS if p in timing}
            pinned = float.fromhex(timing["total_s"])
        except (KeyError, ValueError, TypeError) as exc:
            findings.append(
                SanFinding(
                    SAN_SCHEMA,
                    f"{name}.timing",
                    f"unreadable hex-float timing entry: {exc}",
                )
            )
            continue
        total = 0.0
        for part in parts.values():
            total += part
        if total != pinned:
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    f"{name}.timing.total_s",
                    f"pinned {pinned.hex()} but the parts sum to "
                    f"{total.hex()} (bit-exact check)",
                )
            )
        for part_name, value in parts.items():
            if math.isnan(value) or value < 0:
                findings.append(
                    SanFinding(
                        SAN_LEDGER,
                        f"{name}.timing.{part_name}",
                        f"pinned value {value!r} is not a non-negative "
                        "number of seconds",
                    )
                )
    return findings


def make_sanitize_record(
    *,
    name: str,
    inputs: list[dict[str, Any]],
    findings: list[SanFinding],
) -> dict[str, Any]:
    """Assemble and validate one ``repro.sanitize/v1`` record."""
    return SANITIZE.checked(
        {
            "schema": SANITIZE_SCHEMA,
            "name": name,
            "inputs": [dict(i) for i in inputs],
            "count": len(findings),
            "findings": [f.to_dict() for f in findings],
        }
    )
