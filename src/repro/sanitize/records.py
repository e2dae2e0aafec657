"""Record-level conservation checks + the ``repro.sanitize/v1`` report.

The telemetry schema validators (``repro.telemetry.schema``) check
*structure*; this module checks *conservation* — the cross-field sums a
structurally valid record can still get wrong:

* chaos records: recovery totals vs per-batch rows, coverage floor vs
  the worst row, fault counters vs row sums;
* result records: critical-path attribution covering the makespan,
  per-resource busy+idle filling each lane's window;
* trace records: each query's latency equal to its window, its window
  bounded by the spans that served it, span counts conserved;
* golden-timing fixtures: the hex-pinned ``total_s`` equal to the
  left-to-right sum of its parts, bit-for-bit.

Float comparisons on JSON round-trips use a tiny relative tolerance
(:data:`RECORD_RTOL`); the golden hex fixtures are compared exactly
because ``float.fromhex`` is lossless.
"""

from __future__ import annotations

import math
from typing import Any

from repro.sanitize.checks import sanitize_chrome_trace
from repro.sanitize.findings import SAN_LEDGER, SAN_SCHEMA, SanFinding

RECORD_RTOL = 1e-9

SANITIZE_SCHEMA = "repro.sanitize/v1"

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


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RECORD_RTOL, abs_tol=1e-15)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def detect_kind(payload: Any) -> str:
    """Classify a loaded JSON payload for :func:`sanitize_payload`."""
    if isinstance(payload, dict):
        if "traceEvents" in payload:
            return "trace"
        schema = payload.get("schema")
        if isinstance(schema, str):
            if schema.startswith("repro.chaos/"):
                return "chaos"
            if schema.startswith("repro.bench.result/"):
                return "result"
            if schema.startswith("repro.trace/"):
                return "tracerec"
            if schema.startswith("repro.serve/"):
                return "serve"
            if schema == SANITIZE_SCHEMA:
                return "sanitize"
        # Golden-timings fixture: engine name -> views; at least one
        # entry pins a "timing" block (some, e.g. multihost, pin a flat
        # dict of other hex parts and carry no total to conserve).
        if (
            payload
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
    if kind == "chaos":
        return sanitize_chaos_record(payload)
    if kind == "result":
        return sanitize_result_record(payload)
    if kind == "tracerec":
        return sanitize_trace_record(payload)
    if kind == "serve":
        return sanitize_serve_record(payload)
    if kind == "golden":
        return sanitize_golden_timings(payload)
    if kind == "sanitize":
        # Structure-only records: the telemetry schema validator owns
        # them and there is no span/conservation surface to check.
        return []
    return [
        SanFinding(
            SAN_SCHEMA,
            "input",
            "unrecognized payload: expected a Chrome trace, a "
            "repro.chaos/result record, or a golden-timings fixture",
        )
    ]


def sanitize_chaos_record(record: Any) -> list[SanFinding]:
    """Cross-field conservation over a ``repro.chaos/v1`` record.

    Assumes the record is structurally valid (run
    ``repro.telemetry.schema`` first); missing pieces are skipped, not
    re-reported.
    """
    findings: list[SanFinding] = []
    if not isinstance(record, dict):
        return [SanFinding(SAN_SCHEMA, "record", "record must be a JSON object")]
    rows = record.get("batches")
    recovery = record.get("recovery")
    degradation = record.get("degradation")
    config = record.get("config")
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        return findings

    if isinstance(config, dict) and isinstance(config.get("batches"), int):
        if config["batches"] != len(rows):
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    "batches",
                    f"config promises {config['batches']} batches but the "
                    f"record carries {len(rows)} rows",
                )
            )
    if isinstance(recovery, dict) and _is_number(recovery.get("retry_seconds")):
        total = sum(float(r.get("retry_seconds", 0.0)) for r in rows)
        if not _isclose(float(recovery["retry_seconds"]), total):
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    "recovery.retry_seconds",
                    f"reports {recovery['retry_seconds']} but the batch rows "
                    f"sum to {total}",
                )
            )
    if isinstance(recovery, dict) and _is_number(recovery.get("recovery_seconds")):
        total = sum(float(r.get("recovery_seconds", 0.0)) for r in rows)
        if not _isclose(float(recovery["recovery_seconds"]), total):
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    "recovery.recovery_seconds",
                    f"reports {recovery['recovery_seconds']} but the batch "
                    f"rows sum to {total}",
                )
            )
    if isinstance(degradation, dict) and _is_number(
        degradation.get("coverage_floor")
    ):
        floors = [
            float(r["coverage_floor"])
            for r in rows
            if _is_number(r.get("coverage_floor"))
        ]
        worst = min(floors, default=1.0)
        if not _isclose(float(degradation["coverage_floor"]), worst):
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    "degradation.coverage_floor",
                    f"reports {degradation['coverage_floor']} but the worst "
                    f"batch row is {worst}",
                )
            )
    faults = record.get("faults")
    if isinstance(faults, dict):
        for key in ("rerouted_pairs", "dropped_pairs"):
            if not isinstance(faults.get(key), int):
                continue
            total_pairs = sum(
                int(r.get(key, 0)) for r in rows if isinstance(r.get(key), int)
            )
            if faults[key] != total_pairs:
                findings.append(
                    SanFinding(
                        SAN_LEDGER,
                        f"faults.{key}",
                        f"reports {faults[key]} but the batch rows sum to "
                        f"{total_pairs}",
                    )
                )
    return findings


def _serve_ledger_findings(where: str, row: Any) -> list[SanFinding]:
    """Exact offered-conservation over one serve-record ledger row."""
    keys = ("offered", "admitted", "shed", "timed_out")
    if not isinstance(row, dict) or not all(
        isinstance(row.get(k), int) for k in keys
    ):
        return []
    balance = row["admitted"] + row["shed"] + row["timed_out"]
    if row["offered"] != balance:
        return [
            SanFinding(
                SAN_LEDGER,
                where,
                f"offered {row['offered']} but admitted + shed + timed_out "
                f"is {balance} (requests leaked or double-counted)",
            )
        ]
    return []


def sanitize_serve_record(record: Any) -> list[SanFinding]:
    """Cross-field conservation over a ``repro.serve/v1`` record.

    The structural validator already enforces per-row conservation;
    this re-checks it independently (sanitize runs on files the maker
    never saw) and adds the cross-section sums: tenant ledgers must add
    up to the totals, per-reason shed counts to each tenant's shed
    count, and every curve point must conserve its own offered count.
    """
    findings: list[SanFinding] = []
    if not isinstance(record, dict):
        return [SanFinding(SAN_SCHEMA, "record", "record must be a JSON object")]
    totals = record.get("totals")
    tenants = record.get("tenants")
    findings += _serve_ledger_findings("totals", totals)
    if isinstance(tenants, list):
        sums = {"offered": 0, "admitted": 0, "shed": 0, "timed_out": 0}
        complete = True
        for i, row in enumerate(tenants):
            if not isinstance(row, dict):
                complete = False
                continue
            where = f"tenants[{row.get('tenant', i)!r}]"
            findings += _serve_ledger_findings(where, row)
            for key in sums:
                if isinstance(row.get(key), int):
                    sums[key] += row[key]
                else:
                    complete = False
            reasons = row.get("shed_by_reason")
            if (
                isinstance(reasons, dict)
                and all(isinstance(v, int) for v in reasons.values())
                and isinstance(row.get("shed"), int)
                and sum(reasons.values()) != row["shed"]
            ):
                findings.append(
                    SanFinding(
                        SAN_LEDGER,
                        f"{where}.shed_by_reason",
                        f"reasons sum to {sum(reasons.values())} but shed "
                        f"is {row['shed']}",
                    )
                )
        if complete and isinstance(totals, dict):
            for key, value in sums.items():
                if isinstance(totals.get(key), int) and totals[key] != value:
                    findings.append(
                        SanFinding(
                            SAN_LEDGER,
                            f"totals.{key}",
                            f"reports {totals[key]} but the tenant rows "
                            f"sum to {value}",
                        )
                    )
    curve = record.get("curve")
    if isinstance(curve, list):
        for i, point in enumerate(curve):
            findings += _serve_ledger_findings(f"curve[{i}]", point)
    return findings


def sanitize_result_record(record: Any) -> list[SanFinding]:
    """Conservation checks over a ``repro.bench.result/v1`` record."""
    findings: list[SanFinding] = []
    if not isinstance(record, dict):
        return [SanFinding(SAN_SCHEMA, "record", "record must be a JSON object")]
    util = record.get("utilization")
    if not isinstance(util, dict) or not _is_number(util.get("makespan_s")):
        return findings
    makespan = float(util["makespan_s"])
    path = util.get("critical_path")
    if isinstance(path, dict) and path:
        covered = sum(float(v) for v in path.values() if _is_number(v))
        if not _isclose(covered, makespan):
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    "utilization.critical_path",
                    f"attribution covers {covered}s of a {makespan}s makespan",
                )
            )
    resources = util.get("resources")
    if isinstance(resources, list):
        for row in resources:
            if not isinstance(row, dict):
                continue
            busy, idle = row.get("busy_s"), row.get("idle_s")
            n_lanes = row.get("n_lanes")
            if (
                _is_number(busy)
                and _is_number(idle)
                and isinstance(n_lanes, int)
                and n_lanes > 0
                and float(idle) > 0.0
            ):
                window = makespan * n_lanes
                if not _isclose(float(busy) + float(idle), window):
                    findings.append(
                        SanFinding(
                            SAN_LEDGER,
                            f"utilization[{row.get('resource')!r}]",
                            f"busy {busy}s + idle {idle}s does not fill the "
                            f"{window}s window ({n_lanes} lane(s))",
                        )
                    )
    return findings


def sanitize_trace_record(record: Any) -> list[SanFinding]:
    """Conservation checks over a ``repro.trace/v1`` record.

    Structure is owned by ``repro.tracing.validate_trace_record`` (and
    the telemetry schema CLI); this re-derives every query's window from
    the span rows that reference it and compares:

    * ``latency_s`` must equal ``t1 - t0`` exactly (that is how the
      maker computes it — a JSON round trip preserves the bits);
    * ``t0``/``t1`` must equal the min ready time / max end time over
      the query's spans (to :data:`RECORD_RTOL`);
    * ``n_spans`` must equal the number of spans carrying the id.
    """
    findings: list[SanFinding] = []
    if not isinstance(record, dict):
        return [SanFinding(SAN_SCHEMA, "record", "record must be a JSON object")]
    spans = record.get("spans")
    queries = record.get("queries")
    if not isinstance(spans, list) or not isinstance(queries, list):
        return findings

    windows: dict[str, tuple[float, float, int]] = {}  # qid -> (t0, t1, n)
    for row in spans:
        if not isinstance(row, dict):
            continue
        t0, dur, wait = row.get("t0"), row.get("duration_s"), row.get("wait_s")
        ids = row.get("trace_ids")
        if (
            not _is_number(t0)
            or not _is_number(dur)
            or not _is_number(wait)
            or not isinstance(ids, list)
        ):
            continue
        ready, end = float(t0) - float(wait), float(t0) + float(dur)
        for qid in ids:
            if not isinstance(qid, str):
                continue
            prev = windows.get(qid)
            if prev is None:
                windows[qid] = (ready, end, 1)
            else:
                windows[qid] = (min(prev[0], ready), max(prev[1], end), prev[2] + 1)

    for i, q in enumerate(queries):
        if not isinstance(q, dict) or not isinstance(q.get("trace_id"), str):
            continue
        qid = q["trace_id"]
        where = f"queries[{qid!r}]"
        t0, t1, latency = q.get("t0"), q.get("t1"), q.get("latency_s")
        if _is_number(t0) and _is_number(t1) and _is_number(latency):
            if float(latency) != float(t1) - float(t0):
                findings.append(
                    SanFinding(
                        SAN_LEDGER,
                        where,
                        f"latency_s {latency} but the window is "
                        f"{float(t1) - float(t0)} (t1 - t0)",
                    )
                )
        derived = windows.get(qid)
        if derived is None:
            continue  # structural validator reports span-less queries
        d_t0, d_t1, d_n = derived
        if _is_number(t0) and not _isclose(float(t0), d_t0):
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    where,
                    f"t0 {t0} but the earliest span ready time is {d_t0}",
                )
            )
        if _is_number(t1) and not _isclose(float(t1), d_t1):
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    where,
                    f"t1 {t1} but the latest span end is {d_t1}",
                )
            )
        if isinstance(q.get("n_spans"), int) and q["n_spans"] != d_n:
            findings.append(
                SanFinding(
                    SAN_LEDGER,
                    where,
                    f"n_spans {q['n_spans']} but {d_n} span(s) carry the id",
                )
            )
    return findings


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
            parts = [float.fromhex(timing[p]) for p in _TIMING_PARTS if p in timing]
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
        for part in parts:
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
        for part_name in _TIMING_PARTS:
            if part_name in timing:
                value = float.fromhex(timing[part_name])
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
    from repro.errors import ConfigError
    from repro.telemetry.schema import validate_sanitize_record

    record = {
        "schema": SANITIZE_SCHEMA,
        "name": name,
        "inputs": [dict(i) for i in inputs],
        "count": len(findings),
        "findings": [f.to_dict() for f in findings],
    }
    errors = validate_sanitize_record(record)
    if errors:
        raise ConfigError(
            "constructed an invalid sanitize record: " + "; ".join(errors)
        )
    return record
