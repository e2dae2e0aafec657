"""Schema-versioned, machine-readable benchmark result records.

Every harness figure run (and ``repro.cli metrics --json``) emits one
record so the perf trajectory is diffable across commits::

    {
      "schema": "repro.bench.result/v1",
      "name": "fig16_batch_size",
      "config": {...},                      # free-form, str keys
      "qps": {"mean":, "min":, "max":, "n_batches":},
      "stage_seconds": {"cluster_filter":, ..., "dpu":, ...},
      "utilization": {"makespan_s":, "resources": [...], "critical_path": {}},
      "metrics": {"schema": "repro.metrics/v1", "metrics": [...]}
    }

:func:`make_result_record` builds and validates one;
:func:`validate_result_record` returns structural errors.  Run as a
module to validate files from CI::

    python -m repro.telemetry.schema benchmarks/results/*.json
    python -m repro.telemetry.schema --prom scrape.prom
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable

from repro.errors import ConfigError
from repro.telemetry.exposition import validate_prometheus_text, validate_snapshot
from repro.telemetry.log import get_logger

RESULT_SCHEMA = "repro.bench.result/v1"
CHAOS_SCHEMA = "repro.chaos/v1"
SANITIZE_SCHEMA = "repro.sanitize/v1"
SERVE_SCHEMA = "repro.serve/v1"

#: Stage keys the six-scalar :class:`~repro.sim.schedule.BatchTiming`
#: decomposes a batch into (the record may carry extra engine-specific
#: stages; these are the canonical ones).
BATCH_STAGES = (
    "cluster_filter",
    "schedule",
    "transfer_in",
    "dpu",
    "transfer_out",
    "aggregate",
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def make_result_record(
    *,
    name: str,
    config: dict[str, Any],
    qps_values: Iterable[float],
    stage_seconds: dict[str, float],
    utilization: dict[str, Any],
    metrics: dict[str, Any],
) -> dict[str, Any]:
    """Assemble and validate one result record (raises on invalid)."""
    qps = [float(v) for v in qps_values]
    if not qps:
        raise ConfigError("a result record needs at least one QPS sample")
    record = {
        "schema": RESULT_SCHEMA,
        "name": name,
        "config": dict(config),
        "qps": {
            "mean": sum(qps) / len(qps),
            "min": min(qps),
            "max": max(qps),
            "n_batches": len(qps),
        },
        "stage_seconds": {k: float(v) for k, v in stage_seconds.items()},
        "utilization": utilization,
        "metrics": metrics,
    }
    errors = validate_result_record(record)
    if errors:
        raise ConfigError(
            "constructed an invalid result record: " + "; ".join(errors)
        )
    return record


def validate_result_record(record: Any) -> list[str]:
    """Structural errors in a result record (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return ["record must be a JSON object"]
    if record.get("schema") != RESULT_SCHEMA:
        errors.append(
            f"schema must be {RESULT_SCHEMA!r}, got {record.get('schema')!r}"
        )
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append("missing non-empty string 'name'")
    config = record.get("config")
    if not isinstance(config, dict) or not all(
        isinstance(k, str) for k in config
    ):
        errors.append("'config' must be an object with string keys")
    errors.extend(_validate_qps(record.get("qps")))
    errors.extend(_validate_stage_seconds(record.get("stage_seconds")))
    errors.extend(_validate_utilization(record.get("utilization")))
    metrics = record.get("metrics")
    if metrics is None:
        errors.append("missing 'metrics' registry snapshot")
    else:
        errors.extend(f"metrics: {e}" for e in validate_snapshot(metrics))
    return errors


def _validate_qps(qps: Any) -> list[str]:
    if not isinstance(qps, dict):
        return ["'qps' must be an object"]
    errors = []
    for key in ("mean", "min", "max"):
        if not _is_number(qps.get(key)) or qps.get(key, -1) < 0:
            errors.append(f"qps.{key} must be a non-negative number")
    n = qps.get("n_batches")
    if not isinstance(n, int) or n < 1:
        errors.append("qps.n_batches must be a positive integer")
    if not errors and not (qps["min"] <= qps["mean"] <= qps["max"]):
        errors.append("qps.mean must lie within [qps.min, qps.max]")
    return errors


def _validate_stage_seconds(stages: Any) -> list[str]:
    if not isinstance(stages, dict):
        return ["'stage_seconds' must be an object"]
    errors = []
    for key, value in stages.items():
        if not isinstance(key, str):
            errors.append(f"stage_seconds key {key!r} is not a string")
        elif not _is_number(value) or value < 0:
            errors.append(f"stage_seconds[{key!r}] must be a non-negative number")
    return errors


def _validate_utilization(util: Any) -> list[str]:
    if not isinstance(util, dict):
        return ["'utilization' must be an object"]
    errors = []
    if not _is_number(util.get("makespan_s")) or util.get("makespan_s", -1) < 0:
        errors.append("utilization.makespan_s must be a non-negative number")
    resources = util.get("resources")
    if not isinstance(resources, list):
        errors.append("utilization.resources must be a list")
        resources = []
    for i, row in enumerate(resources):
        where = f"utilization.resources[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(row.get("resource"), str):
            errors.append(f"{where}: missing string 'resource'")
        for key in ("busy_s", "idle_s"):
            if not _is_number(row.get(key)) or row.get(key, -1) < 0:
                errors.append(f"{where}.{key} must be a non-negative number")
        u = row.get("utilization")
        if not _is_number(u) or not (0.0 <= u <= 1.0):
            errors.append(f"{where}.utilization must be within [0, 1]")
        if not isinstance(row.get("n_spans"), int) or row.get("n_spans", -1) < 0:
            errors.append(f"{where}.n_spans must be a non-negative integer")
    path = util.get("critical_path")
    if not isinstance(path, dict):
        errors.append("utilization.critical_path must be an object")
    else:
        for key, value in path.items():
            if not isinstance(key, str) or not _is_number(value) or value < 0:
                errors.append(
                    f"critical_path[{key!r}] must map a string to a "
                    "non-negative number"
                )
    return errors


def make_chaos_record(
    *,
    name: str,
    config: dict[str, Any],
    plan: dict[str, Any],
    faults_injected: int,
    retries: int,
    rerouted_pairs: int,
    dropped_pairs: int,
    dead_units: list[int],
    coverage_floor: float,
    recall_delta: float,
    retry_seconds: float,
    recovery_batches: int,
    recovery_seconds: float,
    batches: list[dict[str, Any]],
) -> dict[str, Any]:
    """Assemble and validate one chaos-run record.

    The record summarizes a seeded fault-injection scenario end-to-end:
    what the plan injected, how the stack compensated (retries,
    re-routes, recovery refreshes) and what it cost functionally
    (coverage floor, recall delta vs the fault-free run) and in modeled
    time (``retry_seconds``, ``recovery_seconds``).
    """
    record = {
        "schema": CHAOS_SCHEMA,
        "name": name,
        "config": dict(config),
        "plan": dict(plan),
        "faults": {
            "injected": int(faults_injected),
            "retries": int(retries),
            "rerouted_pairs": int(rerouted_pairs),
            "dropped_pairs": int(dropped_pairs),
            "dead_units": [int(u) for u in dead_units],
        },
        "degradation": {
            "coverage_floor": float(coverage_floor),
            "recall_delta": float(recall_delta),
        },
        "recovery": {
            "batches": int(recovery_batches),
            "retry_seconds": float(retry_seconds),
            "recovery_seconds": float(recovery_seconds),
        },
        "batches": [dict(b) for b in batches],
    }
    errors = validate_chaos_record(record)
    if errors:
        raise ConfigError(
            "constructed an invalid chaos record: " + "; ".join(errors)
        )
    return record


#: Required per-batch fields of a chaos record.
CHAOS_BATCH_FIELDS = ("batch", "coverage_floor", "rerouted_pairs", "dropped_pairs")


def validate_chaos_record(record: Any) -> list[str]:
    """Structural errors in a chaos record (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return ["record must be a JSON object"]
    if record.get("schema") != CHAOS_SCHEMA:
        errors.append(
            f"schema must be {CHAOS_SCHEMA!r}, got {record.get('schema')!r}"
        )
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append("missing non-empty string 'name'")
    for section in ("config", "plan"):
        value = record.get(section)
        if not isinstance(value, dict) or not all(
            isinstance(k, str) for k in value
        ):
            errors.append(f"'{section}' must be an object with string keys")
    faults = record.get("faults")
    if not isinstance(faults, dict):
        errors.append("'faults' must be an object")
    else:
        for key in ("injected", "retries", "rerouted_pairs", "dropped_pairs"):
            if not isinstance(faults.get(key), int) or faults.get(key, -1) < 0:
                errors.append(f"faults.{key} must be a non-negative integer")
        dead = faults.get("dead_units")
        if not isinstance(dead, list) or not all(
            isinstance(u, int) and u >= 0 for u in dead
        ):
            errors.append("faults.dead_units must be a list of unit ids")
    degradation = record.get("degradation")
    if not isinstance(degradation, dict):
        errors.append("'degradation' must be an object")
    else:
        floor = degradation.get("coverage_floor")
        if not _is_number(floor) or not (0.0 <= floor <= 1.0):
            errors.append("degradation.coverage_floor must be within [0, 1]")
        if not _is_number(degradation.get("recall_delta")):
            errors.append("degradation.recall_delta must be a number")
    recovery = record.get("recovery")
    if not isinstance(recovery, dict):
        errors.append("'recovery' must be an object")
    else:
        if not isinstance(recovery.get("batches"), int) or recovery.get("batches", -1) < 0:
            errors.append("recovery.batches must be a non-negative integer")
        for key in ("retry_seconds", "recovery_seconds"):
            if not _is_number(recovery.get(key)) or recovery.get(key, -1) < 0:
                errors.append(f"recovery.{key} must be a non-negative number")
    batches = record.get("batches")
    if not isinstance(batches, list) or not batches:
        errors.append("'batches' must be a non-empty list")
        batches = []
    for i, row in enumerate(batches):
        where = f"batches[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(row.get("batch"), int) or row.get("batch", -1) < 0:
            errors.append(f"{where}.batch must be a non-negative integer")
        floor = row.get("coverage_floor")
        if not _is_number(floor) or not (0.0 <= floor <= 1.0):
            errors.append(f"{where}.coverage_floor must be within [0, 1]")
        for key in ("rerouted_pairs", "dropped_pairs"):
            if not isinstance(row.get(key), int) or row.get(key, -1) < 0:
                errors.append(f"{where}.{key} must be a non-negative integer")
    return errors


#: Count fields whose conservation a serve record must satisfy exactly:
#: every offered request ends in exactly one of the three terminal
#: buckets (``admitted`` means *executed*).
SERVE_LEDGER_FIELDS = ("offered", "admitted", "shed", "timed_out")
#: Latency-summary fields carried by totals and every tenant row.
SERVE_SUMMARY_FIELDS = ("goodput_qps", "p50_ms", "p95_ms", "p99_ms")
#: Required fields of one goodput-vs-offered-load curve point.
SERVE_CURVE_FIELDS = SERVE_LEDGER_FIELDS + (
    "offered_load",
    "offered_qps",
    "goodput_qps",
    "p99_ms",
    "coverage_floor",
    "shedding",
)


def make_serve_record(
    *,
    name: str,
    config: dict[str, Any],
    totals: dict[str, Any],
    tenants: list[dict[str, Any]],
    curve: list[dict[str, Any]],
) -> dict[str, Any]:
    """Assemble and validate one serving-run record.

    The record summarizes a seeded open-loop serving scenario: the
    offered/admitted/shed/timed-out ledger (total and per tenant, with
    per-reason shed counts), admitted-request latency percentiles and
    goodput, and a goodput-vs-offered-load curve across the swept load
    points (rows carry ``shedding`` so the shedding frontend and the
    no-shedding baseline can share one record).
    """
    record = {
        "schema": SERVE_SCHEMA,
        "name": name,
        "config": dict(config),
        "totals": dict(totals),
        "tenants": [dict(t) for t in tenants],
        "curve": [dict(p) for p in curve],
    }
    errors = validate_serve_record(record)
    if errors:
        raise ConfigError(
            "constructed an invalid serve record: " + "; ".join(errors)
        )
    return record


def _validate_serve_ledger(where: str, row: Any) -> list[str]:
    """Shared checks: count fields plus exact offered conservation."""
    errors = []
    for key in SERVE_LEDGER_FIELDS:
        if not isinstance(row.get(key), int) or row.get(key, -1) < 0:
            errors.append(f"{where}.{key} must be a non-negative integer")
    if not errors:
        balance = row["admitted"] + row["shed"] + row["timed_out"]
        if row["offered"] != balance:
            errors.append(
                f"{where}: offered ({row['offered']}) != admitted + shed "
                f"+ timed_out ({balance})"
            )
    return errors


def _validate_serve_summary(where: str, row: Any) -> list[str]:
    errors = []
    for key in SERVE_SUMMARY_FIELDS:
        if not _is_number(row.get(key)) or row.get(key, -1) < 0:
            errors.append(f"{where}.{key} must be a non-negative number")
    if not errors and not (
        row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
    ):
        errors.append(f"{where}: percentiles must be non-decreasing (p50<=p95<=p99)")
    return errors


def validate_serve_record(record: Any) -> list[str]:
    """Structural errors in a serve record (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return ["record must be a JSON object"]
    if record.get("schema") != SERVE_SCHEMA:
        errors.append(
            f"schema must be {SERVE_SCHEMA!r}, got {record.get('schema')!r}"
        )
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append("missing non-empty string 'name'")
    config = record.get("config")
    if not isinstance(config, dict) or not all(isinstance(k, str) for k in config):
        errors.append("'config' must be an object with string keys")
    totals = record.get("totals")
    if not isinstance(totals, dict):
        errors.append("'totals' must be an object")
        totals = {}
    else:
        errors += _validate_serve_ledger("totals", totals)
        errors += _validate_serve_summary("totals", totals)
        floor = totals.get("coverage_floor")
        if not _is_number(floor) or not (0.0 <= floor <= 1.0):
            errors.append("totals.coverage_floor must be within [0, 1]")
        if not isinstance(totals.get("batches"), int) or totals.get("batches", -1) < 0:
            errors.append("totals.batches must be a non-negative integer")
    tenants = record.get("tenants")
    if not isinstance(tenants, list) or not tenants:
        errors.append("'tenants' must be a non-empty list")
        tenants = []
    sums = dict.fromkeys(SERVE_LEDGER_FIELDS, 0)
    rows_ok = True
    for i, row in enumerate(tenants):
        where = f"tenants[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            rows_ok = False
            continue
        if not isinstance(row.get("tenant"), str) or not row.get("tenant"):
            errors.append(f"{where}: missing non-empty string 'tenant'")
        row_errors = _validate_serve_ledger(where, row)
        row_errors += _validate_serve_summary(where, row)
        errors += row_errors
        if row_errors:
            rows_ok = False
            continue
        for key in SERVE_LEDGER_FIELDS:
            sums[key] += row[key]
        reasons = row.get("shed_by_reason")
        if not isinstance(reasons, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and v >= 0
            for k, v in reasons.items()
        ):
            errors.append(
                f"{where}.shed_by_reason must map reason -> non-negative count"
            )
        elif sum(reasons.values()) != row["shed"]:
            errors.append(
                f"{where}: shed_by_reason sums to {sum(reasons.values())} "
                f"but shed is {row['shed']}"
            )
    if rows_ok and isinstance(totals, dict) and not errors:
        for key in SERVE_LEDGER_FIELDS:
            if sums[key] != totals.get(key):
                errors.append(
                    f"tenant {key} counts sum to {sums[key]} but "
                    f"totals.{key} is {totals.get(key)!r}"
                )
    curve = record.get("curve")
    if not isinstance(curve, list):
        errors.append("'curve' must be a list")
        curve = []
    for i, point in enumerate(curve):
        where = f"curve[{i}]"
        if not isinstance(point, dict):
            errors.append(f"{where}: not an object")
            continue
        errors += _validate_serve_ledger(where, point)
        for key in ("offered_load", "offered_qps", "goodput_qps", "p99_ms"):
            if not _is_number(point.get(key)) or point.get(key, -1) < 0:
                errors.append(f"{where}.{key} must be a non-negative number")
        floor = point.get("coverage_floor")
        if not _is_number(floor) or not (0.0 <= floor <= 1.0):
            errors.append(f"{where}.coverage_floor must be within [0, 1]")
        if not isinstance(point.get("shedding"), bool):
            errors.append(f"{where}.shedding must be a boolean")
    return errors


#: Required keys of one finding row in a sanitize record.
SANITIZE_FINDING_FIELDS = ("code", "location", "message")


def validate_sanitize_record(record: Any) -> list[str]:
    """Structural errors in a ``repro.sanitize/v1`` record.

    The record is what ``repro.cli sanitize`` emits: which inputs were
    checked, how many invariants each violated, and one row per finding
    (``code``/``location``/``message`` plus the source file).
    """
    errors: list[str] = []
    if not isinstance(record, dict):
        return ["record must be a JSON object"]
    if record.get("schema") != SANITIZE_SCHEMA:
        errors.append(
            f"schema must be {SANITIZE_SCHEMA!r}, got {record.get('schema')!r}"
        )
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append("missing non-empty string 'name'")
    inputs = record.get("inputs")
    if not isinstance(inputs, list):
        errors.append("'inputs' must be a list")
        inputs = []
    for i, row in enumerate(inputs):
        where = f"inputs[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(row.get("path"), str) or not row.get("path"):
            errors.append(f"{where}: missing non-empty string 'path'")
        if not isinstance(row.get("kind"), str) or not row.get("kind"):
            errors.append(f"{where}: missing non-empty string 'kind'")
        count = row.get("findings")
        if not isinstance(count, int) or count < 0:
            errors.append(f"{where}.findings must be a non-negative integer")
    findings = record.get("findings")
    if not isinstance(findings, list):
        errors.append("'findings' must be a list")
        findings = []
    for i, row in enumerate(findings):
        where = f"findings[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in SANITIZE_FINDING_FIELDS:
            if not isinstance(row.get(key), str) or not row.get(key):
                errors.append(f"{where}: missing non-empty string '{key}'")
    count = record.get("count")
    if not isinstance(count, int) or count < 0:
        errors.append("'count' must be a non-negative integer")
    elif count != len(findings):
        errors.append(
            f"'count' is {count} but the record carries {len(findings)} finding(s)"
        )
    return errors


def main(argv: list[str] | None = None) -> int:
    """Validate result-record JSON files (or, with ``--prom``, Prometheus
    text scrapes).  Exit 0 = all valid, 1 = invalid, 2 = usage/IO error."""
    argv = list(sys.argv[1:] if argv is None else argv)
    log = get_logger()
    prom = "--prom" in argv
    if prom:
        argv.remove("--prom")
    if not argv:
        log.error(
            "schema.usage",
            usage="python -m repro.telemetry.schema [--prom] FILE...",
        )
        return 2
    status = 0
    for path in argv:
        try:
            text = open(path, encoding="utf-8").read()
        except OSError as exc:
            log.error("schema.read_failed", file=path, error=str(exc))
            return 2
        kind = "prometheus"
        if prom:
            errors = validate_prometheus_text(text)
        else:
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                record, errors = None, [f"not valid JSON: {exc}"]
            if record is not None:
                # Dispatch on the embedded schema tag so one invocation
                # can validate a mixed set of record files.
                if isinstance(record, dict) and record.get("schema") == CHAOS_SCHEMA:
                    kind, errors = "chaos", validate_chaos_record(record)
                elif (
                    isinstance(record, dict)
                    and record.get("schema") == SANITIZE_SCHEMA
                ):
                    kind, errors = "sanitize", validate_sanitize_record(record)
                elif isinstance(record, dict) and record.get("schema") == SERVE_SCHEMA:
                    kind, errors = "serve", validate_serve_record(record)
                elif (
                    isinstance(record, dict)
                    and isinstance(record.get("schema"), str)
                    and record["schema"].startswith("repro.trace/")
                ):
                    # Lazy: keeps the schema CLI import-light (the trace
                    # validator pulls in repro.sim).
                    from repro.tracing.record import validate_trace_record

                    kind, errors = "trace", validate_trace_record(record)
                else:
                    kind, errors = "result", validate_result_record(record)
        if errors:
            for err in errors:
                log.error("schema.invalid", file=path, error=err)
            status = 1
        else:
            log.info("schema.valid", file=path, kind=kind)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
