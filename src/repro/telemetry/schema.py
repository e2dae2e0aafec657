"""One spec per schema-tagged record: field rules, invariants, makers.

Every record the repo emits carries an exact ``schema`` tag, and
:data:`SPECS` maps each tag to one :class:`RecordSpec`: the record's
kind name (the vocabulary both ``python -m repro.telemetry.schema`` and
``repro.cli sanitize`` print), its field rules and its cross-field
invariants.  Each invariant is written once and carries the simsan
finding code it reports as:

* ``SAN-SCHEMA`` invariants are structural: ``qps.mean`` within
  ``[qps.min, qps.max]``, ordered latency percentiles, trace id and
  parent cross-references, a sanitize record's finding count;
* ``SAN-LEDGER`` invariants are conservation sums: serve ledgers,
  chaos recovery totals, critical-path coverage, query windows.

Two tiers read the same entries.  :meth:`RecordSpec.validate` (the
makers and the schema CLI) checks the field rules plus every invariant
marked ``maker``; simsan (:mod:`repro.sanitize.records`) reports the
``SAN-LEDGER`` invariants, and for a tagged file the field rules and
``SAN-SCHEMA`` invariants as ``SAN-SCHEMA`` findings.  Maker-built
records need not satisfy the chaos recovery sums (test records carry
totals without per-batch rows), so those stay simsan-only; the serve
ledger is enforced by both tiers.

Float sums on JSON round trips compare to a tiny relative tolerance
(:data:`RECORD_RTOL`).  Run as a module to validate files from CI::

    python -m repro.telemetry.schema benchmarks/results/*.json
    python -m repro.telemetry.schema --prom scrape.prom
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ConfigError
from repro.telemetry.exposition import validate_prometheus_text, validate_snapshot
from repro.telemetry.log import get_logger

RESULT_SCHEMA = "repro.bench.result/v1"
CHAOS_SCHEMA = "repro.chaos/v1"
SERVE_SCHEMA = "repro.serve/v1"
SANITIZE_SCHEMA = "repro.sanitize/v1"
TRACE_SCHEMA = "repro.trace/v1"

#: The simsan finding codes invariants report as (documented, with the
#: rest of simsan's codes, in :mod:`repro.sanitize.findings`).
SAN_SCHEMA = "SAN-SCHEMA"
SAN_LEDGER = "SAN-LEDGER"

RECORD_RTOL = 1e-9

#: Count fields whose conservation a serve record must satisfy exactly:
#: every offered request ends in exactly one of the three terminal
#: buckets (``admitted`` means *executed*).
SERVE_LEDGER_FIELDS = ("offered", "admitted", "shed", "timed_out")

#: One broken rule: (location, message).
Violation = tuple[str, str]
#: A field rule: the violations of the value found at a path.
Rule = Callable[[Any, str], Iterator[Violation]]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RECORD_RTOL, abs_tol=1e-15)


def _value(ok: Callable[[Any], bool], what: str) -> Rule:
    """A leaf rule: the value satisfies ``ok`` or "must be ``what``"."""

    def check(value: Any, path: str) -> Iterator[Violation]:
        if not ok(value):
            yield path, f"must be {what}"

    return check


NAME = _value(lambda v: isinstance(v, str) and v != "", "a non-empty string")
TEXT = _value(lambda v: isinstance(v, str), "a string")
COUNT = _value(lambda v: isinstance(v, int) and v >= 0, "a non-negative integer")
POSITIVE = _value(lambda v: isinstance(v, int) and v >= 1, "a positive integer")
AMOUNT = _value(lambda v: _is_number(v) and v >= 0, "a non-negative number")
NUMBER = _value(_is_number, "a number")
FRACTION = _value(lambda v: _is_number(v) and 0.0 <= v <= 1.0, "within [0, 1]")
FLAG = _value(lambda v: isinstance(v, bool), "a boolean")
STRINGS = _value(
    lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of strings",
)
UNIT_IDS = _value(
    lambda v: isinstance(v, list)
    and all(isinstance(u, int) and u >= 0 for u in v),
    "a list of unit ids",
)
STR_KEYED = _value(
    lambda v: isinstance(v, dict) and all(isinstance(k, str) for k in v),
    "an object with string keys",
)


def _fields(
    rules: dict[str, Rule], record: dict[str, Any], prefix: str = ""
) -> Iterator[Violation]:
    for key, rule in rules.items():
        yield from rule(record.get(key), prefix + key)


def section(rules: dict[str, Rule]) -> Rule:
    """An object whose keys follow ``rules``."""

    def check(value: Any, path: str) -> Iterator[Violation]:
        if not isinstance(value, dict):
            yield path, "must be an object"
        else:
            yield from _fields(rules, value, path + ".")

    return check


def rows(rules: dict[str, Rule], *, non_empty: bool = False) -> Rule:
    """A list of objects, each following ``rules``."""
    row = section(rules)

    def check(value: Any, path: str) -> Iterator[Violation]:
        if not isinstance(value, list) or (non_empty and not value):
            yield path, "must be a non-empty list" if non_empty else "must be a list"
        else:
            for i, item in enumerate(value):
                yield from row(item, f"{path}[{i}]")

    return check


def mapping(rule: Rule) -> Rule:
    """An object mapping string keys to values that follow ``rule``."""

    def check(value: Any, path: str) -> Iterator[Violation]:
        if not isinstance(value, dict):
            yield path, "must be an object"
            return
        for key, item in value.items():
            where = f"{path}[{key!r}]"
            if not isinstance(key, str):
                yield where, "must have a string key"
            yield from rule(item, where)

    return check


def _snapshot(value: Any, path: str) -> Iterator[Violation]:
    if value is None:
        yield path, "must be a registry snapshot"
    else:
        for error in validate_snapshot(value):
            yield path, error


@dataclass(frozen=True)
class Invariant:
    """One cross-field rule.

    ``check`` yields a violation per broken instance and skips what it
    cannot read, so it also runs on partial records; ``code`` is the
    simsan finding it reports as; ``maker`` also enforces it in
    :meth:`RecordSpec.validate`.
    """

    code: str
    check: Callable[[dict[str, Any]], Iterable[Violation]]
    maker: bool = False


@dataclass(frozen=True)
class RecordSpec:
    """Everything that makes one tagged record valid."""

    tag: str
    kind: str
    rules: dict[str, Rule]
    invariants: tuple[Invariant, ...]

    def violations(self, record: dict[str, Any], code: str) -> list[Violation]:
        """The broken rules that report as ``code`` (field rules report
        as ``SAN-SCHEMA``)."""
        found = list(_fields(self.rules, record)) if code == SAN_SCHEMA else []
        for invariant in self.invariants:
            if invariant.code == code:
                found.extend(invariant.check(record))
        return found

    def validate(self, record: Any) -> list[str]:
        """Field errors plus broken maker invariants (empty list = valid)."""
        if not isinstance(record, dict):
            return ["record must be a JSON object"]
        found: list[Violation] = []
        if record.get("schema") != self.tag:
            found.append(
                ("schema", f"must be {self.tag!r}, got {record.get('schema')!r}")
            )
        found.extend(_fields(self.rules, record))
        for invariant in self.invariants:
            if invariant.maker:
                found.extend(invariant.check(record))
        return [f"{where}: {message}" for where, message in found]

    def checked(self, record: dict[str, Any]) -> dict[str, Any]:
        """``record`` itself, or :class:`ConfigError` if it is invalid."""
        errors = self.validate(record)
        if errors:
            noun = self.tag.partition("/")[0].rpartition(".")[2]
            raise ConfigError(
                f"constructed an invalid {noun} record: " + "; ".join(errors)
            )
        return record


def _qps_within_range(record: dict[str, Any]) -> Iterator[Violation]:
    qps = record.get("qps")
    if not isinstance(qps, dict):
        return
    low, mean, high = (qps.get(k) for k in ("min", "mean", "max"))
    if _is_number(low) and _is_number(mean) and _is_number(high):
        if not low <= mean <= high:
            yield "qps.mean", "must lie within [qps.min, qps.max]"


def _utilization_conserved(record: dict[str, Any]) -> Iterator[Violation]:
    """Critical-path attribution covers the makespan, and each resource's
    busy + idle fills its lanes' window."""
    util = record.get("utilization")
    if not isinstance(util, dict) or not _is_number(util.get("makespan_s")):
        return
    makespan = float(util["makespan_s"])
    path = util.get("critical_path")
    if isinstance(path, dict) and path:
        covered = sum(float(v) for v in path.values() if _is_number(v))
        if not _isclose(covered, makespan):
            yield (
                "utilization.critical_path",
                f"attribution covers {covered}s of a {makespan}s makespan",
            )
    resources = util.get("resources")
    for row in resources if isinstance(resources, list) else ():
        if not isinstance(row, dict):
            continue
        busy, idle, n_lanes = row.get("busy_s"), row.get("idle_s"), row.get("n_lanes")
        if (
            _is_number(busy)
            and _is_number(idle)
            and isinstance(n_lanes, int)
            and n_lanes > 0
            and float(idle) > 0.0
        ):
            window = makespan * n_lanes
            if not _isclose(float(busy) + float(idle), window):
                yield (
                    f"utilization[{row.get('resource')!r}]",
                    f"busy {busy}s + idle {idle}s does not fill the "
                    f"{window}s window ({n_lanes} lane(s))",
                )


def _chaos_rows_add_up(record: dict[str, Any]) -> Iterator[Violation]:
    """The per-batch rows add up to the run's batch count, recovery
    seconds, coverage floor and pair counters."""
    batch_rows = record.get("batches")
    if not isinstance(batch_rows, list) or not all(
        isinstance(r, dict) for r in batch_rows
    ):
        return
    config = record.get("config")
    if isinstance(config, dict) and isinstance(config.get("batches"), int):
        if config["batches"] != len(batch_rows):
            yield (
                "batches",
                f"config promises {config['batches']} batches but the "
                f"record carries {len(batch_rows)} rows",
            )
    recovery = record.get("recovery")
    for key in ("retry_seconds", "recovery_seconds"):
        if isinstance(recovery, dict) and _is_number(recovery.get(key)):
            total = sum(float(r[key]) for r in batch_rows if _is_number(r.get(key)))
            if not _isclose(float(recovery[key]), total):
                yield (
                    f"recovery.{key}",
                    f"reports {recovery[key]} but the batch rows sum to {total}",
                )
    degradation = record.get("degradation")
    if isinstance(degradation, dict) and _is_number(
        degradation.get("coverage_floor")
    ):
        worst = min(
            (
                float(r["coverage_floor"])
                for r in batch_rows
                if _is_number(r.get("coverage_floor"))
            ),
            default=1.0,
        )
        if not _isclose(float(degradation["coverage_floor"]), worst):
            yield (
                "degradation.coverage_floor",
                f"reports {degradation['coverage_floor']} but the worst "
                f"batch row is {worst}",
            )
    faults = record.get("faults")
    for key in ("rerouted_pairs", "dropped_pairs"):
        if isinstance(faults, dict) and isinstance(faults.get(key), int):
            pairs = sum(r[key] for r in batch_rows if isinstance(r.get(key), int))
            if faults[key] != pairs:
                yield (
                    f"faults.{key}",
                    f"reports {faults[key]} but the batch rows sum to {pairs}",
                )


def _tenant_rows(record: dict[str, Any]) -> Iterator[tuple[str, dict[str, Any]]]:
    tenants = record.get("tenants")
    for i, row in enumerate(tenants if isinstance(tenants, list) else ()):
        if isinstance(row, dict):
            yield f"tenants[{row.get('tenant', i)!r}]", row


def _summary_rows(record: dict[str, Any]) -> list[tuple[str, dict[str, Any]]]:
    """The serve record's totals and tenant rows, with their locations."""
    totals = record.get("totals")
    head = [("totals", totals)] if isinstance(totals, dict) else []
    return head + list(_tenant_rows(record))


def _serve_ledgers_balance(record: dict[str, Any]) -> Iterator[Violation]:
    """Every totals, tenant and curve row conserves its offered count."""
    curve = record.get("curve")
    points = [
        (f"curve[{i}]", point)
        for i, point in enumerate(curve if isinstance(curve, list) else ())
        if isinstance(point, dict)
    ]
    for where, row in _summary_rows(record) + points:
        if all(isinstance(row.get(k), int) for k in SERVE_LEDGER_FIELDS):
            balance = row["admitted"] + row["shed"] + row["timed_out"]
            if row["offered"] != balance:
                yield (
                    where,
                    f"offered {row['offered']} but admitted + shed + timed_out "
                    f"is {balance} (requests leaked or double-counted)",
                )


def _shed_reasons_sum(record: dict[str, Any]) -> Iterator[Violation]:
    """Each tenant's per-reason shed counts sum to its shed count."""
    for where, row in _tenant_rows(record):
        reasons = row.get("shed_by_reason")
        if (
            isinstance(reasons, dict)
            and all(isinstance(v, int) for v in reasons.values())
            and isinstance(row.get("shed"), int)
            and sum(reasons.values()) != row["shed"]
        ):
            yield (
                f"{where}.shed_by_reason",
                f"reasons sum to {sum(reasons.values())} but shed is {row['shed']}",
            )


def _tenants_sum_to_totals(record: dict[str, Any]) -> Iterator[Violation]:
    """The tenant ledgers add up to the totals' ledger."""
    totals, tenants = record.get("totals"), record.get("tenants")
    if not isinstance(totals, dict) or not isinstance(tenants, list):
        return
    if not all(
        isinstance(row, dict)
        and all(isinstance(row.get(k), int) for k in SERVE_LEDGER_FIELDS)
        for row in tenants
    ):
        return
    for key in SERVE_LEDGER_FIELDS:
        total = sum(row[key] for row in tenants)
        if isinstance(totals.get(key), int) and totals[key] != total:
            yield (
                f"totals.{key}",
                f"reports {totals[key]} but the tenant rows sum to {total}",
            )


def _percentiles_ordered(record: dict[str, Any]) -> Iterator[Violation]:
    for where, row in _summary_rows(record):
        p50, p95, p99 = (row.get(k) for k in ("p50_ms", "p95_ms", "p99_ms"))
        if _is_number(p50) and _is_number(p95) and _is_number(p99):
            if not p50 <= p95 <= p99:
                yield where, "percentiles must be non-decreasing (p50<=p95<=p99)"


def _finding_count_matches(record: dict[str, Any]) -> Iterator[Violation]:
    count, findings = record.get("count"), record.get("findings")
    if isinstance(count, int) and isinstance(findings, list):
        if count != len(findings):
            yield (
                "count",
                f"is {count} but the record carries {len(findings)} finding(s)",
            )


def _trace_references_resolve(record: dict[str, Any]) -> Iterator[Violation]:
    """Span and trace ids are unique, every id a span references is a
    declared query, every query owns a span, and every parent resolves."""
    spans, queries = record.get("spans"), record.get("queries")
    span_rows = spans if isinstance(spans, list) else []
    span_ids: set[str] = set()
    referenced: set[str] = set()
    for i, row in enumerate(span_rows):
        if not isinstance(row, dict):
            continue
        if isinstance(row.get("span"), str):
            if row["span"] in span_ids:
                yield f"spans[{i}]", f"duplicate span id {row['span']!r}"
            span_ids.add(row["span"])
        ids = row.get("trace_ids")
        if isinstance(ids, list) and all(isinstance(t, str) for t in ids):
            referenced.update(ids)
    declared: set[str] = set()
    for i, row in enumerate(queries if isinstance(queries, list) else ()):
        qid = row.get("trace_id") if isinstance(row, dict) else None
        if isinstance(qid, str) and qid:
            if qid in declared:
                yield f"queries[{i}]", f"duplicate trace id {qid!r}"
            declared.add(qid)
    for qid in sorted(referenced - declared):
        yield "spans", f"reference undeclared trace id {qid!r}"
    for qid in sorted(declared - referenced):
        yield f"queries[{qid!r}]", "owns no spans"
    for i, row in enumerate(span_rows):
        parents = row.get("parents") if isinstance(row, dict) else None
        for p in parents if isinstance(parents, list) else ():
            if isinstance(p, str) and p not in span_ids:
                yield f"spans[{i}]", f"unresolved parent {p!r}"


def _query_windows_derive(record: dict[str, Any]) -> Iterator[Violation]:
    """Each query's window re-derived from the spans that carry its id:

    * ``latency_s`` equals ``t1 - t0`` exactly (that is how the maker
      computes it, and a JSON round trip preserves the bits);
    * ``t0``/``t1`` equal the min ready time / max end time over the
      query's spans (to :data:`RECORD_RTOL`);
    * ``n_spans`` equals the number of spans carrying the id.
    """
    spans, queries = record.get("spans"), record.get("queries")
    if not isinstance(spans, list) or not isinstance(queries, list):
        return
    windows: dict[str, tuple[float, float, int]] = {}  # qid -> (t0, t1, n)
    for row in spans:
        if not isinstance(row, dict):
            continue
        t0, dur, wait = row.get("t0"), row.get("duration_s"), row.get("wait_s")
        ids = row.get("trace_ids")
        if not (
            _is_number(t0)
            and _is_number(dur)
            and _is_number(wait)
            and isinstance(ids, list)
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

    for q in queries:
        if not isinstance(q, dict) or not isinstance(q.get("trace_id"), str):
            continue
        where = f"queries[{q['trace_id']!r}]"
        t0, t1, latency = q.get("t0"), q.get("t1"), q.get("latency_s")
        if _is_number(t0) and _is_number(t1) and _is_number(latency):
            if float(latency) != float(t1) - float(t0):
                yield (
                    where,
                    f"latency_s {latency} but the window is "
                    f"{float(t1) - float(t0)} (t1 - t0)",
                )
        derived = windows.get(q["trace_id"])
        if derived is None:
            continue  # a span-less query breaks a reference invariant
        d_t0, d_t1, d_n = derived
        if _is_number(t0) and not _isclose(float(t0), d_t0):
            yield where, f"t0 {t0} but the earliest span ready time is {d_t0}"
        if _is_number(t1) and not _isclose(float(t1), d_t1):
            yield where, f"t1 {t1} but the latest span end is {d_t1}"
        if isinstance(q.get("n_spans"), int) and q["n_spans"] != d_n:
            yield where, f"n_spans {q['n_spans']} but {d_n} span(s) carry the id"


_LEDGER = dict.fromkeys(SERVE_LEDGER_FIELDS, COUNT)
_SUMMARY = dict.fromkeys(("goodput_qps", "p50_ms", "p95_ms", "p99_ms"), AMOUNT)

RESULT = RecordSpec(
    tag=RESULT_SCHEMA,
    kind="result",
    rules={
        "name": NAME,
        "config": STR_KEYED,
        "qps": section(
            {"mean": AMOUNT, "min": AMOUNT, "max": AMOUNT, "n_batches": POSITIVE}
        ),
        "stage_seconds": mapping(AMOUNT),
        "utilization": section(
            {
                "makespan_s": AMOUNT,
                "resources": rows(
                    {
                        "resource": TEXT,
                        "busy_s": AMOUNT,
                        "idle_s": AMOUNT,
                        "utilization": FRACTION,
                        "n_spans": COUNT,
                    }
                ),
                "critical_path": mapping(AMOUNT),
            }
        ),
        "metrics": _snapshot,
    },
    invariants=(
        Invariant(SAN_SCHEMA, _qps_within_range, maker=True),
        Invariant(SAN_LEDGER, _utilization_conserved),
    ),
)

CHAOS = RecordSpec(
    tag=CHAOS_SCHEMA,
    kind="chaos",
    rules={
        "name": NAME,
        "config": STR_KEYED,
        "plan": STR_KEYED,
        "faults": section(
            {
                "injected": COUNT,
                "retries": COUNT,
                "rerouted_pairs": COUNT,
                "dropped_pairs": COUNT,
                "dead_units": UNIT_IDS,
            }
        ),
        "degradation": section({"coverage_floor": FRACTION, "recall_delta": NUMBER}),
        "recovery": section(
            {"batches": COUNT, "retry_seconds": AMOUNT, "recovery_seconds": AMOUNT}
        ),
        "batches": rows(
            {
                "batch": COUNT,
                "coverage_floor": FRACTION,
                "rerouted_pairs": COUNT,
                "dropped_pairs": COUNT,
            },
            non_empty=True,
        ),
    },
    invariants=(Invariant(SAN_LEDGER, _chaos_rows_add_up),),
)

SERVE = RecordSpec(
    tag=SERVE_SCHEMA,
    kind="serve",
    rules={
        "name": NAME,
        "config": STR_KEYED,
        "totals": section(
            {**_LEDGER, **_SUMMARY, "coverage_floor": FRACTION, "batches": COUNT}
        ),
        "tenants": rows(
            {
                "tenant": NAME,
                **_LEDGER,
                **_SUMMARY,
                "shed_by_reason": mapping(COUNT),
            },
            non_empty=True,
        ),
        "curve": rows(
            {
                **_LEDGER,
                "offered_load": AMOUNT,
                "offered_qps": AMOUNT,
                "goodput_qps": AMOUNT,
                "p99_ms": AMOUNT,
                "coverage_floor": FRACTION,
                "shedding": FLAG,
            }
        ),
    },
    invariants=(
        Invariant(SAN_SCHEMA, _percentiles_ordered, maker=True),
        Invariant(SAN_LEDGER, _serve_ledgers_balance, maker=True),
        Invariant(SAN_LEDGER, _shed_reasons_sum, maker=True),
        Invariant(SAN_LEDGER, _tenants_sum_to_totals, maker=True),
    ),
)

SANITIZE = RecordSpec(
    tag=SANITIZE_SCHEMA,
    kind="sanitize",
    rules={
        "name": NAME,
        "inputs": rows({"path": NAME, "kind": NAME, "findings": COUNT}),
        "findings": rows({"code": NAME, "location": NAME, "message": NAME}),
        "count": COUNT,
    },
    invariants=(Invariant(SAN_SCHEMA, _finding_count_matches, maker=True),),
)

TRACE = RecordSpec(
    tag=TRACE_SCHEMA,
    kind="tracerec",
    rules={
        "name": NAME,
        "config": STR_KEYED,
        "spans": rows(
            {
                "span": NAME,
                "resource": NAME,
                "stage": NAME,
                "uid": COUNT,
                "batch": COUNT,
                "t0": AMOUNT,
                "duration_s": AMOUNT,
                "wait_s": AMOUNT,
                "parents": STRINGS,
                "trace_ids": STRINGS,
            },
            non_empty=True,
        ),
        "queries": rows(
            {
                "trace_id": NAME,
                "batch": COUNT,
                "t0": AMOUNT,
                "t1": AMOUNT,
                "latency_s": AMOUNT,
                "n_spans": POSITIVE,
            },
            non_empty=True,
        ),
    },
    invariants=(
        Invariant(SAN_SCHEMA, _trace_references_resolve, maker=True),
        Invariant(SAN_LEDGER, _query_windows_derive),
    ),
)

#: Every record type, keyed by its exact schema tag.
SPECS: dict[str, RecordSpec] = {
    spec.tag: spec for spec in (RESULT, CHAOS, SERVE, SANITIZE, TRACE)
}


def spec_for(record: Any) -> RecordSpec | None:
    """The spec of the tag ``record`` carries, or None for an untagged
    or unknown-tagged payload."""
    tag = record.get("schema") if isinstance(record, dict) else None
    return SPECS.get(tag) if isinstance(tag, str) else None


validate_result_record = RESULT.validate
validate_chaos_record = CHAOS.validate
validate_serve_record = SERVE.validate
validate_sanitize_record = SANITIZE.validate
validate_trace_record = TRACE.validate


def make_result_record(
    *,
    name: str,
    config: dict[str, Any],
    qps_values: Iterable[float],
    stage_seconds: dict[str, float],
    utilization: dict[str, Any],
    metrics: dict[str, Any],
) -> dict[str, Any]:
    """Assemble and validate one result record (raises on invalid).

    Every harness figure run (and ``repro.cli metrics --json``) emits
    one so the perf trajectory is diffable across commits.
    """
    qps = [float(v) for v in qps_values]
    if not qps:
        raise ConfigError("a result record needs at least one QPS sample")
    return RESULT.checked(
        {
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
    )


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
    return CHAOS.checked(
        {
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
    return SERVE.checked(
        {
            "schema": SERVE_SCHEMA,
            "name": name,
            "config": dict(config),
            "totals": dict(totals),
            "tenants": [dict(t) for t in tenants],
            "curve": [dict(p) for p in curve],
        }
    )


def main(argv: list[str] | None = None) -> int:
    """Validate record JSON files against the spec their ``schema`` tag
    names (or, with ``--prom``, Prometheus text scrapes).  Exit 0 = all
    valid, 1 = invalid, 2 = usage/IO error."""
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
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
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
                errors = [f"not valid JSON: {exc}"]
            else:
                spec = spec_for(record)
                if spec is not None:
                    kind, errors = spec.kind, spec.validate(record)
                else:
                    tag = record.get("schema") if isinstance(record, dict) else None
                    errors = [
                        f"unknown schema tag {tag!r}; expected one of "
                        + ", ".join(SPECS)
                    ]
        if errors:
            for err in errors:
                log.error("schema.invalid", file=path, error=err)
            status = 1
        else:
            log.info("schema.valid", file=path, kind=kind)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
