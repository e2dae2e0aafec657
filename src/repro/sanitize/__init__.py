"""simsan — timeline race detector + determinism sanitizer.

Layer 1 (this package): a dynamic validator over recorded
:class:`~repro.sim.schedule.BatchSchedule` objects, exported Chrome
traces and schema-tagged records.  It detects exclusive-resource
double-booking, happens-before violations, numeric anomalies and
conservation mismatches between span sums and the derived ledgers —
each class with its own finding code (see
:mod:`repro.sanitize.findings`).  A tagged record is checked against its
one spec in :data:`repro.telemetry.schema.SPECS`, the table the schema
CLI validates with.

Layer 2 lives in :mod:`repro.lint` (rules DET001/DET002/SCHED001): the
static half of the same discipline, keeping the *source* of the
simulator deterministic and span-honest.

Entry points: ``python -m repro.cli sanitize FILE...`` for files, the
``REPRO_SANITIZE=1`` environment flag for per-batch engine checks, and
the functions below for tests.
"""

from repro.sanitize.checks import (
    TRACE_RTOL,
    check_lanes,
    check_trace_partition,
    collect_trace_lanes,
    sanitize_chrome_trace,
    sanitize_schedule,
    schedule_lanes,
)
from repro.sanitize.findings import (
    ALL_CODES,
    SAN_LEDGER,
    SAN_NUMERIC,
    SAN_ORDER,
    SAN_OVERLAP,
    SAN_SCHEMA,
    SAN_TRACE,
    SanFinding,
    with_source,
)
from repro.sanitize.hook import (
    ENV_VAR,
    debug_sanitize_schedule,
    debug_sanitize_trace,
    sanitize_enabled,
)
from repro.sanitize.records import (
    SANITIZE_SCHEMA,
    detect_kind,
    make_sanitize_record,
    sanitize_chaos_record,
    sanitize_golden_timings,
    sanitize_payload,
    sanitize_result_record,
    sanitize_serve_record,
    sanitize_trace_record,
    structure_findings,
)

__all__ = [
    "ALL_CODES",
    "ENV_VAR",
    "SANITIZE_SCHEMA",
    "SAN_LEDGER",
    "SAN_NUMERIC",
    "SAN_ORDER",
    "SAN_OVERLAP",
    "SAN_SCHEMA",
    "SAN_TRACE",
    "SanFinding",
    "TRACE_RTOL",
    "check_lanes",
    "check_trace_partition",
    "collect_trace_lanes",
    "debug_sanitize_schedule",
    "debug_sanitize_trace",
    "detect_kind",
    "make_sanitize_record",
    "sanitize_chaos_record",
    "sanitize_chrome_trace",
    "sanitize_enabled",
    "sanitize_golden_timings",
    "sanitize_payload",
    "sanitize_result_record",
    "sanitize_schedule",
    "sanitize_serve_record",
    "sanitize_trace_record",
    "schedule_lanes",
    "structure_findings",
    "with_source",
]
