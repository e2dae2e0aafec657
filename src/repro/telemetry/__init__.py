"""Telemetry: metrics registry, exposition, utilization reports, logging.

The observability layer of the reproduction (ROADMAP: "production-scale
system serving heavy traffic").  Four pieces:

* :mod:`repro.telemetry.registry` — process-wide ``MetricsRegistry``
  with ``Counter`` / ``Gauge`` / fixed-bucket ``Histogram`` families
  (labels supported, fully deterministic);
* :mod:`repro.telemetry.exposition` — Prometheus text format and a
  schema-versioned JSON snapshot, plus well-formedness validators;
* :mod:`repro.telemetry.report` — per-resource utilization and
  critical-path attribution derived from any ``BatchSchedule``;
* :mod:`repro.telemetry.schema` — one spec (field rules plus
  invariants) per schema-tagged record, read by the record makers,
  ``python -m repro.telemetry.schema`` and simsan alike;
* :mod:`repro.telemetry.log` — structured stderr logging (simlint
  OBS001 forbids raw ``print()`` outside the CLI).
"""

from repro.telemetry.exposition import (
    SNAPSHOT_SCHEMA,
    prometheus_text,
    snapshot,
    validate_prometheus_text,
    validate_snapshot,
)
from repro.telemetry.log import StructuredLogger, configure, get_logger
from repro.telemetry.pipeline import (
    observe_batch,
    observe_dma,
    observe_faults,
    observe_lane_occupancy,
    observe_lane_stats,
    observe_query_latencies,
    observe_wram_peak,
)
from repro.telemetry.registry import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    get_registry,
    reset_metrics,
    set_registry,
)
from repro.telemetry.report import (
    ResourceUtilization,
    UtilizationReport,
    critical_path_attribution,
    utilization_report,
)
from repro.telemetry.schema import (
    CHAOS_SCHEMA,
    RESULT_SCHEMA,
    SERVE_SCHEMA,
    make_chaos_record,
    make_result_record,
    make_serve_record,
    validate_chaos_record,
    validate_result_record,
    validate_serve_record,
)

__all__ = [
    "CHAOS_SCHEMA",
    "DEFAULT_SECONDS_BUCKETS",
    "MetricsRegistry",
    "RESULT_SCHEMA",
    "ResourceUtilization",
    "SERVE_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "StructuredLogger",
    "UtilizationReport",
    "configure",
    "critical_path_attribution",
    "get_logger",
    "get_registry",
    "make_chaos_record",
    "make_result_record",
    "make_serve_record",
    "observe_batch",
    "observe_dma",
    "observe_faults",
    "observe_lane_occupancy",
    "observe_lane_stats",
    "observe_query_latencies",
    "observe_wram_peak",
    "prometheus_text",
    "reset_metrics",
    "set_registry",
    "snapshot",
    "utilization_report",
    "validate_chaos_record",
    "validate_prometheus_text",
    "validate_result_record",
    "validate_serve_record",
    "validate_snapshot",
]
