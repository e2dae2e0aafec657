"""Timeline execution core: work DAGs, the event engine, schedules.

Engines describe timed work as a :class:`BatchWork` DAG that the event
core executes into a columnar :class:`BatchSchedule`; hand-timed work
goes through :meth:`BatchSchedule.record` (or the module-level
:func:`record` convenience).  Everything downstream — the legacy
:class:`BatchTiming` scalars, stage breakdowns, Chrome-trace export —
is derived from the schedule.
"""

from repro.sim.events import (
    OVERLAP_MODES,
    BatchWork,
    EventEngine,
    LaneStats,
    WorkItem,
    execute_stream,
)
from repro.sim.schedule import (
    STAGE_AGGREGATE,
    STAGE_CANCEL,
    STAGE_CLUSTER_FILTER,
    STAGE_RETRY,
    STAGE_SCHEDULE,
    STAGE_SHED,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchSchedule,
    BatchTiming,
)
from repro.sim.span import (
    HOST_AGG,
    HOST_CPU,
    NETWORK,
    PIM_BUS,
    ResourceTimeline,
    Span,
    SpanTrace,
    dpu_resource,
    is_dpu_resource,
)
from repro.sim.trace import chrome_trace, validate_chrome_trace


def record(
    schedule: BatchSchedule,
    resource: str,
    stage: str,
    duration_s: float,
    *,
    cycles: float | None = None,
    counters: object | None = None,
) -> Span:
    """Record one span of timed work onto ``schedule``.

    This is the sanctioned way for engine code to account wall-clock
    time (simlint rule TIME001 forbids hand-summing ``*_s`` scalars in
    the online pipelines).
    """
    return schedule.record(
        resource, stage, duration_s, cycles=cycles, counters=counters
    )


__all__ = [
    "BatchSchedule",
    "BatchTiming",
    "BatchWork",
    "EventEngine",
    "HOST_AGG",
    "HOST_CPU",
    "LaneStats",
    "NETWORK",
    "OVERLAP_MODES",
    "PIM_BUS",
    "ResourceTimeline",
    "STAGE_AGGREGATE",
    "STAGE_CANCEL",
    "STAGE_CLUSTER_FILTER",
    "STAGE_RETRY",
    "STAGE_SCHEDULE",
    "STAGE_SHED",
    "STAGE_TRANSFER_IN",
    "STAGE_TRANSFER_OUT",
    "Span",
    "SpanTrace",
    "WorkItem",
    "chrome_trace",
    "dpu_resource",
    "execute_stream",
    "is_dpu_resource",
    "record",
    "validate_chrome_trace",
]
