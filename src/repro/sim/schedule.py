"""Per-batch schedules: the collection of resource timelines for one batch.

A :class:`BatchSchedule` owns one :class:`ResourceTimeline` per resource
and exposes the ``record`` API the engines use to emit timed work.  The
legacy additive-scalar view (:class:`BatchTiming`) is *derived* from the
schedule: summing span durations in append order reproduces the old
accumulation bit-for-bit, and the DPU makespan is derived in cycle space
exactly as the engines used to compute it (``max(busy_cycles) / f``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.hardware.counters import StageCycles
from repro.sim.span import (
    ResourceTimeline,
    Span,
    SpanTrace,
    dpu_resource,
    is_dpu_resource,
)

#: Stage names with a dedicated field in the derived :class:`BatchTiming`.
STAGE_CLUSTER_FILTER = "cluster_filter"
STAGE_SCHEDULE = "schedule"
STAGE_TRANSFER_IN = "transfer_in"
STAGE_TRANSFER_OUT = "transfer_out"
STAGE_AGGREGATE = "aggregate"
#: Recovery traffic: backoff + re-transmission after a transient
#: transfer fault (``repro.faults``).  Charged on the ``pim_bus`` lane
#: so Chrome traces and utilization reports show the recovery cost.
STAGE_RETRY = "retry"
#: Serving-frontend overload responses (``repro.serving``), charged on
#: the ``host_cpu`` lane so shed/timed-out requests still own a span:
#: ``shed`` is an intake rejection (admission control turned the request
#: away), ``cancel`` is a queued request timed out past its deadline.
#: Neither has a :class:`BatchTiming` field — they are request-plane
#: cost, not batch-pipeline stages.
STAGE_SHED = "shed"
STAGE_CANCEL = "cancel"


@dataclass
class BatchTiming:
    """Where one batch's wall-clock time went (modeled seconds).

    Historically the engines accumulated these six scalars directly;
    they are now derived from a :class:`BatchSchedule` via
    :meth:`BatchSchedule.derive_batch_timing` and kept as the stable
    reporting surface (``total_s`` is the strict-sequential wall time).
    """

    host_filter_s: float = 0.0
    host_schedule_s: float = 0.0
    transfer_in_s: float = 0.0
    dpu_makespan_s: float = 0.0
    transfer_out_s: float = 0.0
    host_aggregate_s: float = 0.0
    # Fault-recovery traffic (retried transfers + backoff).  Strictly
    # zero when no FaultPlan is injected; appended last in total_s so
    # fault-free totals stay bit-identical (x + 0.0 == x).
    retry_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (
            self.host_filter_s
            + self.host_schedule_s
            + self.transfer_in_s
            + self.dpu_makespan_s
            + self.transfer_out_s
            + self.host_aggregate_s
            + self.retry_s
        )


@dataclass
class BatchSchedule:
    """All resource timelines of one simulated batch (or a multi-batch stream)."""

    dpu_frequency_hz: float | None = None
    timelines: dict[str, ResourceTimeline] = field(default_factory=dict)

    def timeline(self, resource: str) -> ResourceTimeline:
        """The timeline for ``resource``, created on first use."""
        tl = self.timelines.get(resource)
        if tl is None:
            tl = ResourceTimeline(resource)
            self.timelines[resource] = tl
        return tl

    # --- Recording -----------------------------------------------------

    def record(
        self,
        resource: str,
        stage: str,
        duration_s: float,
        *,
        cycles: float | None = None,
        counters: object | None = None,
        trace: SpanTrace | None = None,
    ) -> Span:
        """Append a span at the resource's current end."""
        tl = self.timeline(resource)
        span = Span(
            resource=resource,
            stage=stage,
            t0=tl.end,
            duration=duration_s,
            cycles=cycles,
            counters=counters,
            trace=trace,
        )
        tl.append(span)
        return span

    def record_at(
        self,
        resource: str,
        stage: str,
        start_s: float,
        duration_s: float,
        *,
        cycles: float | None = None,
        counters: object | None = None,
        trace: SpanTrace | None = None,
    ) -> Span:
        """Append a span starting at ``start_s``, or at the resource's
        end if it is still busy then (resource-contention clamp)."""
        tl = self.timeline(resource)
        span = Span(
            resource=resource,
            stage=stage,
            t0=max(start_s, tl.end),
            duration=duration_s,
            cycles=cycles,
            counters=counters,
            trace=trace,
        )
        tl.append(span)
        return span

    def record_dpu_stages(
        self,
        dpu_id: int,
        stage_cycles: StageCycles,
        *,
        start_s: float | None = None,
    ) -> list[Span]:
        """Emit one span per kernel stage onto a DPU's lane.

        Spans carry their cycle charge so derived makespans stay in
        cycle space; they are recorded in :class:`StageCycles` field
        order so the lane's ``busy_cycles`` replicates ``.total``.
        """
        if self.dpu_frequency_hz is None:
            raise ConfigError("schedule has no dpu_frequency_hz for DPU spans")
        resource = dpu_resource(dpu_id)
        first_start = start_s if start_s is not None else self.timeline(resource).end
        spans = []
        for name, cyc in stage_cycles.as_dict().items():
            spans.append(
                self.record_at(
                    resource,
                    name,
                    first_start,
                    cyc / self.dpu_frequency_hz,
                    cycles=cyc,
                    counters=stage_cycles,
                )
            )
        return spans

    # --- Aggregate views -----------------------------------------------

    @property
    def makespan(self) -> float:
        """End of the last span across all resources."""
        ends = [tl.end for tl in self.timelines.values()]
        return max(ends) if ends else 0.0

    def resources(self) -> list[str]:
        return list(self.timelines)

    def dpu_timelines(self) -> list[ResourceTimeline]:
        return [tl for r, tl in self.timelines.items() if is_dpu_resource(r)]

    def stage_seconds(self, stage: str) -> float:
        """Summed duration of ``stage`` spans across all resources."""
        total = 0.0
        for tl in self.timelines.values():
            for span in tl.spans:
                if span.stage == stage:
                    total += span.duration
        return total

    def derive_batch_timing(self) -> BatchTiming:
        """The legacy six-scalar view, bit-identical to the old sums."""
        dpu_cycles = [tl.busy_cycles() for tl in self.dpu_timelines()]
        if dpu_cycles:
            if self.dpu_frequency_hz is None:
                raise ConfigError("schedule has DPU spans but no frequency")
            makespan = max(dpu_cycles) / self.dpu_frequency_hz
        else:
            makespan = 0.0
        return BatchTiming(
            host_filter_s=self.stage_seconds(STAGE_CLUSTER_FILTER),
            host_schedule_s=self.stage_seconds(STAGE_SCHEDULE),
            transfer_in_s=self.stage_seconds(STAGE_TRANSFER_IN),
            dpu_makespan_s=makespan,
            transfer_out_s=self.stage_seconds(STAGE_TRANSFER_OUT),
            host_aggregate_s=self.stage_seconds(STAGE_AGGREGATE),
            retry_s=self.stage_seconds(STAGE_RETRY),
        )

    def worst_dpu_stage_cycles(self) -> StageCycles:
        """Stage cycles of the makespan DPU (first strict max, matching
        the legacy ``np.argmax`` over per-DPU busy cycles)."""
        worst: ResourceTimeline | None = None
        worst_cycles = 0.0
        for tl in self.dpu_timelines():
            busy = tl.busy_cycles()
            if worst is None or busy > worst_cycles:
                worst, worst_cycles = tl, busy
        if worst is None:
            return StageCycles()
        per_stage: dict[str, float] = {}
        for span in worst.spans:
            if span.cycles is not None:
                per_stage[span.stage] = per_stage.get(span.stage, 0.0) + span.cycles
        return StageCycles(**per_stage)

    def to_chrome_trace(self) -> dict:
        """Chrome-trace (Perfetto-loadable) JSON object for this schedule."""
        from repro.sim.trace import chrome_trace

        return chrome_trace(self)
