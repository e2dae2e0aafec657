"""Per-batch schedules: the spans of one batch (or stream), as columns.

A :class:`BatchSchedule` keeps its spans in parallel per-span columns
(lane, stage, t0, duration, cycles, counters, queue wait, killed flag
and the index of the work item that produced the span) and exposes the
``record`` API for hand-timed work.  The legacy additive-scalar view
(:class:`BatchTiming`) is *derived* from the columns: summing span
durations in lane order, left to right (:func:`sequential_sums`),
reproduces the old accumulation bit-for-bit, and the DPU makespan is
derived in cycle space exactly as the engines used to compute it
(``max(busy_cycles) / f``).  :attr:`BatchSchedule.timelines` is the row
view — :class:`ResourceTimeline` and :class:`Span` objects — built on
first access for the consumers that want rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.hardware.counters import StageCycles
from repro.sim.span import (
    ResourceTimeline,
    Span,
    SpanList,
    SpanTrace,
    dpu_resource,
    is_dpu_resource,
    sequential_sums,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import BatchWork

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


def _read_only(values, dtype=None) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class SpanColumns:
    """Read-only NumPy copy of a schedule's columns, in record order.

    Within one lane record order is time order; ``lane_order`` is the
    stable lane-major permutation the legacy per-timeline loops walked.
    ``cycles`` is 0.0 where ``has_cycles`` is False; ``trace_csr`` is
    ``(ptr, idx, names)``: the spans' trace ids in CSR form, as offsets
    into ``names`` (none for recorded, untraced spans).
    """

    def __init__(self, schedule: "BatchSchedule") -> None:
        s = schedule
        # The lazy columns' sources, not the schedule: its cache holds
        # this object, and a back reference would make every schedule
        # cyclic garbage.
        self._cycles, self._src, self._dag = s._span_cycles, s._span_src, s._span_dag
        self.lanes, self.stages = tuple(s._span_lanes), tuple(s._span_stages)
        self.lane = _read_only(s._span_lane)
        self.stage = _read_only(s._span_stage)
        self.t0 = _read_only(s._span_t0)
        self.duration = _read_only(s._span_dur)
        self.t1 = _read_only(self.t0 + self.duration)
        self.wait = _read_only(s._span_wait)

    @cached_property
    def has_cycles(self) -> np.ndarray:
        return _read_only([c is not None for c in self._cycles], bool)

    @cached_property
    def cycles(self) -> np.ndarray:
        return _read_only([0.0 if c is None else c for c in self._cycles], np.float64)

    @cached_property
    def lane_order(self) -> np.ndarray:
        return _read_only(np.argsort(self.lane, kind="stable"))

    @cached_property
    def trace_csr(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        dag = self._dag
        if dag is None:
            return np.zeros(len(self.lane) + 1, np.intp), np.zeros(0, np.intp), []
        src = np.array(self._src)
        item_ptr = np.array(dag._item_tid_ptr)
        lo = np.where(src >= 0, item_ptr[src], 0)
        counts = np.where(src >= 0, item_ptr[src + 1], 0) - lo
        ptr = np.concatenate(([0], np.cumsum(counts)))
        idx = np.array(dag._item_tids)[np.repeat(lo - ptr[:-1], counts) + np.arange(ptr[-1])]
        return _read_only(ptr), _read_only(idx), list(dag._item_trace_ids)

    def lane_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-lane sequential sums of ``values`` (one per span)."""
        return sequential_sums(values, self.lane, len(self.lanes))


class BatchSchedule:
    """All spans of one simulated batch (or a multi-batch stream).

    The event core (:mod:`repro.sim.events`) writes the columns directly
    and keeps the work DAG it ran, which supplies each span's uid,
    batch, parents and trace ids on demand; hand-timed work goes
    through :meth:`record` / :meth:`record_at` and is untraced.
    """

    def __init__(self, dpu_frequency_hz: float | None = None) -> None:
        self.dpu_frequency_hz = dpu_frequency_hz
        #: Lane and stage name -> index; lanes in lane order (first use
        #: in emission order).
        self._span_lanes: dict[str, int] = {}
        self._span_stages: dict[str, int] = {}
        self._span_lane = array("q")
        self._span_stage = array("q")
        self._span_t0 = array("d")
        self._span_dur = array("d")
        self._span_cycles: list[float | None] = []
        self._span_counters: list[object | None] = []
        self._span_wait = array("d")
        self._span_killed: list[bool] = []
        #: Index of the producing item in ``_span_dag``; -1 = recorded.
        self._span_src = array("q")
        self._span_dag: BatchWork | None = None
        self._cache: dict[str, object] = {}

    # --- Recording -----------------------------------------------------

    def timeline(self, resource: str) -> ResourceTimeline:
        """The timeline for ``resource``, created on first use."""
        if resource not in self._span_lanes:
            self._span_lanes[resource] = len(self._span_lanes)
            self._cache.clear()
        return self.timelines[resource]

    def _record(self, resource, stage, start_s, duration_s, cycles, counters) -> Span:
        lane = self._span_lanes.setdefault(resource, len(self._span_lanes))
        ends = [t + d for k, t, d in zip(self._span_lane, self._span_t0, self._span_dur)
                if k == lane]
        end = ends[-1] if ends else 0.0
        span = Span(resource, stage, end if start_s is None else max(start_s, end),
                    duration_s, cycles, counters)
        self._span_lane.append(lane)
        self._span_stage.append(self._span_stages.setdefault(stage, len(self._span_stages)))
        self._span_t0.append(span.t0)
        self._span_dur.append(duration_s)
        self._span_cycles.append(cycles)
        self._span_counters.append(counters)
        self._span_wait.append(0.0)
        self._span_killed.append(False)
        self._span_src.append(-1)
        self._cache.clear()
        return span

    def record(
        self,
        resource: str,
        stage: str,
        duration_s: float,
        *,
        cycles: float | None = None,
        counters: object | None = None,
    ) -> Span:
        """Append a span at the resource's current end."""
        return self._record(resource, stage, None, duration_s, cycles, counters)

    def record_at(
        self,
        resource: str,
        stage: str,
        start_s: float,
        duration_s: float,
        *,
        cycles: float | None = None,
        counters: object | None = None,
    ) -> Span:
        """Append a span starting at ``start_s``, or at the resource's
        end if it is still busy then (resource-contention clamp)."""
        return self._record(resource, stage, start_s, duration_s, cycles, counters)

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
        freq, resource = self.dpu_frequency_hz, dpu_resource(dpu_id)
        return [
            self._record(resource, name, start_s, cyc / freq, cyc, stage_cycles)
            for name, cyc in stage_cycles.as_dict().items()
        ]

    # --- Views -----------------------------------------------------------

    def _cached(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def columns(self) -> SpanColumns:
        """The read-only column view (rebuilt after each record)."""
        return self._cached("columns", lambda: SpanColumns(self))

    @property
    def timelines(self) -> dict[str, ResourceTimeline]:
        """Per-lane :class:`ResourceTimeline` rows, in lane order, built
        from the columns on first access (their ``spans`` are read-only:
        record through this class)."""
        return self._cached("timelines", self._build_timelines)

    def _build_timelines(self) -> dict[str, ResourceTimeline]:
        names, stages = list(self._span_lanes), list(self._span_stages)
        dag = self._span_dag
        trace_names = list(dag._item_trace_ids) if dag is not None else []
        memo: dict = {}
        rows: list[list[Span]] = [[] for _ in names]
        for k, lane in enumerate(self._span_lane):
            trace = None
            if self._span_src[k] >= 0:
                uid, parents, trace_ids, batch = dag._identity(
                    self._span_src[k], trace_names, memo
                )
                trace = SpanTrace(uid, parents, trace_ids, batch,
                                  self._span_wait[k], self._span_killed[k])
            rows[lane].append(Span(
                names[lane], stages[self._span_stage[k]], self._span_t0[k],
                self._span_dur[k], self._span_cycles[k], self._span_counters[k],
                trace,
            ))
        return {n: ResourceTimeline(n, SpanList(r)) for n, r in zip(names, rows)}

    @property
    def makespan(self) -> float:
        """End of the last span across all resources."""
        t1 = self.columns().t1
        return float(t1.max()) if t1.size else 0.0

    def resources(self) -> list[str]:
        return list(self._span_lanes)

    def dpu_timelines(self) -> list[ResourceTimeline]:
        return [tl for r, tl in self.timelines.items() if is_dpu_resource(r)]

    def stage_seconds(self, stage: str) -> float:
        """Summed duration of ``stage`` spans across all resources."""
        return self._stage_sums().get(stage, 0.0)

    def _stage_sums(self) -> dict[str, float]:
        """Each stage's summed duration, lane by lane in span order."""
        def build():
            c = self.columns()
            o = c.lane_order
            sums = sequential_sums(c.duration[o], c.stage[o], len(c.stages))
            return dict(zip(c.stages, sums.tolist()))
        return self._cached("stage_sums", build)

    def _dpu_busy_cycles(self) -> list[tuple[int, float]]:
        """(lane, busy cycles) of every DPU lane, in lane order."""
        def build():
            c = self.columns()
            busy = sequential_sums(c.cycles[c.has_cycles], c.lane[c.has_cycles],
                                   len(c.lanes)).tolist()
            return [(k, busy[k]) for k, r in enumerate(c.lanes) if is_dpu_resource(r)]
        return self._cached("dpu_busy", build)

    def derive_batch_timing(self) -> BatchTiming:
        """The legacy six-scalar view, bit-identical to the old sums."""
        dpu_cycles = [busy for _lane, busy in self._dpu_busy_cycles()]
        if dpu_cycles:
            if self.dpu_frequency_hz is None:
                raise ConfigError("schedule has DPU spans but no frequency")
            makespan = max(dpu_cycles) / self.dpu_frequency_hz
        else:
            makespan = 0.0
        sums = self._stage_sums()
        return BatchTiming(
            host_filter_s=sums.get(STAGE_CLUSTER_FILTER, 0.0),
            host_schedule_s=sums.get(STAGE_SCHEDULE, 0.0),
            transfer_in_s=sums.get(STAGE_TRANSFER_IN, 0.0),
            dpu_makespan_s=makespan,
            transfer_out_s=sums.get(STAGE_TRANSFER_OUT, 0.0),
            host_aggregate_s=sums.get(STAGE_AGGREGATE, 0.0),
            retry_s=sums.get(STAGE_RETRY, 0.0),
        )

    def worst_dpu_stage_cycles(self) -> StageCycles:
        """Stage cycles of the makespan DPU (first strict max, matching
        the legacy ``np.argmax`` over per-DPU busy cycles)."""
        worst: int | None = None
        worst_cycles = 0.0
        for lane, busy in self._dpu_busy_cycles():
            if worst is None or busy > worst_cycles:
                worst, worst_cycles = lane, busy
        if worst is None:
            return StageCycles()
        c = self.columns()
        mask = c.has_cycles & (c.lane == worst)
        sums = sequential_sums(c.cycles[mask], c.stage[mask], len(c.stages)).tolist()
        return StageCycles(**{c.stages[k]: sums[k] for k in np.unique(c.stage[mask]).tolist()})

    def query_windows(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Trace ids owning a span, with their earliest ready time
        (``t0 - wait``) and latest span end: exact ``np.minimum.at`` /
        ``np.maximum.at`` reductions over the trace-id CSR."""
        c = self.columns()
        ptr, idx, names = c.trace_csr
        counts = np.diff(ptr)
        lo = np.full(len(names), np.inf)
        hi = np.full(len(names), -np.inf)
        np.minimum.at(lo, idx, np.repeat(c.t0 - c.wait, counts))
        np.maximum.at(hi, idx, np.repeat(c.t1, counts))
        owned = np.flatnonzero(np.bincount(idx, minlength=len(names)))
        return [names[k] for k in owned.tolist()], lo[owned], hi[owned]

    def to_chrome_trace(self) -> dict:
        """Chrome-trace (Perfetto-loadable) JSON object for this schedule."""
        from repro.sim.trace import chrome_trace

        return chrome_trace(self)
