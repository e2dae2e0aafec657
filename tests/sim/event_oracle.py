"""The object-based event core, frozen as a test oracle.

This is the discrete-event engine as it stood before the columnar core
(:mod:`repro.sim.events`): one :class:`~repro.sim.WorkItem` object per
item, ``dataclasses.replace`` per item when a stream is merged, and one
:class:`~repro.sim.Span` plus :class:`~repro.sim.SpanTrace` recorded per
span through the lane-clamping ``record_at``.  The differential tests in
``test_stream_properties.py`` pin the columnar core to it span by span
and lane stat by lane stat.  :func:`loop_dpu_stages` is the per-DPU
emission loop :meth:`BatchWork.work_dpu_stages` replaced.  Test-only,
like ``tests/core/list_scheduler.py``.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.hardware.counters import STAGE_FIELDS
from repro.sim import (
    HOST_AGG,
    HOST_CPU,
    OVERLAP_MODES,
    PIM_BUS,
    STAGE_AGGREGATE,
    STAGE_RETRY,
    STAGE_TRANSFER_IN,
    BatchWork,
    LaneStats,
    Span,
    SpanTrace,
    WorkItem,
    dpu_resource,
)

_COMPLETE, _KILL, _ARRIVE = 0, 1, 2


class OracleSchedule:
    """Per-lane span lists, lanes in creation order (``record_at`` clamp)."""

    def __init__(self) -> None:
        self.timelines: dict[str, list[Span]] = {}

    def timeline(self, resource: str) -> list[Span]:
        return self.timelines.setdefault(resource, [])

    def record_at(self, resource, stage, start_s, duration_s, *, cycles=None,
                  counters=None, trace=None) -> None:
        spans = self.timeline(resource)
        end = spans[-1].t1 if spans else 0.0
        spans.append(
            Span(resource, stage, max(start_s, end), duration_s, cycles,
                 counters, trace)
        )


def _item_trace(
    item: WorkItem, *, wait_s: float, killed: bool = False
) -> SpanTrace:
    """Causal metadata for the span an item produced (rides alongside)."""
    return SpanTrace(
        uid=item.uid,
        parents=item.deps,
        trace_ids=item.trace_ids,
        batch=item.batch,
        wait_s=wait_s,
        killed=killed,
    )


@dataclass
class _Lane:
    """Mutable run-time state of one exclusive FIFO resource."""

    name: str
    end: float = 0.0
    busy_uid: int | None = None
    busy_t0: float = 0.0
    #: Queue wait the in-flight item incurred (ready -> dispatch gap),
    #: captured at start() and consumed when its span is recorded.
    busy_wait: float = 0.0
    #: Min-heap of (ready_time, seq, uid) waiting for the lane.
    queue: list[tuple[float, int, int]] = field(default_factory=list)
    dead: bool = False
    stats: LaneStats = field(default_factory=LaneStats)


@dataclass
class OracleEngine:
    """Heap-driven discrete-event executor over exclusive FIFO lanes.

    After :meth:`run`, ``lane_stats`` holds per-resource
    outstanding-request counters (dispatches, peak queue depth, waits,
    fault cancellations).
    """

    dpu_frequency_hz: float | None = None
    lane_stats: dict[str, LaneStats] = field(default_factory=dict)

    def run(
        self,
        items: Sequence[WorkItem],
        *,
        kills_at: Sequence[tuple[str, float]] = (),
        kills_on_batch: Mapping[int, Sequence[str]] | None = None,
    ) -> "OracleSchedule":
        """Execute hand-built :class:`WorkItem` rows, one object per item."""
        by_uid: dict[int, WorkItem] = {}
        for item in items:
            if item.uid in by_uid:
                raise ConfigError(f"duplicate work item uid {item.uid}")
            by_uid[item.uid] = item

        schedule = OracleSchedule()
        # Create lanes in emission order: downstream views iterate
        # timelines in insertion order, and the pinned lane order
        # (golden_spans.json) is first use in emission order.
        for item in items:
            schedule.timeline(item.resource)

        remaining: dict[int, int] = {u: 0 for u in by_uid}
        dependents: dict[int, list[int]] = {u: [] for u in by_uid}
        for item in items:
            for dep in item.deps:
                if dep not in by_uid:
                    raise ConfigError(
                        f"work item {item.uid} depends on unknown item {dep}"
                    )
                remaining[item.uid] += 1
                dependents[dep].append(item.uid)
        # An item is ready no earlier than its release time (arrival-time
        # work release); dependency completions only push this later.
        ready_time: dict[int, float] = {
            u: by_uid[u].earliest for u in by_uid
        }

        lanes: dict[str, _Lane] = {}

        def lane(name: str) -> _Lane:
            ln = lanes.get(name)
            if ln is None:
                ln = _Lane(name)
                lanes[name] = ln
            return ln

        heap: list[tuple[float, int, int, object]] = []
        seq = 0

        def push(time: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, kind, seq, payload))
            seq += 1

        # Batch-start triggers: the trigger item is the batch's first
        # pim_bus item (fall back to its first item of any kind).
        triggers: dict[int, list[str]] = {}
        if kills_on_batch:
            for b in sorted(kills_on_batch):
                batch_uids = [it.uid for it in items if it.batch == b]
                if not batch_uids:
                    continue
                bus_uids = [
                    u for u in batch_uids if by_uid[u].resource == PIM_BUS
                ]
                pick = min(bus_uids) if bus_uids else min(batch_uids)
                triggers.setdefault(pick, []).extend(kills_on_batch[b])

        done: set[int] = set()
        finished = 0

        def finalize(uid: int, t: float) -> list[int]:
            """Mark ``uid`` complete at ``t``; return newly-ready uids."""
            nonlocal finished
            done.add(uid)
            finished += 1
            newly: list[int] = []
            for dep_uid in dependents[uid]:
                remaining[dep_uid] -= 1
                if ready_time[dep_uid] < t:
                    ready_time[dep_uid] = t
                if remaining[dep_uid] == 0:
                    newly.append(dep_uid)
            return newly

        def settle(uid: int, t: float) -> None:
            """Finalize a cancelled item and queue its dependents."""
            for dep_uid in finalize(uid, t):
                push(ready_time[dep_uid], _ARRIVE, dep_uid)

        def start(uid: int, ready: float) -> None:
            item = by_uid[uid]
            ln = lane(item.resource)
            t0 = max(ready, ln.end)
            ln.busy_uid = uid
            ln.busy_t0 = t0
            ln.busy_wait = t0 - ready
            ln.end = t0 + item.duration
            ln.stats.dispatched += 1
            push(ln.end, _COMPLETE, uid)
            fences = triggers.pop(uid, None)
            if fences:
                for resource in fences:
                    kill(resource, t0)

        def kill(resource: str, at_s: float) -> None:
            ln = lane(resource)
            if ln.dead:
                return
            ln.dead = True
            busy = ln.busy_uid
            if busy is not None and at_s < ln.end:
                item = by_uid[busy]
                t0 = ln.busy_t0
                freq = self.dpu_frequency_hz
                if item.cycles is not None and freq:
                    # Whole cycles retired before the fence; duration is
                    # re-derived from them so duration == cycles / freq
                    # holds exactly on the truncated span.
                    cut = float(
                        min(max(math.floor((at_s - t0) * freq), 0), item.cycles)
                    )
                    if cut > 0.0:
                        schedule.record_at(
                            item.resource,
                            item.stage,
                            t0,
                            cut / freq,
                            cycles=cut,
                            counters=item.counters,
                            trace=_item_trace(
                                item, wait_s=ln.busy_wait, killed=True
                            ),
                        )
                else:
                    cut_s = at_s - t0
                    if cut_s > 0.0:
                        schedule.record_at(
                            item.resource,
                            item.stage,
                            t0,
                            cut_s,
                            counters=item.counters,
                            trace=_item_trace(
                                item, wait_s=ln.busy_wait, killed=True
                            ),
                        )
                ln.busy_uid = None
                ln.end = at_s
                ln.stats.cancelled += 1
                settle(busy, at_s)
            while ln.queue:
                _r, _s, quid = heapq.heappop(ln.queue)
                ln.stats.cancelled += 1
                settle(quid, at_s)

        for item in items:
            if remaining[item.uid] == 0:
                push(item.earliest, _ARRIVE, item.uid)
        for resource, at_s in kills_at:
            push(at_s, _KILL, resource)

        while heap:
            now, kind, _s, payload = heapq.heappop(heap)
            if kind == _KILL:
                assert isinstance(payload, str)
                kill(payload, now)
                continue
            uid = payload
            assert isinstance(uid, int)
            if uid in done:
                continue
            if kind == _ARRIVE:
                item = by_uid[uid]
                ln = lane(item.resource)
                if ln.dead:
                    ln.stats.cancelled += 1
                    settle(uid, now)
                    continue
                outstanding = len(ln.queue) + (1 if ln.busy_uid is not None else 0) + 1
                if outstanding > ln.stats.peak_outstanding:
                    ln.stats.peak_outstanding = outstanding
                if ln.busy_uid is None:
                    start(uid, now)
                else:
                    ln.stats.queued += 1
                    heapq.heappush(ln.queue, (now, seq, uid))
                continue
            # _COMPLETE: record the span (per-lane completion order is
            # start order, so appends never violate the lane clamp).
            item = by_uid[uid]
            ln = lane(item.resource)
            schedule.record_at(
                item.resource,
                item.stage,
                ln.busy_t0,
                item.duration,
                cycles=item.cycles,
                counters=item.counters,
                trace=_item_trace(item, wait_s=ln.busy_wait),
            )
            ln.busy_uid = None
            newly = finalize(uid, now)
            pinned = [
                d
                for d in newly
                if by_uid[d].pinned and by_uid[d].resource == item.resource
            ]
            started_pinned = False
            for d in newly:
                if not started_pinned and pinned and d == min(pinned) and not ln.dead:
                    # Contiguity bundle: the pinned successor preempts
                    # anything queued (retries ride with their transfer).
                    start(d, ready_time[d])
                    started_pinned = True
                else:
                    push(ready_time[d], _ARRIVE, d)
            if not started_pinned and not ln.dead and ln.queue:
                r, _s2, quid = heapq.heappop(ln.queue)
                start(quid, r)

        if finished != len(by_uid):
            stuck = sorted(u for u in by_uid if u not in done)
            raise ConfigError(
                f"event engine deadlock: items {stuck[:8]} never became "
                "ready (dependency cycle?)"
            )
        self.lane_stats = {name: ln.stats for name, ln in lanes.items()}
        return schedule


def oracle_stream(
    works: Sequence[BatchWork],
    *,
    overlap: str = "double_buffer",
    kills: Mapping[str, int] | None = None,
    dpu_frequency_hz: float | None = None,
    engine: OracleEngine | None = None,
    releases: Sequence[float] | None = None,
) -> OracleSchedule:
    """The object-based stream merge (``dataclasses.replace`` per item)."""
    if not works:
        raise ValueError(
            "cannot execute an empty work-description stream; serve at "
            "least one batch first"
        )
    if overlap not in OVERLAP_MODES:
        raise ConfigError(
            f"unknown overlap mode {overlap!r}; expected one of {OVERLAP_MODES}"
        )
    freq = dpu_frequency_hz
    if freq is None:
        for w in works:
            if w.dpu_frequency_hz is not None:
                freq = w.dpu_frequency_hz
                break
    if releases is not None:
        if len(releases) != len(works):
            raise ConfigError(
                f"got {len(releases)} release times for {len(works)} batches"
            )
        prev = 0.0
        for b, t in enumerate(releases):
            if not math.isfinite(t) or t < 0.0:
                raise ConfigError(
                    f"release time for batch {b} must be finite and >= 0, "
                    f"got {t!r}"
                )
            if t < prev:
                raise ConfigError(
                    f"release times must be non-decreasing; batch {b} "
                    f"releases at {t} after {prev}"
                )
            prev = t

    merged: list[WorkItem] = []
    gate: tuple[int, ...] = ()
    for b, w in enumerate(works):
        offset = len(merged)
        release = releases[b] if releases is not None else 0.0
        depended = [False] * len(w.items)
        last_bus: int | None = None
        for item in w.items:
            for d in item.deps:
                depended[d] = True
        for item in w.items:
            deps = tuple(d + offset for d in item.deps)
            if not deps and gate:
                deps = gate
            resource = item.resource
            if (
                overlap == "double_buffer"
                and item.stage == STAGE_AGGREGATE
                and resource == HOST_CPU
            ):
                resource = HOST_AGG
            merged.append(
                replace(
                    item,
                    uid=item.uid + offset,
                    resource=resource,
                    deps=deps,
                    batch=b,
                    earliest=max(item.earliest, release),
                )
            )
            if item.resource == PIM_BUS and item.stage in (
                STAGE_TRANSFER_IN,
                STAGE_RETRY,
            ):
                last_bus = item.uid + offset
        if overlap == "double_buffer" and last_bus is not None:
            gate = (last_bus,)
        else:
            gate = tuple(
                item.uid + offset
                for i, item in enumerate(w.items)
                if not depended[i]
            )

    kills_on_batch: dict[int, list[str]] = {}
    if kills:
        for resource, b in sorted(kills.items()):
            kills_on_batch.setdefault(b, []).append(resource)

    if engine is None:
        engine = OracleEngine(dpu_frequency_hz=freq)
    elif engine.dpu_frequency_hz is None:
        engine.dpu_frequency_hz = freq
    return engine.run(merged, kills_on_batch=kills_on_batch)


def loop_dpu_stages(
    work: BatchWork,
    dpus,
    stage_cycles,
    counters,
    *,
    after=(),
    trace_ids=(),
    trace_ptr=None,
    trace_idx=None,
) -> list[int]:
    """``BatchWork.work_dpu_stages`` as one chain per DPU, one item per
    stage: each chain's ids interned through the work's per-call id
    cache, each item appended alone."""
    freq = work.dpu_frequency_hz
    if freq is None:
        raise ConfigError("work description has no dpu_frequency_hz")
    tails = []
    for j, d in enumerate(dpus):
        if trace_ptr is None:
            ids = tuple(trace_ids)
        else:
            lo, hi = trace_ptr[j], trace_ptr[j + 1]
            ids = tuple(trace_ids[i] for i in trace_idx[lo:hi])
        tids = work._trace_offsets(ids)
        deps = work._deps(after)
        for name, cyc in zip(STAGE_FIELDS, stage_cycles[j]):
            last = work._add(
                dpu_resource(d), name, cyc / freq, cyc, counters[j], deps, False,
                0.0, tids,
            )
            deps = (last,)
        tails.append(last)
    return tails
