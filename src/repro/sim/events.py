"""Discrete-event simulator core: execute work DAGs into schedules.

The engines do not ``record()`` sums directly.  They *describe* a batch
as a DAG of :class:`WorkItem` entries in a :class:`BatchWork`
(transfer-in, per-DPU compute chains, result gather, aggregation, ...),
and :class:`EventEngine` executes the description into a
:class:`~repro.sim.schedule.BatchSchedule`: an event heap drives a
simulated clock over exclusive FIFO resources (``host_cpu``,
``pim_bus``, ``network``, one lane per ``dpu/<i>``) with
outstanding-request tracking.  On one engine batch each item starts at
the max of its dependencies' ends clamped against its lane — the
emission-order placement ``tests/sim/golden_timings.json`` and
``golden_spans.json`` pin bit-for-bit.  Across batches
(:func:`execute_stream`) contention *emerges from queuing*: batch N+1's
transfer-in waits behind batch N's bus occupancy, and faults can
interrupt a span mid-flight (:meth:`EventEngine kills <EventEngine.run>`).

Determinism: the heap orders events by ``(time, kind, seq)`` where
``kind`` ranks completions before kills before arrivals and ``seq`` is a
monotone push counter, so ties never consult iteration order of a set or
any wall-clock/RNG source (simlint DET001/DET002 apply to this module).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.hardware.counters import StageCycles
from repro.sim.schedule import (
    STAGE_AGGREGATE,
    STAGE_RETRY,
    STAGE_TRANSFER_IN,
    BatchSchedule,
)
from repro.sim.span import HOST_AGG, HOST_CPU, PIM_BUS, SpanTrace

#: How consecutive batches of a stream share the pipeline.
OVERLAP_MODES = ("sequential", "double_buffer")

#: Event-kind ranks: completions settle before kills fence a lane, and
#: both precede new arrivals at the same simulated instant.
_COMPLETE, _KILL, _ARRIVE = 0, 1, 2


@dataclass(frozen=True)
class WorkItem:
    """One unit of modeled work on one exclusive resource.

    ``deps`` are uids of items that must finish first; ``pinned`` marks
    an item that must run *immediately* after its dependency on the same
    lane (retry traffic stays contiguous with the transfer it repairs,
    even when another batch's transfer is already queued).
    """

    uid: int
    resource: str
    stage: str
    duration: float
    cycles: float | None = None
    counters: object | None = None
    deps: tuple[int, ...] = ()
    pinned: bool = False
    batch: int = 0
    #: Query trace ids this item does work for (observability only —
    #: never consulted by the event core's timing arithmetic).
    trace_ids: tuple[str, ...] = ()
    #: Earliest simulated time the item may become ready (arrival-time
    #: work release: a request cannot be processed before it arrives).
    #: 0.0 — the default everywhere outside the serving frontend —
    #: reproduces the historical behavior bit-for-bit.
    earliest: float = 0.0


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
class LaneStats:
    """Outstanding-request bookkeeping for one resource lane."""

    dispatched: int = 0
    #: Peak of in-flight + queued requests observed on the lane.
    peak_outstanding: int = 0
    #: Arrivals that found the lane busy and had to queue.
    queued: int = 0
    #: Items cancelled because the lane was fenced by a fault.
    cancelled: int = 0


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
class BatchWork:
    """A batch's work description: the DAG the event core consumes."""

    dpu_frequency_hz: float | None = None
    items: list[WorkItem] = field(default_factory=list)
    #: Stream position stamped on every item (trace span ids are scoped
    #: by it).  :func:`execute_stream` re-stamps with the merge order,
    #: which services keep equal to this by appending batches in order.
    batch: int = 0

    def work(
        self,
        resource: str,
        stage: str,
        duration_s: float,
        *,
        cycles: float | None = None,
        counters: object | None = None,
        after: Iterable[int | None] = (),
        pinned: bool = False,
        trace_ids: Iterable[str] = (),
    ) -> int:
        """Append one work item; returns its uid for later ``after=``."""
        deps = tuple(d for d in after if d is not None)
        uid = len(self.items)
        for d in deps:
            if not 0 <= d < uid:
                raise ConfigError(f"work item {uid} depends on unknown item {d}")
        self.items.append(
            WorkItem(
                uid=uid,
                resource=resource,
                stage=stage,
                duration=duration_s,
                cycles=cycles,
                counters=counters,
                deps=deps,
                pinned=pinned,
                batch=self.batch,
                trace_ids=tuple(trace_ids),
            )
        )
        return uid

    def work_dpu_stages(
        self,
        dpu_id: int,
        stage_cycles: StageCycles,
        *,
        after: Iterable[int | None] = (),
        trace_ids: Iterable[str] = (),
    ) -> int:
        """One chained item per kernel stage on a DPU lane.

        Mirrors :meth:`BatchSchedule.record_dpu_stages`: one item per
        :class:`StageCycles` field, durations derived from cycles at the
        configured frequency.  Returns the uid of the chain's last item
        (what downstream work such as the result gather depends on).
        """
        if self.dpu_frequency_hz is None:
            raise ConfigError("work description has no dpu_frequency_hz")
        from repro.sim.span import dpu_resource

        resource = dpu_resource(dpu_id)
        ids = tuple(trace_ids)
        prev: int | None = None
        for name, cyc in stage_cycles.as_dict().items():
            prev = self.work(
                resource,
                name,
                cyc / self.dpu_frequency_hz,
                cycles=cyc,
                counters=stage_cycles,
                after=list(after) if prev is None else (prev,),
                trace_ids=ids,
            )
        if prev is None:
            raise ConfigError("StageCycles produced no stages")
        return prev

    # --- Execution -----------------------------------------------------

    def execute(self) -> BatchSchedule:
        """Run the description through the event core."""
        engine = EventEngine(dpu_frequency_hz=self.dpu_frequency_hz)
        return engine.run(self.items)


@dataclass
class EventEngine:
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
    ) -> BatchSchedule:
        """Execute ``items`` and return the resulting schedule.

        ``kills_at`` fences resources at absolute simulated times;
        ``kills_on_batch`` maps a batch index to resources that die when
        that batch's first ``pim_bus`` item starts (the host discovers a
        dead device when it next drives the bus).  A kill truncates the
        victim's in-flight span — the truncated duration is re-derived
        from whole cycles at the configured frequency so cycle
        conservation (simsan SAN-LEDGER) holds — and cancels everything
        queued or later arriving on the lane; dependents of cancelled
        work proceed at the fence time (graceful degradation, not
        deadlock).
        """
        by_uid: dict[int, WorkItem] = {}
        for item in items:
            if item.uid in by_uid:
                raise ConfigError(f"duplicate work item uid {item.uid}")
            by_uid[item.uid] = item

        schedule = BatchSchedule(dpu_frequency_hz=self.dpu_frequency_hz)
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


def execute_stream(
    works: Sequence[BatchWork],
    *,
    overlap: str = "double_buffer",
    kills: Mapping[str, int] | None = None,
    dpu_frequency_hz: float | None = None,
    engine: EventEngine | None = None,
    releases: Sequence[float] | None = None,
) -> BatchSchedule:
    """Execute a stream of batch descriptions through one event engine.

    All batches' DAGs run in a single simulation; the overlap mode only
    sets the cross-batch dependency shape, and the interleaving emerges
    from lane queuing (the paper's Fig 16 batching model).

    * ``sequential`` — batch i's roots depend on every sink of batch
      i-1 (a true barrier: the makespan is the sum of the per-batch
      makespans, up to rounding of the shifted span times).
    * ``double_buffer`` — batch i's roots depend only on batch i-1's
      last inbound bus item (transfer-in + retries), so host prep and
      the next transfer-in overlap DPU execution and queue behind
      genuine bus occupancy.  Aggregation moves to the ``host_agg``
      lane (the 2x Xeon host has cores to spare for the merge).

    ``kills`` maps a resource (e.g. ``dpu/3``) to the batch index at
    whose first bus activity it dies — the mid-flight fault injection
    point used by :class:`repro.faults.FaultState` deaths.

    ``releases`` optionally supplies one release time per batch
    (arrival-time work release, used by the serving frontend): no item
    of batch ``b`` may become ready before ``releases[b]``, so a batch
    submitted at simulated time *t* starts no earlier than *t* even on
    an idle pipeline, and queue-wait beyond that point emerges from
    genuine lane contention.  Release times must be non-negative,
    finite and non-decreasing (batches close in time order).

    Pass an ``engine`` to keep a handle on the run's
    :attr:`EventEngine.lane_stats` (queue-depth telemetry) after the
    schedule is returned; by default a throwaway engine is used.
    """
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
        engine = EventEngine(dpu_frequency_hz=freq)
    elif engine.dpu_frequency_hz is None:
        engine.dpu_frequency_hz = freq
    return engine.run(merged, kills_on_batch=kills_on_batch)
