"""Discrete-event simulator core: execute work DAGs into schedules.

The engines do not ``record()`` sums directly.  They *describe* a batch
as a DAG of work items in a :class:`BatchWork` (transfer-in, per-DPU
compute chains, result gather, aggregation, ...), and
:class:`EventEngine` executes the description into a
:class:`~repro.sim.schedule.BatchSchedule`: an event heap drives a
simulated clock over exclusive FIFO resources (``host_cpu``,
``pim_bus``, ``network``, one lane per ``dpu/<i>``) with
outstanding-request tracking.  Across batches (:func:`execute_stream`)
contention *emerges from queuing*: batch N+1's transfer-in waits behind
batch N's bus occupancy, and faults can interrupt a span mid-flight
(:meth:`EventEngine kills <EventEngine.run>`).

Within one engine batch no lane ever has a choice (DPUs cannot talk to
each other, so every DPU lane is a private chain): each item starts at
the max of its dependencies' ends — the emission-order placement
``tests/sim/golden_timings.json`` and ``golden_spans.json`` pin
bit-for-bit.  :meth:`EventEngine.run` places such a DAG in one pass
over the items (:func:`_place_without_choice`) and keeps the heap for
every DAG where some lane does choose; both give the same spans lane by
lane, so the record-order contract is per lane.

Both sides are columnar: a work description is parallel per-item lists
(dependencies and trace ids in CSR form), the engine loops over them and
appends each span to the schedule's columns.  :class:`WorkItem` rows
exist only on demand (:attr:`BatchWork.items`) or as hand-built input.

Determinism: the heap orders events by ``(time, kind, seq)`` where
``kind`` ranks completions before kills before arrivals and ``seq`` is a
monotone push counter, so ties never consult iteration order of a set or
any wall-clock/RNG source (simlint DET001/DET002 apply to this module).
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.hardware.counters import STAGE_FIELDS
from repro.sim.schedule import (
    STAGE_AGGREGATE,
    STAGE_RETRY,
    STAGE_TRANSFER_IN,
    BatchSchedule,
)
from repro.sim.span import HOST_AGG, HOST_CPU, PIM_BUS, dpu_resource

#: How consecutive batches of a stream share the pipeline.
OVERLAP_MODES = ("sequential", "double_buffer")

#: Event-kind ranks: completions settle before kills fence a lane, and
#: both precede new arrivals at the same simulated instant.
_COMPLETE, _KILL, _ARRIVE = 0, 1, 2


def _csr_take(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[j] .. starts[j] + counts[j] - 1`` for every j,
    concatenated."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(
        int(counts.sum())
    )


@dataclass(frozen=True)
class WorkItem:
    """One unit of modeled work on one exclusive resource (a row view).

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


class BatchWork:
    """A batch's work description: the DAG the event core consumes.

    Items are parallel columns: resource and stage indices into the
    name tables (first use in emission order), duration, cycles
    (``None`` when the item has no cycle charge), counters, pinned flag,
    release time, and dependencies and trace ids in CSR form — trace
    ids as offsets into one per-work id table.  An item's uid is its
    index; its batch is :attr:`batch` except in packed rows and merged
    streams, which carry one per item.  A merged stream also has
    *barriers*: dependency ``len(self) + k`` stands for every item of
    ``_item_barriers[k]``, so a batch's roots wait on the previous
    batch's sinks through one node, not one edge per (root, sink) pair.
    """

    def __init__(self, dpu_frequency_hz: float | None = None, batch: int = 0):
        self.dpu_frequency_hz = dpu_frequency_hz
        #: Stream position stamped on every item (trace span ids are
        #: scoped by it).  :func:`execute_stream` re-stamps with the
        #: merge order, which services keep equal to this by appending
        #: batches in order.
        self.batch = batch
        self._item_lanes: dict[str, int] = {}
        self._item_stages: dict[str, int] = {}
        self._item_trace_ids: dict[str, int] = {}
        self._item_res: list[int] = []
        self._item_stage: list[int] = []
        self._item_dur: list[float] = []
        self._item_cycles: list[float | None] = []
        self._item_counters: list[object | None] = []
        self._item_pinned: list[bool] = []
        self._item_earliest: list[float] = []
        self._item_dep_ptr = array("q", [0])
        self._item_deps = array("q")
        self._item_tid_ptr = array("q", [0])
        self._item_tids = array("q")
        self._item_batch: list[int] | None = None
        self._item_barriers: list[list[int]] = []
        self._rows: tuple[WorkItem, ...] | None = None
        self._last_ids: tuple[str, ...] = ()
        self._last_offsets: list[int] = []

    def __len__(self) -> int:
        return len(self._item_res)

    def _trace_offsets(self, trace_ids: Iterable[str]) -> list[int]:
        """Offsets of ``trace_ids`` in the id table (repeats are cached)."""
        ids = trace_ids if type(trace_ids) is tuple else tuple(trace_ids)
        if ids is not self._last_ids:
            table = self._item_trace_ids
            self._last_ids = ids
            self._last_offsets = [table.setdefault(t, len(table)) for t in ids]
        return self._last_offsets

    def _add(self, resource, stage, duration, cycles, counters, deps, pinned,
             earliest, tids, batch=None) -> int:
        if duration < 0:
            raise ConfigError(f"negative work duration {duration} on {resource}")
        n = len(self._item_res)
        lanes, stages = self._item_lanes, self._item_stages
        self._item_res.append(lanes.setdefault(resource, len(lanes)))
        self._item_stage.append(stages.setdefault(stage, len(stages)))
        self._item_dur.append(duration)
        self._item_cycles.append(cycles)
        self._item_counters.append(counters)
        self._item_pinned.append(pinned)
        self._item_earliest.append(earliest)
        self._item_deps.extend(deps)
        self._item_dep_ptr.append(len(self._item_deps))
        self._item_tids.extend(tids)
        self._item_tid_ptr.append(len(self._item_tids))
        if self._item_batch is not None:
            self._item_batch.append(self.batch if batch is None else batch)
        self._rows = None
        return n

    def _deps(self, after: Iterable[int | None]) -> list[int]:
        n = len(self._item_res)
        deps = [d for d in after if d is not None]
        for d in deps:
            if not 0 <= d < n:
                raise ConfigError(f"work item {n} depends on unknown item {d}")
        return deps

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
        return self._add(
            resource, stage, duration_s, cycles, counters, self._deps(after),
            pinned, 0.0, self._trace_offsets(trace_ids),
        )

    def work_dpu_stages(
        self,
        dpus: Sequence[int] | np.ndarray,
        stage_cycles: np.ndarray,
        counters: Sequence[object | None],
        *,
        after: Iterable[int | None] = (),
        trace_ids: Sequence[str] = (),
        trace_ptr: Sequence[int] | np.ndarray | None = None,
        trace_idx: Sequence[int] | np.ndarray | None = None,
    ) -> list[int]:
        """One chain of stage items per DPU lane, every DPU in one call.

        Row j of ``stage_cycles`` holds DPU ``dpus[j]``'s cycles in
        :class:`StageCycles` field order; its chain is one item per
        field, durations derived from cycles at the configured
        frequency, each item after the previous one and the first after
        ``after``.  Chain j's items carry ``counters[j]`` and the trace
        ids ``trace_ids[i]`` for i in
        ``trace_idx[trace_ptr[j]:trace_ptr[j + 1]]`` (all of
        ``trace_ids`` without a CSR).
        Uids, dependencies and the id table come out as one
        :meth:`work` call per item, DPU by DPU, would leave them.
        Returns each chain's last uid (what downstream work such as the
        result gather depends on).
        """
        freq = self.dpu_frequency_hz
        if freq is None:
            raise ConfigError("work description has no dpu_frequency_hz")
        dpus = np.asarray(dpus, dtype=np.int64).reshape(-1)
        cycles = np.asarray(stage_cycles, dtype=np.float64)
        n, w = dpus.shape[0], len(STAGE_FIELDS)
        if cycles.shape != (n, w) or len(counters) != n:
            raise ConfigError(f"{n} DPUs need an ({n}, {w}) stage matrix, {n} counters")
        negative = np.flatnonzero((cycles < 0).any(axis=1))
        if negative.size:
            d = int(dpus[negative[0]])
            raise ConfigError(f"negative work duration on {dpu_resource(d)}")
        deps = self._deps(after)
        if n == 0:
            return []
        if trace_ptr is None:
            trace_ptr = np.arange(n + 1) * len(trace_ids)
            trace_idx = np.tile(np.arange(len(trace_ids)), n)
        ptr = np.asarray(trace_ptr, dtype=np.int64)
        counts = np.diff(ptr)
        # Chain-major query indices; ids new to the table are interned
        # in first-use order.
        queries = np.asarray(trace_idx, dtype=np.int64)[_csr_take(ptr[:-1], counts)]
        table = self._item_trace_ids
        offset = np.array([table.get(t, -1) for t in trace_ids], dtype=np.int64)
        new = queries[offset[queries] < 0]
        if new.size:
            used, first = np.unique(new, return_index=True)
            for i in used[np.argsort(first)].tolist():
                offset[i] = table.setdefault(trace_ids[i], len(table))
        # Every item of chain j carries chain j's ids.
        chain = np.repeat(np.arange(n), w)
        starts = np.cumsum(counts) - counts
        tids = offset[queries][_csr_take(starts[chain], counts[chain])]
        self._item_tids.frombytes(tids.tobytes())
        self._item_tid_ptr.frombytes(
            (len(self._item_tids) - tids.size + np.cumsum(counts[chain])).tobytes()
        )
        # Chain j's first item depends on ``deps``, every other item on
        # its predecessor.
        uid = len(self._item_res) + np.arange(n * w, dtype=np.int64).reshape(n, w)
        dep_rows = np.concatenate(
            [np.tile(np.asarray(deps, dtype=np.int64), (n, 1)), uid[:, :-1]], axis=1
        )
        per_item = np.ones((n, w), dtype=np.int64)
        per_item[:, 0] = len(deps)
        self._item_deps.frombytes(dep_rows.tobytes())
        self._item_dep_ptr.frombytes(
            (len(self._item_deps) - dep_rows.size + np.cumsum(per_item)).tobytes()
        )
        lanes, stages = self._item_lanes, self._item_stages
        lane = [lanes.setdefault(dpu_resource(d), len(lanes)) for d in dpus.tolist()]
        self._item_res.extend(np.repeat(lane, w).tolist())
        self._item_stage.extend(
            [stages.setdefault(name, len(stages)) for name in STAGE_FIELDS] * n
        )
        self._item_dur.extend((cycles / freq).ravel().tolist())
        self._item_cycles.extend(cycles.ravel().tolist())
        self._item_counters.extend(c for c in counters for _ in range(w))
        self._item_pinned.extend([False] * (n * w))
        self._item_earliest.extend([0.0] * (n * w))
        if self._item_batch is not None:
            self._item_batch.extend([self.batch] * (n * w))
        self._rows = None
        return uid[:, -1].tolist()

    # --- Row view ------------------------------------------------------

    def _identity(
        self, i: int, names: list[str], memo: dict
    ) -> tuple[int, tuple[int, ...], tuple[str, ...], int]:
        """Item ``i``'s (uid, parent uids, trace ids, batch).  ``names`` is
        ``list(self._item_trace_ids)``; ``memo`` shares the tuples of
        repeated id lists (a DPU chain's, a batch's) across calls."""
        deps = self._item_deps[self._item_dep_ptr[i] : self._item_dep_ptr[i + 1]]
        if self._item_barriers and deps and deps[-1] >= len(self):
            parents = tuple(self._item_barriers[deps[-1] - len(self)])
        else:
            parents = tuple(deps)
        tids = self._item_tids[self._item_tid_ptr[i] : self._item_tid_ptr[i + 1]]
        key = tids.tobytes()
        trace_ids = memo.get(key)
        if trace_ids is None:
            trace_ids = memo[key] = tuple(map(names.__getitem__, tids))
        batch = self.batch if self._item_batch is None else self._item_batch[i]
        return i, parents, trace_ids, batch

    @property
    def items(self) -> tuple[WorkItem, ...]:
        """The items as :class:`WorkItem` rows (built on demand)."""
        if self._rows is None:
            lanes, stages = list(self._item_lanes), list(self._item_stages)
            names, memo = list(self._item_trace_ids), {}
            rows = []
            for i, res in enumerate(self._item_res):
                uid, deps, trace_ids, batch = self._identity(i, names, memo)
                rows.append(WorkItem(
                    uid, lanes[res], stages[self._item_stage[i]],
                    self._item_dur[i], self._item_cycles[i],
                    self._item_counters[i], deps, self._item_pinned[i], batch,
                    trace_ids, self._item_earliest[i],
                ))
            self._rows = tuple(rows)
        return self._rows

    @items.setter
    def items(self, rows: Iterable[WorkItem]) -> None:
        """Replace the description with hand-built rows, whose uids must
        be their positions (dependencies may point forward)."""
        rows = list(rows)
        self.__init__(self.dpu_frequency_hz, self.batch)
        self._item_batch = []
        for i, row in enumerate(rows):
            if row.uid != i:
                raise ConfigError(f"work item uid {row.uid} at position {i}")
            unknown = [d for d in row.deps if not 0 <= d < len(rows)]
            if unknown:
                raise ConfigError(
                    f"work item {row.uid} depends on unknown item {unknown[0]}"
                )
            self._add(
                row.resource, row.stage, row.duration, row.cycles, row.counters,
                row.deps, row.pinned, row.earliest,
                self._trace_offsets(row.trace_ids), row.batch,
            )

    # --- Execution -----------------------------------------------------

    def execute(self) -> BatchSchedule:
        """Run the description through the event core."""
        engine = EventEngine(dpu_frequency_hz=self.dpu_frequency_hz)
        return engine.run(self)


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
        items: BatchWork | Sequence[WorkItem],
        *,
        kills_at: Sequence[tuple[str, float]] = (),
        kills_on_batch: Mapping[int, Sequence[str]] | None = None,
    ) -> BatchSchedule:
        """Execute ``items`` and return the resulting schedule.

        ``items`` is a :class:`BatchWork` or hand-built
        :class:`WorkItem` rows (packed into columns first).
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

        With no kill armed, a DAG in which no lane ever has a choice is
        placed in one emission-order pass (:func:`_place_without_choice`);
        every other DAG runs through the event heap.  Both give the same
        spans lane by lane; the pass records them in emission order, the
        heap in completion order, so the contract is per-lane order.
        """
        dag = items
        if not isinstance(dag, BatchWork):
            dag = BatchWork()
            dag.items = items
        if not kills_at and not kills_on_batch:
            t0 = _place_without_choice(dag)
            if t0 is not None:
                # Every item met an idle lane with an empty queue.
                schedule = _schedule(dag, self.dpu_frequency_hz, None, t0,
                                     array("d", bytes(8 * len(t0))), {})
                lane = np.frombuffer(schedule._span_lane, dtype=np.int64)
                counts = np.bincount(lane, minlength=len(dag._item_lanes)).tolist()
                self.lane_stats = {
                    name: LaneStats(dispatched=counts[k], peak_outstanding=1)
                    for name, k in dag._item_lanes.items()
                }
                return schedule
        return self._run_heap(dag, kills_at, kills_on_batch)

    def _run_heap(
        self,
        dag: BatchWork,
        kills_at: Sequence[tuple[str, float]] = (),
        kills_on_batch: Mapping[int, Sequence[str]] | None = None,
    ) -> BatchSchedule:
        """The event heap: :meth:`run` for any DAG, kills included."""
        n = len(dag)
        res, dur, cyc = dag._item_res, dag._item_dur, dag._item_cycles
        pinned = dag._item_pinned
        freq = self.dpu_frequency_hz

        # Dependents in emission order (CSR; barriers are nodes past the
        # items), pending-dependency counts and ready times (no earlier
        # than the item's release time).
        barriers = dag._item_barriers
        remaining = [*np.diff(dag._item_dep_ptr).tolist(), *map(len, barriers)]
        deps = np.concatenate(
            (dag._item_deps, [m for b in barriers for m in b])
        ).astype(np.intp)
        order = np.argsort(deps, kind="stable")
        children = np.repeat(np.arange(len(remaining)), remaining)[order].tolist()
        child_ptr = [0, *np.cumsum(np.bincount(deps, minlength=len(remaining))).tolist()]
        ready = dag._item_earliest + [0.0] * len(barriers)
        done = [False] * n

        # Per-lane run state; resources only fenced (no items) get lanes
        # past the schedule's.
        lane_of = dict(dag._item_lanes)
        for resource in [r for r, _t in kills_at] + [
            r for rs in (kills_on_batch or {}).values() for r in rs
        ]:
            lane_of.setdefault(resource, len(lane_of))
        end = [0.0] * len(lane_of)
        busy = [-1] * len(lane_of)
        busy_t0 = [0.0] * len(lane_of)
        #: Queue wait of the in-flight item (ready -> dispatch gap).
        busy_wait = [0.0] * len(lane_of)
        #: Min-heaps of (ready_time, seq, uid) waiting per lane.
        queues: list[list[tuple[float, int, int]]] = [[] for _ in lane_of]
        dead = [False] * len(lane_of)
        stats = [LaneStats() for _ in lane_of]
        # Spans as (item, t0, queue wait); a kill's truncation overrides
        # the item's duration and cycles.
        span_src: list[int] = []
        span_t0: list[float] = []
        span_wait: list[float] = []
        cut: dict[int, tuple[float, float | None]] = {}

        heap: list[tuple[float, int, int, int]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        seq = 0

        # Batch-start triggers: the trigger item is the batch's first
        # pim_bus item (fall back to its first item of any kind).
        triggers: dict[int, list[int]] = {}
        if kills_on_batch:
            batch_of = dag._item_batch or [dag.batch] * n
            bus = dag._item_lanes.get(PIM_BUS)
            for b in sorted(kills_on_batch):
                members = [i for i in range(n) if batch_of[i] == b]
                if members:
                    on_bus = [i for i in members if res[i] == bus]
                    pick = min(on_bus or members)
                    triggers.setdefault(pick, []).extend(
                        lane_of[r] for r in kills_on_batch[b]
                    )

        def release(i: int, t: float) -> list[int]:
            """Count ``i`` done at ``t`` for its dependents; return those
            now ready (a barrier passes its own dependents through)."""
            newly = []
            for j in children[child_ptr[i] : child_ptr[i + 1]]:
                remaining[j] -= 1
                if ready[j] < t:
                    ready[j] = t
                if remaining[j] == 0:
                    if j < n:
                        newly.append(j)
                    else:
                        newly += release(j, ready[j])
            return newly

        def settle(i: int, t: float) -> None:
            """Finalize a cancelled item at ``t`` and queue its dependents."""
            nonlocal seq
            done[i] = True
            for j in release(i, t):
                heappush(heap, (ready[j], _ARRIVE, seq, j))
                seq += 1

        def start(i: int, r: float) -> None:
            nonlocal seq
            lane = res[i]
            t0 = end[lane] if end[lane] > r else r
            busy[lane] = i
            busy_t0[lane] = t0
            busy_wait[lane] = t0 - r
            end[lane] = t0 + dur[i]
            stats[lane].dispatched += 1
            heappush(heap, (end[lane], _COMPLETE, seq, i))
            seq += 1
            if triggers:
                for fenced in triggers.pop(i, ()):
                    kill(fenced, t0)

        def kill(lane: int, at_s: float) -> None:
            if dead[lane]:
                return
            dead[lane] = True
            i = busy[lane]
            if i >= 0 and at_s < end[lane]:
                t0 = busy_t0[lane]
                if cyc[i] is not None and freq:
                    # Whole cycles retired before the fence; duration is
                    # re-derived from them so duration == cycles / freq
                    # holds exactly on the truncated span.
                    cycles = float(min(max(math.floor((at_s - t0) * freq), 0), cyc[i]))
                    truncated = (cycles / freq, cycles) if cycles > 0.0 else None
                else:
                    truncated = (at_s - t0, None) if at_s - t0 > 0.0 else None
                if truncated is not None:
                    cut[len(span_src)] = truncated
                    span_src.append(i)
                    span_t0.append(t0)
                    span_wait.append(busy_wait[lane])
                busy[lane] = -1
                end[lane] = at_s
                stats[lane].cancelled += 1
                settle(i, at_s)
            queue = queues[lane]
            while queue:
                stats[lane].cancelled += 1
                settle(heappop(queue)[2], at_s)

        for i in range(n):
            if remaining[i] == 0:
                heappush(heap, (ready[i], _ARRIVE, seq, i))
                seq += 1
        for resource, at_s in kills_at:
            heappush(heap, (at_s, _KILL, seq, lane_of[resource]))
            seq += 1

        while heap:
            now, kind, _s, i = heappop(heap)
            if kind == _COMPLETE:
                if done[i]:
                    continue
                # Record the span (per-lane completion order is start
                # order, so spans never overlap on a lane).
                lane = res[i]
                span_src.append(i)
                span_t0.append(busy_t0[lane])
                span_wait.append(busy_wait[lane])
                busy[lane] = -1
                done[i] = True
                newly = release(i, now)
                # Contiguity bundle: the first pinned successor on this
                # lane preempts anything queued (retries ride with their
                # transfer).
                first = -1
                if not dead[lane]:
                    bundle = [j for j in newly if pinned[j] and res[j] == lane]
                    first = min(bundle, default=-1)
                for j in newly:
                    if j == first:
                        start(j, ready[j])
                    else:
                        heappush(heap, (ready[j], _ARRIVE, seq, j))
                        seq += 1
                if first < 0 and not dead[lane] and queues[lane]:
                    r, _s2, j = heappop(queues[lane])
                    start(j, r)
            elif kind == _ARRIVE:
                if done[i]:
                    continue
                lane = res[i]
                if dead[lane]:
                    stats[lane].cancelled += 1
                    settle(i, now)
                    continue
                queue = queues[lane]
                outstanding = len(queue) + (busy[lane] >= 0) + 1
                if outstanding > stats[lane].peak_outstanding:
                    stats[lane].peak_outstanding = outstanding
                if busy[lane] < 0:
                    start(i, now)
                else:
                    # Same-time arrivals share ``seq``: they queue in uid order.
                    stats[lane].queued += 1
                    heappush(queue, (now, seq, i))
            else:
                kill(i, now)

        if not all(done):
            stuck = [i for i in range(n) if not done[i]]
            raise ConfigError(
                f"event engine deadlock: items {stuck[:8]} never became "
                "ready (dependency cycle?)"
            )
        self.lane_stats = {
            name: stats[lane]
            for name, lane in lane_of.items()
            if lane < len(dag._item_lanes) or dead[lane]
        }
        return _schedule(dag, freq, span_src, span_t0, span_wait, cut)


def _place_without_choice(dag: BatchWork) -> array | None:
    """Start times of a DAG in which no lane ever has a choice, or None.

    One pass in emission order: an item is ready at the max of its
    release time and its dependencies' ends (a barrier counts as its
    members' ends), in the heap's own comparison form, and starts then.
    The pass keeps the DAG only if every dependency precedes its
    dependent and every item's lane predecessor is one of its direct
    dependencies, or started strictly before the item is ready and
    ended no later than that; a pinned item's lane predecessor must be
    a direct dependency (the heap starts a pinned item when its lane
    dependency completes and holds the lane until the item's ready
    time).  Then every item reaches an idle lane with an empty queue,
    so the heap would start it at its ready time too: no wait, each
    lane's order its emission order.  Non-finite ends and negative or
    negative-zero starts are refused as well (the heap clamps a
    negative ready time to the lane, and the sign of a zero start would
    reach reductions that read spans across lanes).
    """
    n = len(dag)
    res, dur, pinned = dag._item_res, dag._item_dur, dag._item_pinned
    ptr, deps = dag._item_dep_ptr.tolist(), dag._item_deps.tolist()
    barriers = dag._item_barriers
    barrier_end: dict[int, float] = {}
    last = [-1] * len(dag._item_lanes)
    t0 = dag._item_earliest.copy()
    end = [0.0] * n
    for i in range(n):
        r = t0[i]
        lane = res[i]
        p = last[lane]
        direct = False
        for d in deps[ptr[i] : ptr[i + 1]]:
            if d < i:
                t = end[d]
                if d == p:
                    direct = True
            elif d < n:
                return None
            else:
                t = barrier_end.get(d)
                if t is None:
                    members = barriers[d - n]
                    if not members or max(members) >= i:
                        return None
                    t = 0.0
                    for m in members:
                        if t < end[m]:
                            t = end[m]
                    barrier_end[d] = t
            if r < t:
                r = t
        if p >= 0 and not direct and (pinned[i] or not (t0[p] < r and end[p] <= r)):
            return None
        t0[i] = r
        end[i] = r + dur[i]
        last[lane] = i
    if not math.isfinite(sum(end)):
        return None
    starts = array("d", t0)
    if n and np.signbit(np.frombuffer(starts, dtype=np.float64)).any():
        return None
    return starts


def _schedule(
    dag: BatchWork,
    freq: float | None,
    src: Sequence[int] | None,
    t0: Sequence[float],
    wait: Sequence[float],
    cut: Mapping[int, tuple[float, float | None]],
) -> BatchSchedule:
    """The schedule of spans ``src[k]`` (every item in emission order
    when ``src`` is None) started at ``t0[k]`` after queueing
    ``wait[k]``; ``cut`` maps a span to its kill-truncated duration and
    cycles."""
    def take(column):
        return column if src is None else map(column.__getitem__, src)

    schedule = BatchSchedule(dpu_frequency_hz=freq)
    # Lanes in emission order: downstream views iterate timelines in
    # insertion order, and the pinned lane order (golden_spans.json)
    # is first use in emission order.
    schedule._span_lanes = dict(dag._item_lanes)
    schedule._span_stages = dict(dag._item_stages)
    schedule._span_dag = dag
    schedule._span_src = array("q", range(len(dag)) if src is None else src)
    schedule._span_t0 = array("d", t0)
    schedule._span_wait = array("d", wait)
    schedule._span_lane = array("q", take(dag._item_res))
    schedule._span_stage = array("q", take(dag._item_stage))
    schedule._span_dur = array("d", take(dag._item_dur))
    schedule._span_cycles = list(take(dag._item_cycles))
    schedule._span_counters = list(take(dag._item_counters))
    schedule._span_killed = [False] * len(schedule._span_src)
    for k, (d, c) in cut.items():
        schedule._span_dur[k] = d
        schedule._span_cycles[k] = c
        schedule._span_killed[k] = True
    return schedule


def _merge(
    works: Sequence[BatchWork], overlap: str, releases: Sequence[float] | None
) -> BatchWork:
    """One DAG of a whole stream: every batch's columns, offset.

    Batch ``b``'s roots wait on a barrier over the cross-batch gate (see
    :func:`execute_stream`), its items become releasable no earlier than
    ``releases[b]``, and double-buffered aggregation moves to the
    ``host_agg`` lane.  Lanes are renumbered to first use.
    """
    merged = BatchWork()
    merged._item_batch = []
    lanes, stages = merged._item_lanes, merged._item_stages
    trace_ids = merged._item_trace_ids
    gate: list[int] = []
    total = sum(map(len, works))
    for b, w in enumerate(works):
        off, n = len(merged), len(w)
        release = releases[b] if releases is not None else 0.0
        lane_map = [lanes.setdefault(r, len(lanes)) for r in w._item_lanes]
        res = [lane_map[r] for r in w._item_res]
        agg = w._item_stages.get(STAGE_AGGREGATE)
        cpu = w._item_lanes.get(HOST_CPU)
        if overlap == "double_buffer" and agg is not None and cpu is not None:
            for i, (r, s) in enumerate(zip(w._item_res, w._item_stage)):
                if r == cpu and s == agg:
                    res[i] = lanes.setdefault(HOST_AGG, len(lanes))
        merged._item_res.extend(res)
        stage_map = [stages.setdefault(s, len(stages)) for s in w._item_stages]
        merged._item_stage.extend([stage_map[s] for s in w._item_stage])
        merged._item_dur.extend(w._item_dur)
        merged._item_cycles.extend(w._item_cycles)
        merged._item_counters.extend(w._item_counters)
        merged._item_pinned.extend(w._item_pinned)
        merged._item_earliest.extend(
            [release if release > e else e for e in w._item_earliest]
        )
        merged._item_batch.extend([b] * n)

        ptr = w._item_dep_ptr
        deps = [d + off for d in w._item_deps]
        roots = []
        if gate:
            merged._item_barriers.append(gate)
            barrier = total + len(merged._item_barriers) - 1
            roots = [i for i in range(n) if ptr[i] == ptr[i + 1]]
            for i in reversed(roots):
                deps.insert(ptr[i], barrier)
        is_root = np.zeros(n, dtype=np.intp)
        is_root[roots] = 1
        base = len(merged._item_deps)
        merged._item_deps.extend(deps)
        merged._item_dep_ptr.extend(
            (np.asarray(ptr[1:], dtype=np.intp) + np.cumsum(is_root) + base).tolist()
        )

        id_map = [trace_ids.setdefault(t, len(trace_ids)) for t in w._item_trace_ids]
        base = len(merged._item_tids)
        merged._item_tids.extend(np.array(id_map)[np.array(w._item_tids)].tolist())
        merged._item_tid_ptr.extend((np.array(w._item_tid_ptr[1:]) + base).tolist())

        bus = w._item_lanes.get(PIM_BUS)
        inbound = (w._item_stages.get(STAGE_TRANSFER_IN), w._item_stages.get(STAGE_RETRY))
        last_bus = None
        for i in range(n - 1, -1, -1):
            if w._item_res[i] == bus and w._item_stage[i] in inbound:
                last_bus = i + off
                break
        if overlap == "double_buffer" and last_bus is not None:
            gate = [last_bus]
        else:
            depended = set(w._item_deps)
            gate = [i + off for i in range(n) if i not in depended]

    first_use = list(dict.fromkeys(merged._item_res))
    if first_use != list(range(len(lanes))):
        names = list(lanes)
        renumber = {old: new for new, old in enumerate(first_use)}
        merged._item_res = [renumber[r] for r in merged._item_res]
        merged._item_lanes = {names[old]: new for new, old in enumerate(first_use)}
    return merged


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

    kills_on_batch: dict[int, list[str]] = {}
    if kills:
        for resource, b in sorted(kills.items()):
            kills_on_batch.setdefault(b, []).append(resource)

    if engine is None:
        engine = EventEngine(dpu_frequency_hz=freq)
    elif engine.dpu_frequency_hz is None:
        engine.dpu_frequency_hz = freq
    return engine.run(_merge(works, overlap, releases), kills_on_batch=kills_on_batch)
