"""Shared metric definitions for the instrumented online pipelines.

Engines call :func:`observe_batch` once per served batch; the hardware
models call the ``observe_*`` helpers from their charge paths.  All
helpers write into the process-wide registry via get-or-create, so they
are safe to call before any explicit registry setup and retarget
automatically when tests swap the registry.

Nothing here reads the wallclock or feeds back into the timing models:
metrics observe modeled quantities, they never produce them (the
golden-timing tests pin this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.telemetry.registry import (
    DEFAULT_SECONDS_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    get_registry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import LaneStats
    from repro.sim.schedule import BatchSchedule, BatchTiming

#: DMA transaction sizes are legal in [8, MAX_DMA_BYTES]; power-of-two
#: buckets ending at the hardware ceiling.
DMA_BUCKETS = tuple(float(2**i) for i in range(3, 12))
#: Queries per batch; 2048 here is a workload knob, not the DMA limit.
BATCH_SIZE_BUCKETS = (1.0, 8.0, 32.0, 128.0, 512.0, 2048.0)  # simlint: ignore[HW001]
#: Outstanding requests on one exclusive FIFO lane (in-flight + queued).
LANE_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Stage labels for the six BatchTiming scalars.
TIMING_STAGES = (
    ("cluster_filter", "host_filter_s"),
    ("schedule", "host_schedule_s"),
    ("transfer_in", "transfer_in_s"),
    ("dpu", "dpu_makespan_s"),
    ("transfer_out", "transfer_out_s"),
    ("aggregate", "host_aggregate_s"),
)


def _dma_children(reg: MetricsRegistry, direction: str):
    """Cached (bytes counter child, size histogram child) for a direction."""
    return reg.cached(
        ("observe_dma", direction),
        lambda: (
            reg.counter(
                "repro_mram_dma_bytes_total",
                "bytes moved across the MRAM<->WRAM DMA engine",
                ("direction",),
            ).labels(direction=direction),
            reg.histogram(
                "repro_mram_dma_transfer_bytes",
                "per-DMA-transaction transfer size",
                ("direction",),
                buckets=DMA_BUCKETS,
            ).labels(direction=direction),
        ),
    )


def dma_observations(total_bytes: int, chunk_bytes: int) -> tuple[tuple[int, int], ...]:
    """One bulk stream as pre-aggregated (transfer size, count) pairs:
    ``full`` chunk-sized transactions plus one rounded tail."""
    if total_bytes <= 0:
        return ()
    full, tail = divmod(total_bytes, chunk_bytes)
    obs = []
    if full:
        obs.append((chunk_bytes, full))
    if tail:
        from repro.hardware.mram import round_up_dma

        obs.append((round_up_dma(tail), 1))
    return tuple(obs)


def observe_dma(
    direction: str,
    total_bytes: int,
    chunk_bytes: int,
    *,
    registry: MetricsRegistry | None = None,
) -> None:
    """Record one bulk MRAM<->WRAM stream: bytes moved + per-transaction
    size histogram (``full`` chunk-sized reads plus one rounded tail)."""
    if total_bytes <= 0:
        return
    reg = registry if registry is not None else get_registry()
    bytes_child, hist = _dma_children(reg, direction)
    bytes_child.inc(total_bytes)
    for size, count in dma_observations(total_bytes, chunk_bytes):
        hist.observe(size, count=count)


def observe_dma_batch(
    direction: str,
    total_bytes: int,
    observations: "dict[int, int] | list[tuple[int, int]]",
    *,
    registry: MetricsRegistry | None = None,
) -> None:
    """Flush many streams' pre-aggregated transactions in one call.

    Counter and histogram updates are integer-valued, so draining an
    accumulated ``{transfer size: count}`` map leaves the registry in
    exactly the state per-stream :func:`observe_dma` calls would — the
    grouped kernel uses this to replay thousands of charges cheaply.
    """
    if total_bytes <= 0:
        return
    reg = registry if registry is not None else get_registry()
    bytes_child, hist = _dma_children(reg, direction)
    bytes_child.inc(total_bytes)
    items = observations.items() if isinstance(observations, dict) else observations
    for size, count in items:
        hist.observe(size, count=count)


def observe_wram_peak(peak_bytes: int, *, registry: MetricsRegistry | None = None) -> None:
    """High-water mark across every WRAM allocator in the process."""
    reg = registry if registry is not None else get_registry()
    reg.gauge(
        "repro_wram_peak_bytes",
        "allocation high-water mark across all WRAM scratchpads",
    ).set_max(peak_bytes)


def observe_batch(
    engine: str,
    n_queries: int,
    timing: "BatchTiming",
    *,
    busy_cycles: float = 0.0,
    active_dpus: int = 0,
    n_tasklets: int = 0,
    registry: MetricsRegistry | None = None,
) -> None:
    """Record one served batch: volume, sizes, per-stage seconds, DPU load."""
    reg = registry if registry is not None else get_registry()
    reg.counter(
        "repro_queries_total", "queries served", ("engine",)
    ).labels(engine=engine).inc(n_queries)
    reg.counter(
        "repro_batches_total", "batches served", ("engine",)
    ).labels(engine=engine).inc()
    reg.histogram(
        "repro_batch_size",
        "queries per served batch",
        ("engine",),
        buckets=BATCH_SIZE_BUCKETS,
    ).labels(engine=engine).observe(n_queries)
    stage_counter = reg.counter(
        "repro_stage_seconds_total",
        "modeled seconds per pipeline stage",
        ("engine", "stage"),
    )
    for stage, attr in TIMING_STAGES:
        stage_counter.labels(engine=engine, stage=stage).inc(getattr(timing, attr))
    # The retry stage exists only under fault injection; the label child
    # is created lazily so fault-free metric snapshots are unchanged.
    if timing.retry_s > 0:
        stage_counter.labels(engine=engine, stage="retry").inc(timing.retry_s)
    if busy_cycles > 0:
        reg.counter(
            "repro_dpu_busy_cycles_total", "DPU busy cycles across all lanes"
        ).inc(busy_cycles)
    if active_dpus > 0:
        reg.gauge(
            "repro_dpu_active", "DPUs with nonzero work in the last batch"
        ).set(active_dpus)
    if n_tasklets > 0:
        reg.gauge(
            "repro_dpu_tasklets",
            "tasklet occupancy per DPU (WRAM-plan effective)",
        ).set(n_tasklets)


def observe_lane_stats(
    lane_stats: "Mapping[str, LaneStats]",
    *,
    schedule: "BatchSchedule | None" = None,
    registry: MetricsRegistry | None = None,
) -> None:
    """Publish the event core's per-lane FIFO bookkeeping.

    ``lane_stats`` is :attr:`~repro.sim.events.EventEngine.lane_stats`
    after a run; each lane becomes a ``repro_lane_*`` series labelled by
    resource.  When the run's schedule is supplied, the busy/idle split
    and the queue-depth/queue-wait histograms are derived from its spans
    too (:func:`observe_lane_occupancy`).
    """
    reg = registry if registry is not None else get_registry()
    dispatched = reg.gauge(
        "repro_lane_dispatched",
        "items the lane completed in the last event run",
        ("resource",),
    )
    queued = reg.gauge(
        "repro_lane_queued",
        "arrivals that found the lane busy and had to queue",
        ("resource",),
    )
    cancelled = reg.gauge(
        "repro_lane_cancelled",
        "items cancelled because the lane was fenced by a fault",
        ("resource",),
    )
    peak = reg.gauge(
        "repro_lane_peak_outstanding",
        "high-water mark of in-flight + queued items on the lane",
        ("resource",),
    )
    for resource in sorted(lane_stats):
        stats = lane_stats[resource]
        dispatched.labels(resource=resource).set(stats.dispatched)
        queued.labels(resource=resource).set(stats.queued)
        cancelled.labels(resource=resource).set(stats.cancelled)
        peak.labels(resource=resource).set_max(stats.peak_outstanding)
    if schedule is not None:
        observe_lane_occupancy(schedule, registry=reg)


def observe_lane_occupancy(
    schedule: "BatchSchedule",
    *,
    registry: MetricsRegistry | None = None,
) -> None:
    """Rolling per-lane occupancy derived from a (traced) schedule.

    Sweeps each lane's spans (the schedule's columns) as a
    ready/complete event series — a span's ready time is ``t0 - wait_s``,
    so queued time counts as outstanding — and publishes the busy/idle split, an
    outstanding-depth histogram sampled at every arrival, and a
    queue-wait histogram carrying trace-id exemplars.
    """
    reg = registry if registry is not None else get_registry()
    makespan = schedule.makespan
    busy_g = reg.gauge(
        "repro_lane_busy_seconds", "seconds the lane was executing", ("resource",)
    )
    idle_g = reg.gauge(
        "repro_lane_idle_seconds",
        "makespan seconds the lane sat idle",
        ("resource",),
    )
    depth_h = reg.histogram(
        "repro_lane_outstanding",
        "outstanding items (in-flight + queued) sampled at each arrival",
        ("resource",),
        buckets=LANE_DEPTH_BUCKETS,
    )
    wait_h = reg.histogram(
        "repro_lane_queue_wait_seconds",
        "per-item FIFO queue wait (ready -> dispatch gap)",
        ("resource",),
    )
    cols = schedule.columns()
    busy = cols.lane_sums(cols.duration).tolist()
    for lane, resource in enumerate(cols.lanes):
        busy_g.labels(resource=resource).set(busy[lane])
        idle_g.labels(resource=resource).set(max(0.0, makespan - busy[lane]))
        depth_h.labels(resource=resource)
    ptr, idx, names = cols.trace_csr
    lanes = cols.lane.tolist()
    for k in cols.lane_order[cols.wait[cols.lane_order] > 0.0].tolist():
        wait_h.labels(resource=cols.lanes[lanes[k]]).observe(
            float(cols.wait[k]),
            exemplar=names[idx[ptr[k]]] if ptr[k + 1] > ptr[k] else None,
        )
    # Each lane's ready (+1) and complete (-1) events; sorting by (lane,
    # t, delta) retires completions before same-instant arrivals, so
    # back-to-back FIFO dispatch never reads depth 2.  Every lane's
    # deltas sum to zero, so one running sum gives each lane's depth.
    lane = np.concatenate((cols.lane, cols.lane))
    delta = np.repeat([1, -1], len(lanes))
    order = np.lexsort((delta, np.concatenate((cols.t0 - cols.wait, cols.t1)), lane))
    depth = np.cumsum(delta[order])
    arrival = delta[order] > 0
    samples, counts = np.unique(
        np.stack((lane[order][arrival], depth[arrival])), axis=1, return_counts=True
    )
    for (lane_k, value), count in zip(samples.T.tolist(), counts.tolist()):
        depth_h.labels(resource=cols.lanes[lane_k]).observe(value, count=count)


def observe_query_latencies(
    latencies: Mapping[str, float],
    *,
    registry: MetricsRegistry | None = None,
) -> MetricFamily:
    """Per-query end-to-end latency histogram with trace-id exemplars.

    Each bucket remembers the trace id of the worst latency that landed
    in it, so a tail bucket can always be chased back to a concrete
    query (``repro.cli explain --query <id>``).
    """
    reg = registry if registry is not None else get_registry()
    hist = reg.histogram(
        "repro_query_latency_seconds",
        "per-query end-to-end modeled latency",
        buckets=DEFAULT_SECONDS_BUCKETS,
    )
    for qid in sorted(latencies):
        hist.observe(latencies[qid], exemplar=qid)
    return hist


def observe_faults(
    engine: str,
    *,
    injected: int = 0,
    retries: int = 0,
    rerouted_pairs: int = 0,
    dropped_pairs: int = 0,
    dead_units: int = 0,
    coverage_floor: float = 1.0,
    registry: MetricsRegistry | None = None,
) -> None:
    """Record one batch's fault activity (``repro_faults_*`` family).

    Called only when a :class:`~repro.faults.FaultPlan` is injected, so
    fault-free metric snapshots contain none of these series.
    """
    reg = registry if registry is not None else get_registry()
    events = reg.counter(
        "repro_faults_injected_total",
        "fault events applied by the injection plane",
        ("engine",),
    ).labels(engine=engine)
    if injected:
        events.inc(injected)
    if retries:
        reg.counter(
            "repro_faults_retries_total",
            "transfer retry attempts charged to the timeline",
            ("engine",),
        ).labels(engine=engine).inc(retries)
    if rerouted_pairs:
        reg.counter(
            "repro_faults_rerouted_pairs_total",
            "(query, cluster) pairs failed over to a surviving replica",
            ("engine",),
        ).labels(engine=engine).inc(rerouted_pairs)
    if dropped_pairs:
        reg.counter(
            "repro_faults_dropped_pairs_total",
            "(query, cluster) pairs lost to clusters with no live replica",
            ("engine",),
        ).labels(engine=engine).inc(dropped_pairs)
    reg.gauge(
        "repro_faults_dead_units",
        "units (DPUs or hosts) currently dead",
        ("engine",),
    ).labels(engine=engine).set(dead_units)
    reg.gauge(
        "repro_faults_coverage_floor",
        "worst per-query served-cluster fraction in the last batch",
        ("engine",),
    ).labels(engine=engine).set(coverage_floor)
