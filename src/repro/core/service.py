"""Online serving loop: batches in, results + adaptation out.

Packages the paper's deployment story into one object: an
:class:`OnlineService` owns an engine, a latency recorder and the
section-4.1.2 adaptive policy.  Each submitted batch is searched,
latency is recorded, drift against the placement-time traffic snapshot
is measured, and — when the policy asks — the placement is refreshed
from the live access trace.

The recommendation/RAG examples use this loop; tests drive it through
drift scenarios and assert both adaptation and exactness.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import BatchResult, UpANNSEngine
from repro.core.scheduling import AdaptivePolicy
from repro.core.validation import validate_queries
from repro.errors import ConfigError, NotTrainedError
from repro.metrics.latency import LatencyRecorder
from repro.sanitize.hook import debug_sanitize_schedule
from repro.sim import (
    OVERLAP_MODES,
    BatchSchedule,
    BatchWork,
    EventEngine,
    dpu_resource,
    execute_stream,
)
from repro.telemetry.pipeline import observe_lane_stats, observe_query_latencies
from repro.telemetry.registry import get_registry
from repro.tracing.context import TraceContext
from repro.tracing.record import query_latencies
from repro.workload.trace import AccessTrace

logger = logging.getLogger(__name__)


@dataclass
class ServiceReport:
    """One serving step's outcome.

    The tail-latency fields are running per-query percentiles over every
    batch the service has served *up to and including* this one, in
    milliseconds — what an operator dashboard would show after the step.
    """

    result: BatchResult
    drift: float
    action: str
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    #: True when the batch lost probed clusters to dead DPUs (its
    #: per-query coverage is in ``result.degraded``).
    degraded: bool = False
    #: Worst per-query served-cluster fraction for this batch.
    coverage_floor: float = 1.0
    #: Modeled time spent re-placing around dead DPUs after this batch
    #: (0.0 when no recovery ran).
    recovery_s: float = 0.0
    #: DPU lanes whose death this batch's search observed; stream runs
    #: fence them mid-flight at this batch's first bus activity.
    deaths: tuple[str, ...] = ()


@dataclass
class OnlineService:
    """Engine + latency accounting + adaptive placement maintenance."""

    engine: UpANNSEngine
    policy: AdaptivePolicy = field(default_factory=AdaptivePolicy)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    # How consecutive batches share the pipeline: "sequential" (each
    # batch fully drains before the next starts — the paper's default
    # accounting) or "double_buffer" (batch N+1's host prep and inbound
    # transfer run during batch N's DPU execution).
    overlap: str = "sequential"
    # Refresh placement at most once every this many batches (a real
    # deployment re-places 'every few days', not per batch).
    min_batches_between_refreshes: int = 1
    #: Every served batch's work description, in stream order: what
    #: :meth:`combined_schedule` executes as one event-core run.
    works: list[BatchWork] = field(default_factory=list)
    #: DPU lane -> stream position (index into ``works``) of the batch
    #: whose search observed its death.
    _kills: dict[str, int] = field(default_factory=dict)
    _snapshot: AccessTrace | None = None
    _batches_since_refresh: int = 0
    refresh_count: int = 0
    recovery_count: int = 0
    #: Dead-DPU set already recovered around; recovery re-runs only
    #: when new deaths appear.
    _recovered_dead: set[int] = field(default_factory=set)
    #: Next query ordinal: trace ids are assigned at intake and stay
    #: unique across every batch this service ever serves.
    _next_query: int = 0
    #: Event engine retained by the last stream run, so its
    #: ``lane_stats`` survive for telemetry export.
    last_event_engine: EventEngine | None = None

    def __post_init__(self) -> None:
        if self.overlap not in OVERLAP_MODES:
            raise ConfigError(
                f"unknown overlap mode {self.overlap!r}; expected one of {OVERLAP_MODES}"
            )
        if self.engine.trace is None:
            raise NotTrainedError("the engine must be built before serving")
        self._snapshot = self.engine.trace.snapshot()

    def submit(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        trace: TraceContext | None = None,
        nprobe: int | None = None,
    ) -> ServiceReport:
        """Serve one batch; adapt the placement if traffic drifted.

        ``trace`` lets a frontend that assigned request ids at intake
        (``repro.serving``) carry them through; by default the service
        mints a fresh sequential context.  ``nprobe`` shrinks cluster
        probing below the configured value for this batch only (the
        frontend's degrade response under overload).
        """
        queries = validate_queries(queries, dim=self.engine.config.index.dim)
        nq = int(queries.shape[0])
        if trace is None:
            # Trace intake: every query gets a service-unique id here, and
            # the batch index is the stream position execute_stream will
            # re-stamp anyway — so span identities agree between the
            # per-batch and the stream schedules.
            ctx = TraceContext.for_batch(
                nq, batch=len(self.works), start=self._next_query
            )
            self._next_query += nq
        else:
            if trace.batch != len(self.works):
                raise ConfigError(
                    f"trace batch {trace.batch} does not match stream "
                    f"position {len(self.works)}"
                )
            if len(trace.trace_ids) != nq:
                raise ConfigError(
                    f"trace carries {len(trace.trace_ids)} ids for {nq} queries"
                )
            ctx = trace
        state = self.engine.fault_state
        known_dead = set(state.death_batches) if state is not None else set()
        result = self.engine.search_batch(queries, k=k, trace=ctx, nprobe=nprobe)
        if result.work is not None:
            self.works.append(result.work)
        # Fault-plane batch counts start at inject(), not at this
        # service's first batch: key deaths by stream position instead.
        deaths: tuple[str, ...] = ()
        if state is not None:
            deaths = tuple(
                dpu_resource(u)
                for u in sorted(state.death_batches)
                if u not in known_dead
            )
        for resource in deaths:
            self._kills.setdefault(resource, len(self.works) - 1)
        self.latency.record_batch_result(result)
        if result.schedule is not None:
            observe_query_latencies(query_latencies(result.schedule))
        assert self.engine.trace is not None and self._snapshot is not None
        drift = self.engine.trace.drift_from(self._snapshot)
        action = self.policy.decide(drift)
        self._batches_since_refresh += 1

        # Health takes precedence over drift cadence: the first batch
        # that observes a new DPU death triggers an immediate placement
        # refresh over the survivors, re-replicating orphaned clusters.
        recovery_seconds = 0.0
        state = self.engine.fault_state
        if state is not None and state.dead and set(state.dead) != self._recovered_dead:
            dead = frozenset(state.dead)
            recovery_seconds = self.engine.refresh_placement(exclude_dpus=dead)
            self._recovered_dead = set(dead)
            self._snapshot = self.engine.trace.snapshot()
            self._batches_since_refresh = 0
            self.recovery_count += 1
            logger.info(
                "recovered around %d dead DPUs in %.3f ms (modeled reload)",
                len(dead),
                recovery_seconds * 1e3,
            )
            get_registry().counter(
                "repro_service_recoveries_total",
                "placement refreshes triggered by DPU death",
            ).inc()

        if (
            action != "keep"
            and self._batches_since_refresh >= self.min_batches_between_refreshes
        ):
            logger.info("traffic drift %.3f -> %s: refreshing placement", drift, action)
            # A drift refresh must not resurrect dead DPUs: keep excluding
            # every death recovered around, or the new placement would
            # route clusters onto corpses and recovery would never re-fire
            # (the dead set is unchanged, so the health check above stays
            # satisfied while coverage silently degrades).
            self.engine.refresh_placement(
                exclude_dpus=frozenset(state.dead) if state is not None else frozenset()
            )
            self._snapshot = self.engine.trace.snapshot()
            self._batches_since_refresh = 0
            self.refresh_count += 1
            get_registry().counter(
                "repro_service_refreshes_total", "adaptive placement refreshes"
            ).inc()
        reg = get_registry()
        reg.counter("repro_service_batches_total", "batches accepted by the service").inc()
        reg.gauge(
            "repro_service_queue_depth",
            "batch work descriptions retained for stream simulation",
        ).set(len(self.works))
        p50, p95, p99 = self.latency.percentiles_ms((50, 95, 99))
        return ServiceReport(
            result=result,
            drift=drift,
            action=action,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            degraded=result.degraded.is_degraded if result.degraded else False,
            coverage_floor=(
                result.degraded.coverage_floor if result.degraded else 1.0
            ),
            recovery_s=recovery_seconds,
            deaths=deaths,
        )

    def serve(self, batches, *, k: int | None = None) -> list[ServiceReport]:
        """Serve an iterable of query batches (arrays or QueryBatch)."""
        reports = []
        for batch in batches:
            queries = getattr(batch, "queries", batch)
            reports.append(self.submit(queries, k=k))
        return reports

    def combined_schedule(self) -> BatchSchedule:
        """All served batches as one run-level schedule.

        The retained work descriptions execute through one event-core
        run: the overlap policy only sets the cross-batch dependency
        shape, and the actual interleaving (bus queuing, mid-flight
        DPU-death interruption at the batch that observed the death)
        emerges from the simulation.
        """
        engine = EventEngine()
        combined = execute_stream(
            self.works, overlap=self.overlap, kills=self._kills, engine=engine
        )
        self.last_event_engine = engine
        observe_lane_stats(engine.lane_stats, schedule=combined)
        debug_sanitize_schedule(combined, label=f"event stream {self.overlap} run")
        return combined

    def wallclock_seconds(self) -> float:
        """Modeled wall-clock for everything served so far.

        Under ``sequential`` this is the sum of per-batch totals up to
        rounding: each batch's spans are shifted by the previous
        batches' end, so the result can differ in the last ULPs.  Under
        ``double_buffer`` it is strictly lower whenever batches have
        nonzero inbound-transfer time to hide.
        """
        return self.combined_schedule().makespan

    def summary(self) -> dict[str, float]:
        """Latency percentiles, throughput and adaptation activity."""
        out = dict(self.latency.summary())
        out["refreshes"] = float(self.refresh_count)
        out["recoveries"] = float(self.recovery_count)
        out["batches"] = float(self.latency.n_batches)
        if self.works:
            out["wallclock_s"] = self.wallclock_seconds()
        return out
