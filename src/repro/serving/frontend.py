"""The serving frontend: a deterministic event loop over arrivals.

:class:`ServingFrontend` drives one run: arrivals flow through
admission into the coalescer; batches close on size or deadline *and*
only when the pipeline is predicted free (the frontend paces
submissions, so under overload the queues — not the pipeline — absorb
the backlog and waiting requests can visibly time out).  Each closed
batch is submitted to the :class:`~repro.core.service.OnlineService`
with the frontend's own trace ids and an optionally degraded
``n_probe``; shed and timed-out requests are charged one tiny
``host_cpu`` span each, appended to the next submitted batch (or to a
trailing request-plane batch when the run ends without one), so every
offered request owns a span in the combined schedule.

The whole loop runs on the simulated clock — no wall-clock, no
unseeded RNG (simlint DET001 scope).  With a single tenant, no
deadline and ``shedding=False`` the frontend degenerates to a plain
closed-loop ``OnlineService.submit`` driver and reproduces its results
bit-for-bit (golden-pinned by the serving tests).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.service import OnlineService, ServiceReport
from repro.errors import ConfigError
from repro.sanitize.hook import debug_sanitize_schedule
from repro.serving.admission import ADMIT, AdmissionPolicy, TokenBucket
from repro.serving.arrivals import TenantConfig
from repro.serving.coalescer import BatchCoalescer
from repro.serving.request import (
    STATUS_COMPLETED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
    Request,
)
from repro.sim import (
    HOST_CPU,
    STAGE_CANCEL,
    STAGE_SHED,
    BatchSchedule,
    BatchWork,
    EventEngine,
    execute_stream,
)
from repro.telemetry.pipeline import observe_lane_stats
from repro.telemetry.registry import get_registry
from repro.tracing.context import TraceContext

logger = logging.getLogger(__name__)

#: Modeled host cost of bookkeeping one shed/timed-out request
#: (the admission controller's rejection path is not free).
SHED_CHARGE_S = 2e-6


@dataclass
class FrontendResult:
    """Everything one frontend run produced."""

    requests: list[Request]
    #: The combined stream schedule (event core, arrival-time release).
    schedule: BatchSchedule
    #: Event engine retained for its per-lane queue telemetry.
    engine: EventEngine
    #: Per-batch service reports, in submission order.
    reports: list[ServiceReport]
    #: Simulated time the last arrival was offered.
    horizon_s: float

    def by_status(self, status: str) -> list[Request]:
        return [r for r in self.requests if r.status == status]

    def ledger(self) -> dict[str, dict]:
        """Offered/admitted/shed/timed-out counts, total and per tenant.

        Conservation holds exactly by construction:
        ``offered == admitted + shed + timed_out`` (``admitted`` means
        *executed*; the three buckets are disjoint terminal states).
        """
        tenants: dict[str, dict] = {}
        for req in self.requests:
            row = tenants.setdefault(
                req.tenant,
                {
                    "offered": 0,
                    "admitted": 0,
                    "shed": 0,
                    "timed_out": 0,
                    "shed_by_reason": {},
                },
            )
            row["offered"] += 1
            if req.status == STATUS_COMPLETED:
                row["admitted"] += 1
            elif req.status == STATUS_TIMED_OUT:
                row["timed_out"] += 1
            elif req.status == STATUS_SHED:
                row["shed"] += 1
                reasons = row["shed_by_reason"]
                reasons[req.shed_reason] = reasons.get(req.shed_reason, 0) + 1
            else:  # pragma: no cover - the run loop leaves no one queued
                raise ConfigError(
                    f"request {req.trace_id} ended non-terminal: {req.status}"
                )
        totals = {"offered": 0, "admitted": 0, "shed": 0, "timed_out": 0}
        for row in tenants.values():
            for key in totals:
                totals[key] += row[key]
        return {"totals": totals, "tenants": tenants}

    def latencies_ms(self, tenant: str | None = None) -> np.ndarray:
        """Completed-request latencies in milliseconds (sorted)."""
        vals = [
            req.latency_s * 1e3
            for req in self.requests
            if req.status == STATUS_COMPLETED
            and req.latency_s is not None
            and (tenant is None or req.tenant == tenant)
        ]
        return np.sort(np.asarray(vals, dtype=np.float64))

    def goodput_qps(self, tenant: str | None = None) -> float:
        """Completed-within-SLO requests per simulated second."""
        good = 0
        for req in self.requests:
            if req.status != STATUS_COMPLETED or req.latency_s is None:
                continue
            if tenant is not None and req.tenant != tenant:
                continue
            if req.arrival_s + req.latency_s <= req.deadline_s:
                good += 1
        span = max(self.horizon_s, self.schedule.makespan)
        return good / span if span > 0 else 0.0

    def coverage_floor(self) -> float:
        """Worst per-batch coverage across every executed batch."""
        floors = [
            rep.coverage_floor for rep in self.reports
        ]
        return min(floors) if floors else 1.0


@dataclass
class ServingFrontend:
    """One run of the multi-tenant serving loop."""

    service: OnlineService
    tenants: tuple[TenantConfig, ...]
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    max_batch: int = 32
    max_delay_s: float = 0.002
    #: EWMA weight for the batch-duration predictor.
    ewma_alpha: float = 0.3

    # Run state (rebuilt by :meth:`run`).
    works: list[BatchWork] = field(init=False, default_factory=list)
    releases: list[float] = field(init=False, default_factory=list)
    reports: list[ServiceReport] = field(init=False, default_factory=list)
    #: DPU lane -> position in ``works`` of the batch that observed its
    #: death (this stream's positions, not the service's).
    _kills: dict[str, int] = field(init=False, default_factory=dict)
    _coalescer: BatchCoalescer = field(init=False)
    _buckets: dict[str, TokenBucket | None] = field(init=False)
    _pending: list[tuple[str, Request, float]] = field(init=False, default_factory=list)
    _busy_until_s: float = field(init=False, default=0.0)
    _est_batch_s: float | None = field(init=False, default=None)
    _last_intake_s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("frontend needs at least one tenant")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha!r}")
        self.tenants = tuple(self.tenants)
        names = tuple(t.name for t in self.tenants)
        self._coalescer = BatchCoalescer(
            tenant_names=names,
            max_batch=self.max_batch,
            max_delay_s=self.max_delay_s,
        )
        self._buckets = {name: self.policy.bucket_for() for name in names}

    # --- The event loop ------------------------------------------------

    def run(self, requests: list[Request], *, k: int | None = None) -> FrontendResult:
        """Drive all ``requests`` (sorted by arrival) to terminal states."""
        for a, b in zip(requests, requests[1:]):
            if b.arrival_s < a.arrival_s:
                raise ConfigError("requests must be sorted by arrival time")
        i, n = 0, len(requests)
        while i < n or self._coalescer.total_depth > 0:
            t_arr = requests[i].arrival_s if i < n else math.inf
            if self._coalescer.total_depth > 0:
                # A full batch became closable no later than the last
                # processed arrival; otherwise wait for the oldest
                # request's coalescing deadline.  Either way the
                # pipeline must be (predicted) free.
                if self._coalescer.size_ready:
                    trigger = self._last_intake_s
                else:
                    trigger = self._coalescer.earliest_due_s()
                close_t = max(trigger, self._busy_until_s)
            else:
                close_t = math.inf
            if t_arr <= close_t:
                self._intake(requests[i])
                i += 1
            else:
                self._close_batch(close_t, k=k)
        self._flush_pending()
        schedule, engine = self._stream_schedule()
        self._finalize_latencies(requests, schedule)
        horizon = requests[-1].arrival_s if requests else 0.0
        result = FrontendResult(
            requests=list(requests),
            schedule=schedule,
            engine=engine,
            reports=list(self.reports),
            horizon_s=horizon,
        )
        self._export_metrics(result)
        return result

    def _intake(self, req: Request) -> None:
        """Admission decision for one arrival, on the simulated clock."""
        t = req.arrival_s
        self._last_intake_s = t
        predicted_done = None
        if self._est_batch_s is not None:
            waves = 1 + self._coalescer.total_depth // self.max_batch
            predicted_done = (
                max(self._busy_until_s, t) + waves * self._est_batch_s
            )
        verdict = self.policy.decide(
            now_s=t,
            queue_depth=self._coalescer.depth(req.tenant),
            deadline_s=req.deadline_s,
            predicted_done_s=predicted_done,
            bucket=self._buckets[req.tenant],
        )
        if verdict == ADMIT:
            req.admitted_s = t
            self._coalescer.enqueue(req)
        else:
            req.finish(STATUS_SHED, reason=verdict)
            self._pending.append((STAGE_SHED, req, t))

    def _close_batch(self, close_t: float, *, k: int | None) -> None:
        """Expire, drain, maybe degrade, and submit one batch."""
        if self.policy.shedding:
            for req in self._coalescer.expire(close_t):
                req.finish(STATUS_TIMED_OUT)
                self._pending.append((STAGE_CANCEL, req, close_t))
        batch = self._coalescer.drain()
        if not batch:
            return
        configured = self.service.engine.config.query.nprobe
        oldest = min(r.arrival_s for r in batch)
        budgets = [r.deadline_s - r.arrival_s for r in batch]
        eff_nprobe = self.policy.degraded_nprobe(
            configured,
            predicted_wait_s=close_t - oldest,
            tightest_budget_s=min(budgets),
        )
        ctx = TraceContext(
            trace_ids=tuple(r.trace_id for r in batch),
            batch=len(self.service.works),
        )
        queries = np.stack([r.query for r in batch]).astype(np.float32)
        report = self.service.submit(queries, k=k, trace=ctx, nprobe=eff_nprobe)
        work = self.service.works[-1]
        b = len(self.works)
        charge_s = self._charge_pending(work, b)
        self.works.append(work)
        self.releases.append(close_t)
        self.reports.append(report)
        for resource in report.deaths:
            self._kills.setdefault(resource, b)
        total_s = report.result.timing.total_s + charge_s
        self._est_batch_s = (
            total_s
            if self._est_batch_s is None
            else self.ewma_alpha * total_s
            + (1.0 - self.ewma_alpha) * self._est_batch_s
        )
        self._busy_until_s = max(close_t, self._busy_until_s) + total_s
        for req in batch:
            req.finish(STATUS_COMPLETED)
            req.batch = b
            req.nprobe = eff_nprobe
            req.coverage = report.coverage_floor
        if eff_nprobe < configured:
            logger.info(
                "batch %d degraded: n_probe %d -> %d (queue wait %.3f ms)",
                b,
                configured,
                eff_nprobe,
                (close_t - oldest) * 1e3,
            )

    def _charge_pending(self, work: BatchWork, batch: int) -> float:
        """Append pending shed/cancel spans to ``work``; total charge."""
        charge = 0.0
        for stage, req, _t in self._pending:
            work.work(HOST_CPU, stage, SHED_CHARGE_S, trace_ids=(req.trace_id,))
            req.batch = batch
            charge += SHED_CHARGE_S
        self._pending.clear()
        return charge

    def _flush_pending(self) -> None:
        """Trailing request-plane batch for charges with no batch left."""
        if not self._pending:
            return
        work = BatchWork(
            dpu_frequency_hz=self.service.engine.config.pim.dpu.frequency_hz,
            batch=len(self.works),
        )
        release = max(
            [t for _s, _r, t in self._pending]
            + ([self.releases[-1]] if self.releases else [0.0])
        )
        self._charge_pending(work, len(self.works))
        self.works.append(work)
        self.releases.append(release)

    # --- Post-run accounting -------------------------------------------

    def _stream_schedule(self) -> tuple[BatchSchedule, EventEngine]:
        """Execute the retained stream through the event core.

        Queue-wait emerges from genuine lane contention, and each
        batch is released no earlier than the time it closed.
        """
        engine = EventEngine()
        combined = execute_stream(
            self.works,
            overlap=self.service.overlap,
            kills=self._kills,
            engine=engine,
            releases=self.releases,
        )
        self.service.last_event_engine = engine
        observe_lane_stats(engine.lane_stats, schedule=combined)
        debug_sanitize_schedule(combined, label="serving stream run")
        return combined, engine

    def _finalize_latencies(
        self, requests: list[Request], schedule: BatchSchedule
    ) -> None:
        """Per-request end-to-end latency from the combined stream.

        A request's completion is the end of the last span carrying its
        trace id (the batch-wide aggregate for executed requests, the
        shed/cancel span for rejected ones); latency is measured from
        arrival, so queue wait — real lane contention plus release
        gaps — is inside it.
        """
        ids, _ready, end = schedule.query_windows()
        ends = dict(zip(ids, end.tolist()))
        for req in requests:
            end_s = ends.get(req.trace_id)
            if end_s is None:
                raise ConfigError(
                    f"request {req.trace_id} owns no span in the stream"
                )
            req.latency_s = max(0.0, end_s - req.arrival_s)

    def _export_metrics(self, result: FrontendResult) -> None:
        reg = get_registry()
        ledger = result.ledger()
        offered = reg.counter(
            "repro_serving_offered_total",
            "requests offered to the frontend",
            labelnames=("tenant",),
        )
        admitted = reg.counter(
            "repro_serving_admitted_total",
            "requests admitted and executed",
            labelnames=("tenant",),
        )
        shed = reg.counter(
            "repro_serving_shed_total",
            "requests shed at intake",
            labelnames=("tenant", "reason"),
        )
        timed_out = reg.counter(
            "repro_serving_timed_out_total",
            "queued requests cancelled past their deadline",
            labelnames=("tenant",),
        )
        for name, row in ledger["tenants"].items():
            offered.labels(tenant=name).inc(row["offered"])
            admitted.labels(tenant=name).inc(row["admitted"])
            timed_out.labels(tenant=name).inc(row["timed_out"])
            for reason, count in row["shed_by_reason"].items():
                shed.labels(tenant=name, reason=reason).inc(count)
        reg.counter(
            "repro_serving_batches_total", "batches the frontend submitted"
        ).inc(len(self.reports))
        reg.gauge(
            "repro_serving_goodput_qps",
            "completed-within-SLO requests per simulated second",
        ).set(result.goodput_qps())
