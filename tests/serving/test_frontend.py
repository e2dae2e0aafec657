"""The serving frontend: degenerate parity, overload, timeouts, faults.

Four contracts:

1. **Degenerate bit-identity.**  A single tenant with no deadline and
   ``shedding=False`` reproduces plain ``OnlineService.submit`` results
   bit-for-bit — the frontend costs nothing when its features are off.
2. **Conservation.**  ``offered == admitted + shed + timed_out`` holds
   exactly on every run, overloaded or not.
3. **Overload response.**  Under ~2x offered load the shedding frontend
   keeps admitted p99 within the SLO while the no-shedding baseline's
   p99 diverges; coverage never crosses the configured floor.
4. **Faults compose.**  A DPU dying mid-run under overload triggers
   recovery, keeps the ledger exact and leaves the combined stream
   schedule sanitizer-clean.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_queries, zipf_weights
from repro.errors import ConfigError
from repro.faults import FaultPlan, pick_replicated_unit
from repro.sanitize import sanitize_schedule
from repro.serving import (
    STATUS_COMPLETED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
    AdmissionPolicy,
    ArrivalGenerator,
    FrontendResult,
    Request,
    ServingFrontend,
    TenantConfig,
)
from repro.serving.report import percentile_ms
from repro.sim import HOST_CPU, STAGE_CANCEL, STAGE_SHED
from repro.telemetry import reset_metrics, snapshot
from repro.tracing import explain_query, make_trace_record
from repro.tracing.context import format_trace_id
from repro.workload.batch import BatchGenerator

from tests.serving.conftest import build_service

SLO_MS = 20.0


def trickle(queries, *, gap_s=1e-6, slo_ms=None, tenant="solo"):
    """Requests arriving ``gap_s`` apart, ids in arrival order."""
    out = []
    for i, q in enumerate(queries):
        t = i * gap_s
        deadline = t + slo_ms / 1e3 if slo_ms is not None else float("inf")
        out.append(
            Request(
                trace_id=format_trace_id(i),
                tenant=tenant,
                query=q,
                arrival_s=t,
                deadline_s=deadline,
            )
        )
    return out


def calibrate_capacity_qps(service_factory, *, batch_size=30) -> float:
    """Closed-loop capacity of the test deployment, in queries/s."""
    service = service_factory(batch_size=batch_size)
    dim = service.engine.config.index.dim
    rng = np.random.default_rng(99)
    totals = []
    for _ in range(3):
        queries = rng.standard_normal((batch_size, dim)).astype(np.float32)
        totals.append(service.submit(queries).result.timing.total_s)
    return batch_size / (sum(totals) / len(totals))


def overload_run(
    service_factory,
    small_dataset,
    *,
    load: float,
    shedding: bool,
    policy_kwargs: dict | None = None,
    horizon_s: float = 0.06,
    slo_ms: float = SLO_MS,
) -> FrontendResult:
    """One seeded open-loop run at ``load`` times calibrated capacity."""
    capacity = calibrate_capacity_qps(service_factory)
    tenants = (
        TenantConfig(
            name="interactive",
            rate_qps=capacity * load * 2.0 / 3.0,
            slo_ms=slo_ms,
            zipf_alpha=0.8,
        ),
        TenantConfig(
            name="batchy",
            rate_qps=capacity * load / 3.0,
            burst_factor=4.0,
            burst_period_s=0.01,
            burst_duty=0.25,
            zipf_alpha=1.2,
        ),
    )
    generator = ArrivalGenerator(tenants=tenants, seed=5, horizon_s=horizon_s)
    query_gens = {
        t.name: BatchGenerator(
            dataset=small_dataset,
            batch_size=30,
            zipf_alpha=t.zipf_alpha,
            rng=np.random.default_rng([5, i]),
        )
        for i, t in enumerate(tenants)
    }
    requests = generator.generate(query_gens)
    assert requests, "calibrated overload run must offer traffic"
    frontend = ServingFrontend(
        service=service_factory(),
        tenants=tenants,
        policy=AdmissionPolicy(shedding=shedding, **(policy_kwargs or {})),
        max_batch=30,
        max_delay_s=0.003,
    )
    return frontend.run(requests)


def assert_conservation(result: FrontendResult) -> dict:
    ledger = result.ledger()
    totals = ledger["totals"]
    assert totals["offered"] == len(result.requests)
    assert (
        totals["offered"]
        == totals["admitted"] + totals["shed"] + totals["timed_out"]
    )
    for row in ledger["tenants"].values():
        assert (
            row["offered"] == row["admitted"] + row["shed"] + row["timed_out"]
        )
        assert sum(row["shed_by_reason"].values()) == row["shed"]
    return totals


class TestDegenerateParity:
    def test_closed_loop_matches_service_bit_for_bit(
        self, service_factory, small_dataset
    ):
        """Single tenant, no SLO, shedding off: plain submit, exactly."""
        queries = make_queries(
            small_dataset,
            60,
            popularity=zipf_weights(24, 0.8),
            rng=np.random.default_rng(21),
        )
        frontend = ServingFrontend(
            service=service_factory(),
            tenants=(TenantConfig(name="solo", rate_qps=1.0),),
            policy=AdmissionPolicy(shedding=False),
            max_batch=30,
        )
        result = frontend.run(trickle(queries))

        reference = service_factory()
        ref_reports = [
            reference.submit(queries[:30]),
            reference.submit(queries[30:]),
        ]

        assert len(result.reports) == 2
        for got, want in zip(result.reports, ref_reports):
            assert np.array_equal(got.result.ids, want.result.ids)
            assert np.array_equal(got.result.distances, want.result.distances)
            # Timings too: the frontend added no modeled work.
            assert got.result.timing.total_s == want.result.timing.total_s
            assert got.result.degraded is None
        # Frontend trace ids are the ids the service itself would mint
        # (sequential from intake), so span identities line up too.
        for b in range(2):
            batch_reqs = [r for r in result.requests if r.batch == b]
            assert [r.trace_id for r in batch_reqs] == [
                format_trace_id(30 * b + i) for i in range(30)
            ]

        totals = assert_conservation(result)
        assert totals["admitted"] == 60
        assert totals["shed"] == 0 and totals["timed_out"] == 0
        assert all(r.status == STATUS_COMPLETED for r in result.requests)
        assert result.coverage_floor() == 1.0
        assert sanitize_schedule(result.schedule) == []

    def test_latencies_cover_queue_wait(self, service_factory, small_dataset):
        """Request latency is measured from arrival, not batch close."""
        queries = make_queries(
            small_dataset, 30, rng=np.random.default_rng(22)
        )
        frontend = ServingFrontend(
            service=service_factory(),
            tenants=(TenantConfig(name="solo", rate_qps=1.0),),
            policy=AdmissionPolicy(shedding=False),
            max_batch=30,
        )
        result = frontend.run(trickle(queries, gap_s=1e-5))
        lats = result.latencies_ms()
        assert lats.size == 30
        assert np.all(lats > 0)
        # The first arrival waited for the whole coalescing window; the
        # last barely waited — so latencies are not all equal.
        assert lats.max() > lats.min()


class TestValidation:
    def test_unsorted_arrivals_rejected(self, service_factory, small_dataset):
        queries = make_queries(small_dataset, 2, rng=np.random.default_rng(1))
        frontend = ServingFrontend(
            service=service_factory(),
            tenants=(TenantConfig(name="solo", rate_qps=1.0),),
        )
        reqs = trickle(queries)
        reqs.reverse()
        with pytest.raises(ConfigError, match="sorted"):
            frontend.run(reqs)

    def test_needs_a_tenant(self, service_factory):
        with pytest.raises(ConfigError, match="tenant"):
            ServingFrontend(service=service_factory(), tenants=())

    def test_bad_ewma_alpha_rejected(self, service_factory):
        with pytest.raises(ConfigError, match="ewma_alpha"):
            ServingFrontend(
                service=service_factory(),
                tenants=(TenantConfig(name="solo", rate_qps=1.0),),
                ewma_alpha=0.0,
            )


class TestOverload:
    @pytest.fixture(scope="class")
    def overload_pair(self, small_dataset, trained_index, history_queries):
        """The 2x-overload run, with and without shedding (same seed)."""

        def factory(**kw):
            return build_service(
                small_dataset, trained_index, history_queries, **kw
            )

        shed = overload_run(
            factory, small_dataset, load=2.0, shedding=True
        )
        base = overload_run(
            factory, small_dataset, load=2.0, shedding=False
        )
        return shed, base

    def test_conservation_exact_under_overload(self, overload_pair):
        shed, base = overload_pair
        totals = assert_conservation(shed)
        assert totals["shed"] + totals["timed_out"] > 0
        base_totals = assert_conservation(base)
        assert base_totals["shed"] == 0 and base_totals["timed_out"] == 0

    def test_same_seed_same_offered_traffic(self, overload_pair):
        shed, base = overload_pair
        assert len(shed.requests) == len(base.requests)
        for a, b in zip(shed.requests, base.requests):
            assert a.trace_id == b.trace_id
            assert a.arrival_s == b.arrival_s
            assert a.tenant == b.tenant

    def test_shedding_keeps_admitted_p99_within_slo(self, overload_pair):
        shed, base = overload_pair
        shed_p99 = percentile_ms(shed.latencies_ms("interactive"), 99)
        base_p99 = percentile_ms(base.latencies_ms("interactive"), 99)
        assert shed_p99 <= SLO_MS
        assert base_p99 > SLO_MS
        assert shed.goodput_qps() > base.goodput_qps()

    def test_coverage_never_crosses_the_floor(self, overload_pair):
        shed, _base = overload_pair
        policy_floor = AdmissionPolicy().min_coverage
        assert policy_floor - 1e-12 <= shed.coverage_floor() <= 1.0
        for req in shed.by_status(STATUS_COMPLETED):
            assert req.nprobe is not None and req.nprobe >= 1

    def test_schedules_stay_sanitizer_clean(self, overload_pair):
        shed, base = overload_pair
        assert sanitize_schedule(shed.schedule) == []
        assert sanitize_schedule(base.schedule) == []

    def test_shed_requests_own_spans(self, overload_pair):
        shed, _base = overload_pair
        rejected = shed.by_status(STATUS_SHED)
        assert rejected, "2x overload must shed"
        shed_span_ids = set()
        for span in shed.schedule.timeline(HOST_CPU).spans:
            if span.stage == STAGE_SHED and span.trace is not None:
                shed_span_ids.update(span.trace.trace_ids)
        for req in rejected:
            assert req.trace_id in shed_span_ids
            assert req.shed_reason is not None
            assert req.latency_s is not None and req.latency_s >= 0.0

    def test_explain_annotates_a_shed_request(self, overload_pair):
        shed, _base = overload_pair
        record = make_trace_record(
            name="overload", config={}, schedule=shed.schedule
        )
        victim = shed.by_status(STATUS_SHED)[0]
        exp = explain_query(record, victim.trace_id)
        notes = " ".join(c.annotation for c in exp.ranked)
        assert "shed at intake" in notes

    def test_metrics_exported(
        self, small_dataset, trained_index, history_queries
    ):
        reset_metrics()

        def factory(**kw):
            return build_service(
                small_dataset, trained_index, history_queries, **kw
            )

        result = overload_run(
            factory, small_dataset, load=2.0, shedding=True, horizon_s=0.02
        )
        totals = result.ledger()["totals"]
        snap = snapshot()
        by_name = {m["name"]: m for m in snap["metrics"]}
        offered = sum(
            s["value"] for s in by_name["repro_serving_offered_total"]["samples"]
        )
        shed_count = sum(
            s["value"] for s in by_name["repro_serving_shed_total"]["samples"]
        )
        assert offered == totals["offered"]
        assert shed_count == totals["shed"]
        assert by_name["repro_serving_goodput_qps"]["samples"][0]["value"] > 0


class TestTimeouts:
    def test_queued_requests_time_out_past_deadline(
        self, service_factory, small_dataset
    ):
        """Deep queues + a tight SLO: waiting requests get cancelled."""
        result = overload_run(
            service_factory,
            small_dataset,
            load=3.0,
            shedding=True,
            slo_ms=1.0,
            horizon_s=0.02,
            # Huge queues and a toothless predictor: requests must be
            # admitted first to die waiting.
            policy_kwargs={
                "max_queue_depth": 10_000,
                "predicted_wait_slack": 1e6,
            },
        )
        totals = assert_conservation(result)
        assert totals["timed_out"] > 0
        cancelled = result.by_status(STATUS_TIMED_OUT)
        cancel_ids = set()
        for span in result.schedule.timeline(HOST_CPU).spans:
            if span.stage == STAGE_CANCEL and span.trace is not None:
                cancel_ids.update(span.trace.trace_ids)
        for req in cancelled:
            assert req.trace_id in cancel_ids
            # Admitted, then cancelled: it reached the queue.
            assert req.admitted_s is not None
        assert sanitize_schedule(result.schedule) == []


class TestFaultInteraction:
    def test_dpu_death_under_overload_recovers_and_reconciles(
        self, small_dataset, trained_index, history_queries
    ):
        """Satellite: a tenant being shed while a DPU dies mid-flight."""
        service = build_service(small_dataset, trained_index, history_queries)
        target = pick_replicated_unit(service.engine.placement)
        assert target is not None
        service.engine.inject(FaultPlan.from_specs([f"dpu:{target}@1"]))

        # Calibrate on a fresh fault-free service; run on the armed one.
        capacity = calibrate_capacity_qps(
            lambda **kw: build_service(
                small_dataset, trained_index, history_queries, **kw
            )
        )
        tenants = (
            TenantConfig(
                name="interactive",
                rate_qps=capacity * 2.0,
                slo_ms=SLO_MS,
            ),
        )
        generator = ArrivalGenerator(tenants=tenants, seed=9, horizon_s=0.03)
        gens = {
            "interactive": BatchGenerator(
                dataset=small_dataset,
                batch_size=30,
                rng=np.random.default_rng([9, 0]),
            )
        }
        frontend = ServingFrontend(
            service=service,
            tenants=tenants,
            policy=AdmissionPolicy(shedding=True),
            max_batch=30,
            max_delay_s=0.003,
        )
        result = frontend.run(generator.generate(gens))

        totals = assert_conservation(result)
        assert totals["shed"] + totals["timed_out"] > 0
        assert len(result.reports) > 1
        # The death fired and the service recovered around it.
        assert service.engine.fault_state is not None
        assert target in service.engine.fault_state.dead
        assert service.recovery_count >= 1
        # Coverage stayed positive on every batch, and the combined
        # stream (shed charges + kill fence included) is ledger-clean.
        assert 0.0 < result.coverage_floor() <= 1.0
        assert sanitize_schedule(result.schedule) == []

    def test_death_keyed_by_the_frontend_stream_position(
        self, small_dataset, trained_index, history_queries, monkeypatch
    ):
        """The frontend's stream starts at position 0 even when its
        engine and service served batches before it: a death observed by
        the frontend's batch 1 fences the lane at batch 1 of that stream,
        not at the fault plane's batch count."""
        import repro.serving.frontend as frontend_mod

        service = build_service(small_dataset, trained_index, history_queries)
        engine = service.engine
        target = pick_replicated_unit(engine.placement)
        assert target is not None
        # Engine batch 0 runs outside any service, service batch 0
        # before the frontend; the death lands on the frontend's batch 1.
        engine.inject(FaultPlan.from_specs([f"dpu:{target}@3"]))
        warmup = make_queries(small_dataset, 30, rng=np.random.default_rng(23))
        engine.search_batch(warmup)
        service.submit(warmup)

        seen: list[dict] = []
        real = frontend_mod.execute_stream

        def spy(works, **kwargs):
            seen.append(dict(kwargs["kills"]))
            return real(works, **kwargs)

        monkeypatch.setattr(frontend_mod, "execute_stream", spy)
        frontend = ServingFrontend(
            service=service,
            tenants=(TenantConfig(name="solo", rate_qps=1.0),),
            policy=AdmissionPolicy(shedding=False),
            max_batch=30,
        )
        queries = make_queries(small_dataset, 90, rng=np.random.default_rng(24))
        result = frontend.run(trickle(queries))

        assert [bool(r.deaths) for r in result.reports] == [False, True, False]
        assert seen == [{f"dpu/{target}": 1}]
        assert sanitize_schedule(result.schedule) == []
