"""Property-style guarantee: everything the simulator actually produces
sanitizes clean.

The adversarial suite proves the sanitizer *can* fire; this one proves
it *doesn't* fire on real output — engine batches (fault-free and under
a transfer-fault hazard), both overlap modes, the multi-host
decomposition, and exported Chrome traces — with the derived ledgers
(``BatchTiming``, ``StageCycles``, ``DegradedResult``) cross-checked
against the spans bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.multihost import MultiHostEngine
from repro.core.service import OnlineService
from repro.faults import FaultPlan
from repro.hardware.specs import PimSystemSpec
from repro.sanitize import sanitize_chrome_trace, sanitize_schedule
from repro.sim import execute_stream


def system_config() -> SystemConfig:
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        timing_scale=1.0,
    )


def build_engine(small_dataset, history_queries, trained_index) -> UpANNSEngine:
    engine = UpANNSEngine(system_config())
    engine.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return engine


def assert_result_sanitizes_clean(result) -> None:
    findings = sanitize_schedule(
        result.schedule,
        timing=result.timing,
        stage_seconds=result.stage_seconds,
        degraded=result.degraded,
    )
    assert findings == [], "\n".join(f.render() for f in findings)


class TestEngineOutputIsClean:
    @pytest.fixture(scope="class")
    def engine(self, small_dataset, history_queries, trained_index):
        return build_engine(small_dataset, history_queries, trained_index)

    def test_fault_free_batch(self, engine, small_queries):
        assert_result_sanitizes_clean(engine.search_batch(small_queries))

    def test_trace_round_trip(self, engine, small_queries):
        result = engine.search_batch(small_queries)
        findings = sanitize_chrome_trace(result.schedule.to_chrome_trace())
        assert findings == [], "\n".join(f.render() for f in findings)


class TestFaultedOutputIsClean:
    @pytest.fixture(scope="class")
    def service(self, small_dataset, history_queries, trained_index):
        engine = build_engine(small_dataset, history_queries, trained_index)
        engine.inject(FaultPlan.from_specs([], seed=5, transfer_hazard=0.35))
        return OnlineService(engine)

    def test_every_faulted_batch_is_clean(self, service, small_queries):
        saw_retry = False
        for _ in range(4):
            report = service.submit(small_queries)
            result = report.result
            if result.degraded is not None and result.degraded.retries:
                saw_retry = True
            assert_result_sanitizes_clean(result)
        assert saw_retry, "hazard 0.35 over 4 batches should retry at least once"

    @pytest.mark.parametrize("overlap", ["sequential", "double_buffer"])
    def test_faulted_compositions_are_clean(self, service, small_queries, overlap):
        while len(service.works) < 3:
            service.submit(small_queries)
        combined = execute_stream(service.works, overlap=overlap)
        findings = sanitize_schedule(combined)
        assert findings == [], "\n".join(f.render() for f in findings)
        trace_findings = sanitize_chrome_trace(combined.to_chrome_trace())
        assert trace_findings == [], "\n".join(
            f.render() for f in trace_findings
        )


class TestMultiHostOutputIsClean:
    def test_coordinator_schedule_is_clean(
        self, small_dataset, history_queries, trained_index, small_queries
    ):
        engine = MultiHostEngine(
            host_configs=[system_config(), system_config()]
        )
        engine.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        result = engine.search_batch(small_queries)
        findings = sanitize_schedule(result.schedule)
        assert findings == [], "\n".join(f.render() for f in findings)
