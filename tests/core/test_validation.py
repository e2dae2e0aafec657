"""Intake validation: malformed queries fail typed, at the door."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.validation import validate_queries
from repro.errors import ConfigError, InvalidQueryError
from repro.serving import AdmissionPolicy, Request, ServingFrontend, TenantConfig
from repro.tracing.context import TraceContext

from tests.core.test_service import built_engine
from repro.core.service import OnlineService

DIM = 32


class TestValidateQueries:
    def test_single_vector_promoted_to_batch(self):
        out = validate_queries(np.zeros(DIM, dtype=np.float64), dim=DIM)
        assert out.shape == (1, DIM)
        assert out.dtype == np.float32
        assert out.flags["C_CONTIGUOUS"]

    def test_lists_accepted(self):
        out = validate_queries([[0.0] * DIM, [1.0] * DIM], dim=DIM)
        assert out.shape == (2, DIM)

    def test_empty_rejected(self):
        with pytest.raises(InvalidQueryError, match="empty"):
            validate_queries(np.empty((0, DIM), dtype=np.float32), dim=DIM)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidQueryError, match="dimension mismatch"):
            validate_queries(np.zeros((3, DIM + 1), dtype=np.float32), dim=DIM)

    def test_3d_rejected(self):
        with pytest.raises(InvalidQueryError, match="ndim"):
            validate_queries(np.zeros((2, 3, DIM), dtype=np.float32), dim=DIM)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_row_index(self, bad):
        queries = np.zeros((4, DIM), dtype=np.float32)
        queries[2, 5] = bad
        with pytest.raises(InvalidQueryError, match="row: 2"):
            validate_queries(queries, dim=DIM)

    def test_non_numeric_rejected(self):
        with pytest.raises(InvalidQueryError, match="not a numeric array"):
            validate_queries([["a"] * DIM], dim=DIM)

    def test_invalid_query_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            validate_queries([], dim=DIM)


class TestServiceIntake:
    @pytest.fixture
    def service(self, small_dataset, trained_index, history_queries):
        return OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries)
        )

    def test_empty_batch_rejected(self, service):
        with pytest.raises(InvalidQueryError, match="empty"):
            service.submit(np.empty((0, DIM), dtype=np.float32))

    def test_dim_mismatch_rejected(self, service):
        with pytest.raises(InvalidQueryError, match="dimension mismatch"):
            service.submit(np.zeros((2, DIM + 3), dtype=np.float32))

    def test_nan_rejected(self, service):
        queries = np.zeros((2, DIM), dtype=np.float32)
        queries[1, 0] = np.nan
        with pytest.raises(InvalidQueryError, match="non-finite"):
            service.submit(queries)

    def test_rejected_batch_leaves_no_state(self, service):
        with pytest.raises(InvalidQueryError):
            service.submit(np.empty((0, DIM), dtype=np.float32))
        assert service.works == []
        assert service.latency.n_batches == 0

    def test_trace_stream_position_mismatch_rejected(
        self, service, small_queries
    ):
        ctx = TraceContext.for_batch(len(small_queries), batch=3)
        with pytest.raises(ConfigError, match="stream"):
            service.submit(small_queries, trace=ctx)

    def test_trace_id_count_mismatch_rejected(self, service, small_queries):
        ctx = TraceContext.for_batch(len(small_queries) - 1, batch=0)
        with pytest.raises(ConfigError, match="ids for"):
            service.submit(small_queries, trace=ctx)

    def test_nprobe_override_bounds(self, service, small_queries):
        cfg = service.engine.config.query.nprobe
        with pytest.raises(ConfigError, match="outside"):
            service.submit(small_queries, nprobe=cfg + 1)
        with pytest.raises(ConfigError, match="outside"):
            service.submit(small_queries, nprobe=0)
        with pytest.raises(ConfigError, match="integer"):
            service.submit(small_queries, nprobe=2.5)

    def test_nprobe_override_scales_coverage(self, service, small_queries):
        cfg = service.engine.config.query.nprobe
        report = service.submit(small_queries, nprobe=cfg // 2)
        deg = report.result.degraded
        assert deg is not None
        assert np.allclose(deg.coverage, (cfg // 2) / cfg)
        assert report.coverage_floor == pytest.approx((cfg // 2) / cfg)


class TestFrontendIntake:
    def test_frontend_rejects_non_finite_queries(
        self, small_dataset, trained_index, history_queries
    ):
        """The frontend funnels through the same validation gate."""
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries)
        )
        frontend = ServingFrontend(
            service=service,
            tenants=(TenantConfig(name="solo", rate_qps=1.0),),
            policy=AdmissionPolicy(shedding=False),
            max_batch=2,
        )
        bad = np.zeros(DIM, dtype=np.float32)
        bad[0] = np.nan
        requests = [
            Request(
                trace_id=f"q{n:06d}",
                tenant="solo",
                query=bad,
                arrival_s=n * 1e-6,
            )
            for n in range(2)
        ]
        with pytest.raises(InvalidQueryError, match="non-finite"):
            frontend.run(requests)
