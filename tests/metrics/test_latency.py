"""LatencyRecorder tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.metrics.latency import LatencyRecorder


class TestRecording:
    def test_counts(self):
        rec = LatencyRecorder()
        rec.record(100, 0.1)
        rec.record(50, 0.2)
        assert rec.n_batches == 2
        assert rec.total_queries == 150

    def test_invalid_observation(self):
        rec = LatencyRecorder()
        with pytest.raises(ConfigError):
            rec.record(0, 0.1)
        with pytest.raises(ConfigError):
            rec.record(10, -1.0)

    def test_record_batch_result(self, small_dataset, trained_index, small_queries):
        from repro.config import IndexConfig, QueryConfig, SystemConfig
        from repro.core.engine import UpANNSEngine
        from repro.hardware.specs import PimSystemSpec

        cfg = SystemConfig(
            index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=2),
            query=QueryConfig(nprobe=4, k=5, batch_size=40),
            pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        )
        eng = UpANNSEngine(cfg)
        eng.build(small_dataset.vectors, prebuilt_index=trained_index)
        rec = LatencyRecorder()
        rec.record_batch_result(eng.search_batch(small_queries))
        assert rec.total_queries == len(small_queries)
        assert rec.mean_qps() > 0


class TestStatistics:
    def test_per_query_ms(self):
        rec = LatencyRecorder()
        rec.record(10, 0.01)  # 1 ms/query
        rec.record(10, 0.02)  # 2 ms/query
        np.testing.assert_allclose(rec.per_query_ms(), [1.0, 2.0])

    def test_percentiles_ordered(self):
        rec = LatencyRecorder()
        rng = np.random.default_rng(0)
        for s in rng.uniform(0.01, 0.1, size=100):
            rec.record(10, float(s))
        assert rec.percentile_ms(50) <= rec.percentile_ms(95) <= rec.percentile_ms(99)

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(10, 0.01)
        s = rec.summary()
        assert set(s) == {"p50_ms", "p95_ms", "p99_ms", "mean_qps"}
        assert s["mean_qps"] == pytest.approx(1000.0)

    def test_empty_recorder_rejects_stats(self):
        with pytest.raises(ConfigError):
            LatencyRecorder().per_query_ms()
        with pytest.raises(ConfigError):
            LatencyRecorder().mean_qps()

    def test_bad_percentile(self):
        rec = LatencyRecorder()
        rec.record(1, 0.001)
        with pytest.raises(ConfigError):
            rec.percentile_ms(150)
        with pytest.raises(ConfigError):
            rec.percentile_ms(-1)

    def test_empty_recorder_rejects_percentiles(self):
        with pytest.raises(ConfigError):
            LatencyRecorder().percentile_ms(50)
        with pytest.raises(ConfigError):
            LatencyRecorder().summary()

    def test_single_batch_percentiles_collapse(self):
        rec = LatencyRecorder()
        rec.record(10, 0.05)  # 5 ms/query
        for q in (0, 50, 95, 99, 100):
            assert rec.percentile_ms(q) == pytest.approx(5.0)

    def test_zero_seconds_batch_is_legal_but_unrateable(self):
        rec = LatencyRecorder()
        rec.record(10, 0.0)
        assert rec.per_query_ms()[0] == 0.0
        with pytest.raises(ConfigError):
            rec.mean_qps()  # no elapsed time to divide by


histories = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


class TestOnePercentileCall:
    """``percentiles_ms`` (one ``np.percentile`` call for p50/p95/p99,
    as ``OnlineService.submit`` uses it) against one call per q over the
    per-query list rebuilt from every batch, by ``float.hex``."""

    @settings(max_examples=300, deadline=None)
    @given(histories)
    def test_multi_q_equals_single_calls(self, history):
        rec = LatencyRecorder()
        for n, s in history:
            rec.record(n, s)
        rebuilt = np.array([s / n * 1e3 for n, s in history])
        assert rec.per_query_ms().tobytes() == rebuilt.tobytes()
        got = rec.percentiles_ms((50, 95, 99))
        want = tuple(float(np.percentile(rebuilt, q)) for q in (50, 95, 99))
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert [rec.percentile_ms(q).hex() for q in (50, 95, 99)] == [
            v.hex() for v in want
        ]

    def test_bad_q_in_sequence(self):
        rec = LatencyRecorder()
        rec.record(1, 0.001)
        with pytest.raises(ConfigError):
            rec.percentiles_ms((50, 101))
