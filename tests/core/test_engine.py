"""UpANNS engine tests: end-to-end correctness and accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.pim_naive import PIM_NAIVE_CONFIG
from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.errors import ConfigError, NotTrainedError
from repro.hardware.specs import PimSystemSpec
from tests.core.looped_oracle import DMA_FAMILIES, LoopedUpANNSEngine, observed_search


def make_config(upanns=None, nprobe=8, k=5, n_dpus=16, timing_scale=1.0):
    pim = PimSystemSpec(n_dimms=1, chips_per_dimm=n_dpus // 8 or 1, dpus_per_chip=8)
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=nprobe, k=k, batch_size=40),
        upanns=upanns if upanns is not None else UpANNSConfig(),
        pim=pim,
        timing_scale=timing_scale,
    )


@pytest.fixture(scope="module")
def built_engine(small_dataset, trained_index, history_queries):
    eng = UpANNSEngine(make_config())
    eng.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return eng


class TestLifecycle:
    def test_search_before_build_raises(self):
        eng = UpANNSEngine(make_config())
        with pytest.raises(NotTrainedError):
            eng.search_batch(np.zeros((2, 32), np.float32))

    def test_refresh_before_build_raises(self):
        with pytest.raises(NotTrainedError):
            UpANNSEngine(make_config()).refresh_placement()

    def test_prebuilt_geometry_checked(self, small_dataset, trained_index):
        cfg = SystemConfig(
            index=IndexConfig(dim=32, n_clusters=16, m=8, train_iters=2),
            pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        )
        eng = UpANNSEngine(cfg)
        with pytest.raises(ConfigError):
            eng.build(small_dataset.vectors, prebuilt_index=trained_index)

    def test_build_from_scratch(self, small_dataset):
        eng = UpANNSEngine(make_config())
        eng.build(small_dataset.vectors)
        assert eng.index.ntotal == small_dataset.n


class TestIntakeValidation:
    """search_batch rejects malformed queries with a typed error before
    any work — nothing is scheduled, traced or cached."""

    @staticmethod
    def _with_nan():
        q = np.zeros((3, 32), np.float32)
        q[1, 4] = np.nan
        return q

    @staticmethod
    def _with_inf():
        q = np.zeros((3, 32), np.float32)
        q[2, 0] = np.inf
        return q

    @staticmethod
    def _with_neg_inf():
        q = np.zeros((3, 32), np.float32)
        q[0, 31] = -np.inf
        return q

    @pytest.mark.parametrize(
        "make_bad, message",
        [
            (_with_nan, "non-finite values \\(first bad row: 1\\)"),
            (_with_inf, "non-finite values \\(first bad row: 2\\)"),
            (_with_neg_inf, "non-finite values \\(first bad row: 0\\)"),
            (lambda: np.zeros((4, 16), np.float32), "dimension mismatch"),
            (lambda: np.zeros((0, 32), np.float32), "empty"),
            (lambda: np.zeros((2, 2, 32), np.float32), "ndim=3"),
            (lambda: [["a"] * 32], "not a numeric array"),
        ],
        ids=["nan", "inf", "neg_inf", "wrong_dim", "empty", "ndim3", "non_numeric"],
    )
    def test_rejected(self, built_engine, make_bad, message):
        from repro.errors import InvalidQueryError

        cached = len(built_engine.lut_cache)
        seen = built_engine.trace.frequencies().copy()
        with pytest.raises(InvalidQueryError, match=message):
            built_engine.search_batch(make_bad())
        assert len(built_engine.lut_cache) == cached
        np.testing.assert_array_equal(built_engine.trace.frequencies(), seen)

    def test_single_vector_promoted(self, built_engine, small_queries):
        one = built_engine.search_batch(small_queries[0])
        batch = built_engine.search_batch(small_queries[:1])
        np.testing.assert_array_equal(one.ids, batch.ids)


class TestFunctionalExactness:
    @pytest.mark.parametrize(
        "upanns",
        [UpANNSConfig(), PIM_NAIVE_CONFIG, UpANNSConfig(enable_cae=False)],
        ids=["upanns", "pim-naive", "no-cae"],
    )
    def test_engine_matches_reference_index(
        self, small_dataset, trained_index, history_queries, small_queries, upanns
    ):
        """The paper: 'the optimizations in UpANNS do not impact the
        accuracy' — every engine variant returns the reference results."""
        eng = UpANNSEngine(make_config(upanns=upanns))
        eng.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        res = eng.search_batch(small_queries)
        ref = trained_index.search(small_queries, 5, 8)
        np.testing.assert_allclose(
            np.where(np.isfinite(res.distances), res.distances, -1),
            np.where(np.isfinite(ref.distances), ref.distances, -1),
            rtol=1e-4,
            atol=1e-4,
        )

    def test_k_override(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries, k=3)
        assert res.ids.shape == (len(small_queries), 3)

    def test_deterministic(self, built_engine, small_queries):
        a = built_engine.search_batch(small_queries)
        b = built_engine.search_batch(small_queries)
        np.testing.assert_array_equal(a.ids, b.ids)


class TestAccounting:
    def test_timing_components_positive(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries)
        t = res.timing
        assert t.host_filter_s > 0
        assert t.dpu_makespan_s > 0
        assert t.total_s == pytest.approx(
            t.host_filter_s
            + t.host_schedule_s
            + t.transfer_in_s
            + t.dpu_makespan_s
            + t.transfer_out_s
            + t.host_aggregate_s
        )

    def test_qps_consistent_with_total(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries)
        assert res.qps == pytest.approx(len(small_queries) / res.timing.total_s)

    def test_stage_seconds_sum_close_to_makespan(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries)
        dpu_stage_total = (
            res.stage_seconds.lut_construction
            + res.stage_seconds.distance_calc
            + res.stage_seconds.topk_selection
        )
        assert dpu_stage_total == pytest.approx(res.timing.dpu_makespan_s, rel=0.01)

    def test_heap_stats_collected(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries)
        assert res.heap_stats.comparisons > 0

    def test_trace_records_batches(self, small_dataset, trained_index, small_queries):
        eng = UpANNSEngine(make_config())
        eng.build(small_dataset.vectors, prebuilt_index=trained_index)
        before = eng.trace.total_observations
        eng.search_batch(small_queries)
        assert eng.trace.total_observations == before + small_queries.shape[0] * 8

    def test_mram_accounting(self, built_engine):
        used = built_engine.pim.total_mram_used()
        payload_bytes = sum(
            p.nbytes * len(built_engine.placement.replicas[c])
            for c, p in enumerate(built_engine._payloads)
            if p.size > 0
        )
        assert used == payload_bytes

    def test_timing_scale_slows_batch(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        slow = UpANNSEngine(make_config(timing_scale=1000.0))
        slow.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        fast = UpANNSEngine(make_config(timing_scale=1.0))
        fast.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        assert (
            slow.search_batch(small_queries).timing.dpu_makespan_s
            > 10 * fast.search_batch(small_queries).timing.dpu_makespan_s
        )  # per-pair fixed LUT costs dilute the ratio below 1000x


class TestOptimizationEffects:
    def test_placement_beats_naive_balance(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        smart = UpANNSEngine(make_config())
        smart.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        naive = UpANNSEngine(make_config(upanns=PIM_NAIVE_CONFIG))
        naive.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        r_smart = smart.search_batch(small_queries)
        r_naive = naive.search_batch(small_queries)
        assert r_smart.cycle_load_ratio < r_naive.cycle_load_ratio

    def test_cae_produces_length_reduction(self, built_engine):
        assert built_engine.length_reduction_rate() > 0.0

    def test_replication_factor_above_one_with_skew(self, built_engine):
        assert built_engine.replication_factor() > 1.0

    def test_refresh_placement_runs(self, small_dataset, trained_index, small_queries):
        eng = UpANNSEngine(make_config())
        eng.build(small_dataset.vectors, prebuilt_index=trained_index)
        eng.search_batch(small_queries)
        eng.refresh_placement()
        res = eng.search_batch(small_queries)
        ref = trained_index.search(small_queries, 5, 8)
        np.testing.assert_allclose(
            np.where(np.isfinite(res.distances), res.distances, -1),
            np.where(np.isfinite(ref.distances), ref.distances, -1),
            rtol=1e-4, atol=1e-4,
        )


TIMING_FIELDS = (
    "host_filter_s",
    "host_schedule_s",
    "transfer_in_s",
    "dpu_makespan_s",
    "transfer_out_s",
    "host_aggregate_s",
)


def timing_hex(timing):
    return tuple(getattr(timing, f).hex() for f in TIMING_FIELDS)


#: The grouped kernel and the per-pair reference loop (test oracle).
ENGINES = {"looped": LoopedUpANNSEngine, "grouped": UpANNSEngine}


class TestGroupedKernel:
    """The vectorized grouped path must be bit-identical to the looped
    reference — results AND every charged timing float."""

    @pytest.fixture(scope="class")
    def engine_pair(self, small_dataset, trained_index, history_queries):
        engines = {}
        for mode, engine_cls in ENGINES.items():
            eng = engine_cls(make_config())
            eng.build(
                small_dataset.vectors,
                history_queries=history_queries,
                prebuilt_index=trained_index,
            )
            engines[mode] = eng
        return engines

    def test_grouped_matches_looped_bitwise(self, engine_pair, small_queries):
        looped = engine_pair["looped"].search_batch(small_queries)
        grouped = engine_pair["grouped"].search_batch(small_queries)
        np.testing.assert_array_equal(looped.ids, grouped.ids)
        np.testing.assert_array_equal(looped.distances, grouped.distances)
        assert timing_hex(looped.timing) == timing_hex(grouped.timing)

    def _observed_batch(self, engine, queries, **kwargs):
        """One batch under a private registry: (result, per-DPU counters,
        DMA telemetry families)."""
        result, dma = observed_search(engine, queries, **kwargs)
        return result, [d.counters.as_dict() for d in engine.pim.dpus], dma

    @pytest.mark.parametrize(
        "scenario", ["fault_free", "faulted", "degraded", "nprobe1", "evicted"]
    )
    def test_grouped_matches_looped_everywhere(
        self, scenario, small_dataset, trained_index, history_queries, small_queries
    ):
        """Beyond ids and timing: distances by ``float.hex``, every DPU
        counter, the heap statistics, per-DPU busy time, the stage
        breakdown and the MRAM DMA telemetry match the looped reference
        — fault-free, with a DPU death plus transient transfer faults,
        with n_probe degraded, with one probe per query (every table
        built alone), and with one table per query uncached (built
        alone beside cache hits, as after an eviction)."""
        from repro.faults import FaultPlan

        observed = {}
        for mode, engine_cls in ENGINES.items():
            eng = engine_cls(make_config())
            eng.build(
                small_dataset.vectors,
                history_queries=history_queries,
                prebuilt_index=trained_index,
            )
            kwargs = {}
            if scenario == "faulted":
                eng.inject(
                    FaultPlan.from_specs(
                        ["dpu:3@0", "transfer:5@0", "transfer:9@0"], seed=3
                    )
                )
            elif scenario == "degraded":
                kwargs["nprobe"] = 3
            elif scenario == "nprobe1":
                kwargs["nprobe"] = 1
            elif scenario == "evicted":
                # Every query's farthest probe stays uncached.
                eng.search_batch(small_queries, nprobe=eng.config.query.nprobe - 1)
            observed[mode] = self._observed_batch(eng, small_queries, **kwargs)

        (lres, lcount, ldma), (gres, gcount, gdma) = (
            observed["looped"],
            observed["grouped"],
        )
        np.testing.assert_array_equal(lres.ids, gres.ids)
        assert [x.hex() for x in lres.distances.ravel().tolist()] == [
            x.hex() for x in gres.distances.ravel().tolist()
        ]
        assert timing_hex(lres.timing) == timing_hex(gres.timing)
        assert lcount == gcount
        assert lres.heap_stats == gres.heap_stats
        assert [x.hex() for x in lres.dpu_busy_seconds.tolist()] == [
            x.hex() for x in gres.dpu_busy_seconds.tolist()
        ]
        assert {k: v.hex() for k, v in lres.stage_seconds.as_dict().items()} == {
            k: v.hex() for k, v in gres.stage_seconds.as_dict().items()
        }
        assert ldma == gdma
        assert all(ldma[name] is not None for name in DMA_FAMILIES)
        if scenario == "faulted":
            assert gres.degraded is not None
            assert gres.timing.retry_s > 0.0
        if scenario == "degraded":
            assert gres.degraded is not None

    @given(
        rows=st.lists(st.integers(0, 39), min_size=1, max_size=40),
        k=st.sampled_from([1, 5, 12]),
        nprobe=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_ledger_matches_looped(self, engine_pair, small_queries, rows, k, nprobe):
        """The replayed ledger columns (active DPUs, stage-cycle bits,
        served counts, counter deltas) equal the per-pair loop's, and so
        does every DPU's ``Counters`` after the batch."""
        from unittest import mock

        from repro.core import kernel
        from tests.core import looped_oracle

        queries = small_queries[rows]
        ledgers, counters = {}, {}
        for mode, owner, name in (
            ("grouped", kernel, "replay_batch_charges"),
            ("looped", looped_oracle, "ledger_of_stages"),
        ):
            real = getattr(owner, name)

            def capture(*args, _real=real, _mode=mode, **kwargs):
                ledgers[_mode] = _real(*args, **kwargs)
                return ledgers[_mode]

            eng = engine_pair[mode]
            with mock.patch.object(owner, name, capture):
                eng.search_batch(queries, k=k, nprobe=nprobe)
            counters[mode] = [d.counters for d in eng.pim.dpus]
        got, want = ledgers["grouped"], ledgers["looped"]
        for col in ("dpus", "queries", "pairs", "results", "deltas"):
            np.testing.assert_array_equal(getattr(got, col), getattr(want, col))
        assert [float(x).hex() for x in got.stages.ravel().tolist()] == [
            float(x).hex() for x in want.stages.ravel().tolist()
        ]
        assert counters["grouped"] == counters["looped"]
        assert any(c.instructions for c in counters["grouped"])

    def test_warm_repeat_batch_identical(self, engine_pair, small_queries):
        """Cross-batch caches (LUT tables, charge memos) must not change
        a repeated batch's results or charged time."""
        grouped = engine_pair["grouped"]
        first = grouped.search_batch(small_queries)
        second = grouped.search_batch(small_queries)
        np.testing.assert_array_equal(first.ids, second.ids)
        np.testing.assert_array_equal(first.distances, second.distances)
        assert timing_hex(first.timing) == timing_hex(second.timing)

    def test_clear_runtime_caches_is_functional_noop(
        self, engine_pair, small_queries
    ):
        """The batch after a clear is genuinely cold (no LUT-cache hit)
        and still returns the warm batch's results and timing."""
        from repro.telemetry.registry import MetricsRegistry, set_registry

        grouped = engine_pair["grouped"]
        warm = grouped.search_batch(small_queries)
        grouped.clear_runtime_caches()
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            cold = grouped.search_batch(small_queries)
        finally:
            set_registry(previous)
        families = {m["name"]: m for m in mine.snapshot()["metrics"]}

        def total(name):
            return sum(s["value"] for s in families[name]["samples"])

        assert total("repro_lut_cache_hits_total") == 0
        assert total("repro_lut_cache_misses_total") > 0
        np.testing.assert_array_equal(warm.ids, cold.ids)
        np.testing.assert_array_equal(warm.distances, cold.distances)
        assert timing_hex(warm.timing) == timing_hex(cold.timing)

    def test_lut_cache_hits_on_repeat_traffic(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        from repro.telemetry.registry import MetricsRegistry, set_registry

        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            eng = UpANNSEngine(make_config())
            eng.build(
                small_dataset.vectors,
                history_queries=history_queries,
                prebuilt_index=trained_index,
            )
            eng.search_batch(small_queries)
            eng.search_batch(small_queries)
            families = {m["name"]: m for m in mine.snapshot()["metrics"]}
            hits = families["repro_lut_cache_hits_total"]["samples"][0]["value"]
            misses = families["repro_lut_cache_misses_total"]["samples"][0]["value"]
        finally:
            set_registry(previous)
        # Every (query, cluster) pair misses once, then hits on repeat.
        assert misses > 0
        assert hits >= misses


class TestResultTransferBytes:
    def test_transfer_out_charged_for_actual_candidates(self, built_engine, small_queries):
        """Result DMA is sized by what the DPUs actually return: with k
        larger than every per-(query, DPU) candidate count, raising k
        further cannot change the bytes moved — the old nq*k*8 sizing
        would have doubled them.  Probing one known cluster pins the
        candidate count per (query, DPU) to that cluster's size."""
        sizes = built_engine.index.ivf.cluster_sizes()
        cluster = int(np.argmax(sizes))
        probes = np.full((len(small_queries), 1), cluster, dtype=np.int64)
        k_small = int(sizes[cluster]) + 10
        res_a = built_engine.search_batch(small_queries, k=k_small, probes=probes)
        res_b = built_engine.search_batch(
            small_queries, k=2 * k_small, probes=probes
        )
        assert res_a.timing.transfer_out_s == res_b.timing.transfer_out_s
        assert res_a.timing.transfer_out_s > 0.0
