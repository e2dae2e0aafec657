"""IVFFlat-on-PIM tests: the transferability claim, executable."""

import numpy as np
import pytest

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.flat_engine import IVFFlatPimEngine, make_flat_engine
from repro.errors import ConfigError, NotTrainedError
from repro.hardware.specs import PimSystemSpec
from repro.ivfpq import FlatIndex, recall_at_k
from repro.ivfpq.ivfflat import IVFFlatIndex
from tests.core.looped_oracle import LoopedIVFFlatPimEngine


@pytest.fixture(scope="module")
def flat_index(small_dataset):
    idx = IVFFlatIndex(dim=32, n_clusters=32)
    idx.train(small_dataset.vectors, n_iter=6, rng=np.random.default_rng(3))
    idx.add(small_dataset.vectors)
    return idx


def flat_config(naive=False):
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=4, train_iters=4),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        upanns=UpANNSConfig(
            enable_cae=False,
            enable_placement=not naive,
            enable_topk_pruning=not naive,
        ),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        timing_scale=200.0,
    )


@pytest.fixture(scope="module")
def flat_engine(small_dataset, flat_index, history_queries):
    eng = IVFFlatPimEngine(flat_config())
    eng.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=flat_index,
    )
    return eng


class TestIVFFlatIndex:
    def test_search_is_exact_within_probes(self, flat_index, small_dataset, small_queries):
        """With all clusters probed, IVFFlat IS brute force."""
        flat = FlatIndex(32)
        flat.add(small_dataset.vectors)
        d_ref, i_ref = flat.search(small_queries, 10)
        d, i = flat_index.search(small_queries, 10, flat_index.n_clusters)
        np.testing.assert_array_equal(i, i_ref)
        np.testing.assert_allclose(d, d_ref, rtol=1e-3, atol=1e-2)

    def test_high_recall_at_moderate_nprobe(self, flat_index, small_dataset, small_queries):
        """No PQ distortion: recall is limited only by cluster filtering."""
        flat = FlatIndex(32)
        flat.add(small_dataset.vectors)
        _, gt = flat.search(small_queries, 10)
        _, ids = flat_index.search(small_queries, 10, 8)
        assert recall_at_k(ids, gt, 10) > 0.85

    def test_memory_is_uncompressed(self, flat_index, small_dataset):
        """The motivation for PQ: raw storage is dim x 4 bytes/vector."""
        expected = small_dataset.n * (32 * 4 + 8)
        assert flat_index.memory_bytes() == expected

    def test_lifecycle_errors(self):
        idx = IVFFlatIndex(8, 4)
        with pytest.raises(NotTrainedError):
            idx.add(np.zeros((3, 8), np.float32))
        with pytest.raises(NotTrainedError):
            idx.search(np.zeros((1, 8), np.float32), 1, 1)


class TestEngine:
    def test_results_match_reference(self, flat_engine, flat_index, small_queries):
        res = flat_engine.search_batch(small_queries)
        d_ref, i_ref = flat_index.search(small_queries, 5, 8)
        np.testing.assert_allclose(
            np.where(np.isfinite(res.distances), res.distances, -1),
            np.where(np.isfinite(d_ref), d_ref, -1),
            rtol=1e-3,
            atol=1e-2,
        )

    def test_search_before_build(self):
        with pytest.raises(NotTrainedError):
            IVFFlatPimEngine(flat_config()).search_batch(np.zeros((1, 32), np.float32))

    def test_timing_populated(self, flat_engine, small_queries):
        res = flat_engine.search_batch(small_queries)
        assert res.timing.dpu_makespan_s > 0
        assert res.qps > 0
        assert res.stage_seconds.distance_calc > 0

    def test_lut_stage_absent(self, flat_engine, small_queries):
        """No PQ means no LUT construction stage at all."""
        res = flat_engine.search_batch(small_queries)
        assert res.stage_seconds.lut_construction == 0.0

    def test_placement_transfers(self, small_dataset, flat_index, history_queries, small_queries):
        """Opt1 transfers: the placed engine balances better than the
        naive one on the same flat workload."""
        smart = IVFFlatPimEngine(flat_config())
        smart.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=flat_index,
        )
        naive = IVFFlatPimEngine(flat_config(naive=True))
        naive.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=flat_index,
        )
        assert (
            smart.search_batch(small_queries).cycle_load_ratio
            < naive.search_batch(small_queries).cycle_load_ratio
        )

    def test_pruning_transfers(self, flat_engine, small_queries):
        """Opt4 transfers: the pruned merge skips candidates here too."""
        res = flat_engine.search_batch(small_queries)
        assert res.heap_stats.pruned > 0

    def test_heavier_traffic_than_pq(
        self, small_dataset, flat_index, trained_index, history_queries, small_queries
    ):
        """Raw vectors are dim*4 bytes vs m bytes of codes: the flat
        engine must read far more MRAM for the same probes — the
        paper's case for compression at billion scale."""
        from repro.core.engine import UpANNSEngine

        flat_eng = IVFFlatPimEngine(flat_config())
        flat_eng.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=flat_index,
        )
        pq_cfg = SystemConfig(
            index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=4),
            query=QueryConfig(nprobe=8, k=5, batch_size=40),
            upanns=UpANNSConfig(),
            pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
            timing_scale=200.0,
        )
        pq_eng = UpANNSEngine(pq_cfg)
        pq_eng.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        flat_eng.search_batch(small_queries)
        pq_eng.search_batch(small_queries)
        flat_bytes = sum(d.counters.mram_read_bytes for d in flat_eng.pim.dpus)
        pq_bytes = sum(d.counters.mram_read_bytes for d in pq_eng.pim.dpus)
        assert flat_bytes > 3 * pq_bytes

    def test_factory_validates_dim(self):
        with pytest.raises(ConfigError):
            make_flat_engine(30, n_clusters=8, nprobe=2)


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


class TestGroupedScan:
    """The grouped flat scan must match the looped reference bit-for-bit."""

    @pytest.fixture(scope="class")
    def engine_pair(self, small_dataset, flat_index, history_queries):
        engines = {}
        for mode, engine_cls in (
            ("looped", LoopedIVFFlatPimEngine),
            ("grouped", IVFFlatPimEngine),
        ):
            eng = engine_cls(flat_config())
            eng.build(
                small_dataset.vectors,
                history_queries=history_queries,
                prebuilt_index=flat_index,
            )
            engines[mode] = eng
        return engines

    def test_grouped_matches_looped_bitwise(self, engine_pair, small_queries):
        looped = engine_pair["looped"].search_batch(small_queries)
        grouped = engine_pair["grouped"].search_batch(small_queries)
        np.testing.assert_array_equal(looped.ids, grouped.ids)
        np.testing.assert_array_equal(looped.distances, grouped.distances)
        assert timing_hex(looped.timing) == timing_hex(grouped.timing)

    def test_warm_repeat_batch_identical(self, engine_pair, small_queries):
        grouped = engine_pair["grouped"]
        first = grouped.search_batch(small_queries)
        second = grouped.search_batch(small_queries)
        np.testing.assert_array_equal(first.ids, second.ids)
        assert timing_hex(first.timing) == timing_hex(second.timing)

    def test_transfer_out_charged_for_actual_candidates(
        self, small_dataset, flat_index, history_queries, small_queries
    ):
        """Same contract as the PQ engine: result bytes follow the
        candidates actually returned, not the requested k.  With
        nprobe=1 each (query, DPU) worklist is one cluster, so any k
        beyond the largest cluster cannot change the bytes moved."""
        cfg = flat_config()
        cfg = SystemConfig(
            index=cfg.index,
            query=QueryConfig(nprobe=1, k=5, batch_size=40),
            upanns=cfg.upanns,
            pim=cfg.pim,
            timing_scale=cfg.timing_scale,
        )
        eng = IVFFlatPimEngine(cfg)
        eng.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=flat_index,
        )
        k_small = int(eng.index.cluster_sizes().max()) + 10
        res_a = eng.search_batch(small_queries, k=k_small)
        res_b = eng.search_batch(small_queries, k=2 * k_small)
        assert res_a.timing.transfer_out_s == res_b.timing.transfer_out_s
        assert res_a.timing.transfer_out_s > 0.0
