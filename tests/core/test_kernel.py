"""DPU kernel tests: functional exactness + charge accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cooccurrence import mine_combinations
from repro.core.encoding import encode_cluster
from repro.core.kernel import ClusterPayload, KernelConfig, run_query_on_dpu
from repro.errors import ConfigError
from repro.hardware.dpu import DPU
from repro.ivfpq.adc import adc_distances, adc_distances_direct, topk_from_distances
from repro.ivfpq.lut import build_lut


@pytest.fixture
def dpu():
    return DPU(dpu_id=0, n_tasklets=11)


def make_payloads(index, cluster_ids, cae=False):
    payloads = []
    for c in cluster_ids:
        cl = index.ivf.lists[c]
        if cae:
            model = mine_combinations(cl.codes, top_m=64)
            payloads.append(
                ClusterPayload(
                    cluster_id=c,
                    ids=cl.ids,
                    encoded=encode_cluster(cl.codes, model),
                    cooc=model,
                )
            )
        else:
            payloads.append(ClusterPayload(cluster_id=c, ids=cl.ids, codes=cl.codes))
    return payloads


def reference_topk(index, query, cluster_ids, k):
    all_ids, all_d = [], []
    for c in cluster_ids:
        cl = index.ivf.lists[c]
        if cl.size == 0:
            continue
        lut = build_lut(index.pq, query, index.ivf.centroids[c])
        all_ids.append(cl.ids)
        all_d.append(adc_distances(cl.codes, lut))
    return topk_from_distances(np.concatenate(all_ids), np.concatenate(all_d), k)


def nonempty_clusters(index, n):
    sizes = index.ivf.cluster_sizes()
    return [int(c) for c in np.argsort(sizes)[::-1][:n]]


class TestFunctionalExactness:
    @pytest.mark.parametrize("cae", [False, True])
    def test_kernel_equals_reference(self, dpu, trained_index, small_queries, cae):
        clusters = nonempty_clusters(trained_index, 3)
        payloads = make_payloads(trained_index, clusters, cae=cae)
        out = run_query_on_dpu(
            dpu,
            trained_index.pq,
            trained_index.ivf.centroids,
            payloads,
            small_queries[0],
            KernelConfig(k=5),
        )
        ref_ids, ref_d = reference_topk(trained_index, small_queries[0], clusters, 5)
        np.testing.assert_allclose(out.distances, ref_d, rtol=1e-4, atol=1e-4)

    def test_no_payloads_rejected(self, dpu, trained_index, small_queries):
        with pytest.raises(ConfigError):
            run_query_on_dpu(
                dpu,
                trained_index.pq,
                trained_index.ivf.centroids,
                [],
                small_queries[0],
                KernelConfig(),
            )

    def test_precomputed_luts_equivalent(self, dpu, trained_index, small_queries):
        clusters = nonempty_clusters(trained_index, 2)
        payloads = make_payloads(trained_index, clusters)
        luts = {
            c: build_lut(trained_index.pq, small_queries[0], trained_index.ivf.centroids[c])
            for c in clusters
        }
        out_pre = run_query_on_dpu(
            dpu, trained_index.pq, trained_index.ivf.centroids,
            payloads, small_queries[0], KernelConfig(k=5), luts=luts,
        )
        out_own = run_query_on_dpu(
            DPU(dpu_id=1, n_tasklets=11), trained_index.pq,
            trained_index.ivf.centroids, payloads, small_queries[0], KernelConfig(k=5),
        )
        np.testing.assert_allclose(out_pre.distances, out_own.distances, rtol=1e-5)


class TestCharging:
    def test_counters_accumulate(self, dpu, trained_index, small_queries):
        clusters = nonempty_clusters(trained_index, 2)
        payloads = make_payloads(trained_index, clusters)
        run_query_on_dpu(
            dpu, trained_index.pq, trained_index.ivf.centroids,
            payloads, small_queries[0], KernelConfig(k=5),
        )
        c = dpu.counters
        assert c.instructions > 0
        assert c.mram_read_bytes > 0
        assert c.barriers >= 3 * len(clusters)

    def test_stage_cycles_positive(self, dpu, trained_index, small_queries):
        clusters = nonempty_clusters(trained_index, 2)
        payloads = make_payloads(trained_index, clusters)
        out = run_query_on_dpu(
            dpu, trained_index.pq, trained_index.ivf.centroids,
            payloads, small_queries[0], KernelConfig(k=5),
        )
        assert out.stage.lut_construction > 0
        assert out.stage.distance_calc > 0
        assert out.stage.topk_selection > 0

    def test_workload_scale_multiplies_distance_charges(
        self, trained_index, small_queries
    ):
        clusters = nonempty_clusters(trained_index, 2)
        payloads = make_payloads(trained_index, clusters)
        outs = {}
        for scale in (1.0, 100.0):
            d = DPU(dpu_id=0, n_tasklets=11)
            outs[scale] = run_query_on_dpu(
                d, trained_index.pq, trained_index.ivf.centroids,
                payloads, small_queries[0],
                KernelConfig(k=5, workload_scale=scale),
            )
        ratio = outs[100.0].stage.distance_calc / outs[1.0].stage.distance_calc
        assert ratio > 20  # distance stage scales (barrier overhead fixed)
        # LUT stage is scale-independent.
        assert outs[100.0].stage.lut_construction == pytest.approx(
            outs[1.0].stage.lut_construction, rel=0.01
        )

    def test_cae_reduces_scan_traffic(self, trained_index, small_queries):
        """Opt3's purpose: fewer tokens -> fewer MRAM bytes read."""
        sizes = trained_index.ivf.cluster_sizes()
        c = int(np.argmax(sizes))
        plain = make_payloads(trained_index, [c], cae=False)[0]
        cae = make_payloads(trained_index, [c], cae=True)[0]
        assert cae.token_count <= plain.token_count

    def test_more_tasklets_fewer_cycles(self, trained_index, small_queries):
        clusters = nonempty_clusters(trained_index, 2)
        payloads = make_payloads(trained_index, clusters)
        totals = {}
        for t in (1, 11):
            d = DPU(dpu_id=0, n_tasklets=t)
            out = run_query_on_dpu(
                d, trained_index.pq, trained_index.ivf.centroids,
                payloads, small_queries[0],
                KernelConfig(k=5, n_tasklets=t, workload_scale=50.0),
            )
            totals[t] = out.stage.total
        assert totals[1] > 5 * totals[11]


class TestBatchWidePass:
    """Differential test: the batch-wide functional pass
    (cluster-grouped gather + two-stage top-k) equals, group for group,
    the per-pair ``adc_distances`` / ``adc_distances_direct`` scans fed
    to ``scan_topk_fast`` — values, ids and all four heap statistics."""

    KSUB = 16

    @staticmethod
    def scenario(seed, n_clusters, n_queries, n_dpus, quantized):
        from repro.core.encoding import EncodedCluster

        rng = np.random.default_rng(seed)
        ksub = TestBatchWidePass.KSUB
        payloads, tables = {}, {q: {} for q in range(n_queries)}

        def table(shape):
            if quantized:  # few distinct values: duplicate distances
                return rng.integers(0, 3, shape).astype(np.float32)
            return rng.random(shape, dtype=np.float32)

        for c in range(n_clusters):
            size = int(rng.integers(1, 40))
            m = int(rng.choice([3, 8, 9, 16]))
            ids = rng.permutation(1000)[:size].astype(np.int64)
            if rng.random() < 0.5:
                codes = rng.integers(0, ksub, (size, m)).astype(np.uint8)
                payloads[c] = ClusterPayload(cluster_id=c, ids=ids, codes=codes)
                for q in tables:
                    tables[q][c] = table((m, ksub))
            else:
                length = m * ksub + int(rng.integers(0, 6))
                lengths = rng.integers(1, m + 1, size).astype(np.int16)
                addresses = rng.integers(0, length, (size, m)).astype(np.int32)
                addresses[np.arange(m)[None, :] >= lengths[:, None]] = -1
                payloads[c] = ClusterPayload(
                    cluster_id=c,
                    ids=ids,
                    encoded=EncodedCluster(addresses, lengths, m, length - m * ksub),
                )
                for q in tables:
                    tables[q][c] = table(length)
        per_dpu = [[] for _ in range(n_dpus)]
        for q in range(n_queries):
            probed = rng.permutation(n_clusters)[: int(rng.integers(1, n_clusters + 1))]
            for c in probed.tolist():
                per_dpu[int(rng.integers(0, n_dpus))].append((q, c))
        for pairs in per_dpu:
            rng.shuffle(pairs)
        return payloads, tables, per_dpu

    @staticmethod
    def reference_groups(per_dpu):
        """(dpu, query, clusters) in the per-pair loop's visiting order."""
        out = []
        for d, pairs in enumerate(per_dpu):
            by_query = {}
            for q, c in pairs:
                by_query.setdefault(q, []).append(c)
            out.extend((d, q, cs) for q, cs in by_query.items())
        return out

    @staticmethod
    def reference_distances(payload, table):
        if payload.is_cae:
            enc = payload.encoded
            return adc_distances_direct(
                enc.addresses, table, enc.lengths.astype(np.int64)
            )
        return adc_distances(payload.codes, table)

    @given(
        seed=st.integers(0, 10_000),
        n_clusters=st.integers(1, 6),
        n_queries=st.integers(1, 5),
        n_dpus=st.integers(1, 4),
        k=st.integers(1, 12),
        n_tasklets=st.integers(1, 24),
        prune=st.booleans(),
        quantized=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_group_reference(
        self, seed, n_clusters, n_queries, n_dpus, k, n_tasklets, prune, quantized
    ):
        from repro.core.kernel import BatchWorklist, compute_groups_functional
        from repro.core.topk import scan_topk_fast

        payloads, tables, per_dpu = self.scenario(
            seed, n_clusters, n_queries, n_dpus, quantized
        )
        sizes = np.array([payloads[c].size for c in range(n_clusters)])
        worklist = BatchWorklist.from_assignment(per_dpu, sizes)
        got = compute_groups_functional(
            worklist, payloads, tables, k, n_tasklets, prune=prune
        )
        groups = self.reference_groups(per_dpu)
        assert len(got) == len(groups) == worklist.n_groups
        for g, (d, q, clusters) in enumerate(groups):
            assert (worklist.group_dpu[g], worklist.group_query[g]) == (d, q)
            lo, hi = worklist.group_bounds[g], worklist.group_bounds[g + 1]
            assert worklist.pair_cluster[lo:hi].tolist() == clusters
            dists = np.concatenate(
                [self.reference_distances(payloads[c], tables[q][c]) for c in clusters]
            )
            ids = np.concatenate([payloads[c].ids for c in clusters])
            want_v, want_i, want_s = scan_topk_fast(
                dists, ids, k, n_tasklets, prune=prune
            )
            got_v, got_i, got_s = got[g]
            np.testing.assert_array_equal(got_v, want_v)
            np.testing.assert_array_equal(got_i, want_i)
            assert got_s == want_s
            assert got.sizes[g] == dists.shape[0]
