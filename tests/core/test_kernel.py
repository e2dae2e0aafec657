"""DPU kernel tests: functional exactness + charge accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cooccurrence import mine_combinations
from repro.core.encoding import encode_cluster
from repro.core.kernel import ClusterPayload, KernelConfig
from repro.errors import ConfigError
from repro.hardware.dpu import DPU
from repro.ivfpq.adc import adc_distances, topk_from_distances
from repro.ivfpq.lut import build_lut
from tests.core.looped_oracle import run_query_on_dpu


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
    """Differential test: the batch-wide functional pass over the
    pairs' top-k candidates (one row copy + one group-wide top-k)
    equals, group for group, the per-pair ``adc_distances`` /
    ``adc_distances_direct`` scans fed to ``scan_topk_fast`` — values,
    ids and all four heap statistics.  The candidates are cut from the
    per-pair scans; that the engine's table pass gathers and cuts the
    same rows is ``tests/core/test_lut_cache.py::TestChunkSegmentGather``'s."""

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
        from repro.core.kernel import BatchWorklist, PointIds, compute_groups_functional
        from tests.core.list_scheduler import assignment_from_lists
        from tests.core.distance_refs import as_batch_candidates, oracle_distances
        from repro.core.topk import scan_topk_fast

        payloads, tables, per_dpu = self.scenario(
            seed, n_clusters, n_queries, n_dpus, quantized
        )
        sizes = np.array([payloads[c].size for c in range(n_clusters)])
        worklist = BatchWorklist.from_assignment(assignment_from_lists(per_dpu), sizes)
        rows = {
            q: {c: oracle_distances(payloads[c], t) for c, t in per_q.items()}
            for q, per_q in tables.items()
        }
        points = PointIds.of([payloads[c] for c in range(n_clusters)])
        got = compute_groups_functional(
            worklist, points, as_batch_candidates(rows, k), k, n_tasklets, prune=prune
        )
        groups = self.reference_groups(per_dpu)
        assert len(got) == len(groups) == worklist.n_groups
        for g, (d, q, clusters) in enumerate(groups):
            assert (worklist.group_dpu[g], worklist.group_query[g]) == (d, q)
            lo, hi = worklist.group_bounds[g], worklist.group_bounds[g + 1]
            assert worklist.pair_cluster[lo:hi].tolist() == clusters
            dists = np.concatenate(
                [oracle_distances(payloads[c], tables[q][c]) for c in clusters]
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


class TestCandidateKernel:
    """Differential test: the kernel over each pair's ``row_topk``
    candidates (one k-wide row copy) equals the full-row path it
    replaced (``tests/core/distance_refs.py::full_row_groups``: per
    cluster one ``np.take`` of whole rows, ``row_survivors``, one
    group-wide selection) — values and ids bit for bit, offsets, sizes
    and every group's four work counts — on tie-heavy rows (both zeros
    among them) and clusters smaller than k."""

    TIES = np.array([-0.0, 0.0, 0.25, 1.0, 1.0, 3.0], dtype=np.float32)

    @staticmethod
    def candidates(rows, k):
        """The pairs' rows cut by ``row_topk``, into one k-wide slab
        whose padding is NaN."""
        from repro.core.topk import row_topk
        from tests.core.distance_refs import as_batch_candidates

        return as_batch_candidates(
            rows, k, cut=lambda row, k: tuple(a[0] for a in row_topk(row[None], k))
        )

    @given(
        seed=st.integers(0, 10_000),
        n_clusters=st.integers(1, 6),
        n_queries=st.integers(1, 5),
        n_dpus=st.integers(1, 4),
        k=st.integers(1, 12),
        n_tasklets=st.integers(1, 16),
        prune=st.booleans(),
        ties=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_full_row_path(
        self, seed, n_clusters, n_queries, n_dpus, k, n_tasklets, prune, ties
    ):
        from repro.core.kernel import BatchWorklist, PointIds, compute_groups_functional
        from tests.core.distance_refs import full_row_groups
        from tests.core.list_scheduler import assignment_from_lists

        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 2 * k + 3, n_clusters)
        payloads = [
            ClusterPayload(
                cluster_id=c,
                ids=rng.permutation(1000)[:size].astype(np.int64),
                codes=np.zeros((size, 1), dtype=np.uint8),
            )
            for c, size in enumerate(sizes.tolist())
        ]
        rows, per_dpu = {}, [[] for _ in range(n_dpus)]
        for q in range(n_queries):
            probed = rng.permutation(n_clusters)[: int(rng.integers(1, n_clusters + 1))]
            rows[q] = {}
            for c in probed.tolist():
                if ties:
                    rows[q][c] = self.TIES[rng.integers(0, self.TIES.shape[0], sizes[c])]
                else:
                    rows[q][c] = rng.random(sizes[c], dtype=np.float32)
                per_dpu[int(rng.integers(0, n_dpus))].append((q, c))
        for pairs in per_dpu:
            rng.shuffle(pairs)
        worklist = BatchWorklist.from_assignment(assignment_from_lists(per_dpu), sizes)
        got = compute_groups_functional(
            worklist, PointIds.of(payloads), self.candidates(rows, k), k,
            n_tasklets, prune=prune,
        )
        want = full_row_groups(worklist, payloads, rows, k, n_tasklets, prune=prune)
        np.testing.assert_array_equal(got.values.view(np.uint32), want.values.view(np.uint32))
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.offsets, want.offsets)
        np.testing.assert_array_equal(got.sizes, want.sizes)
        np.testing.assert_array_equal(got.stats, want.stats)

    def test_rejects_candidates_of_another_k(self):
        from repro.core.kernel import BatchWorklist, PointIds, compute_groups_functional
        from tests.core.list_scheduler import assignment_from_lists

        payload = ClusterPayload(
            cluster_id=0, ids=np.arange(8), codes=np.zeros((8, 1), dtype=np.uint8)
        )
        rows = {0: {0: np.arange(8, dtype=np.float32)}}
        worklist = BatchWorklist.from_assignment(
            assignment_from_lists([[(0, 0)]]), np.array([8])
        )
        with pytest.raises(ConfigError):
            compute_groups_functional(
                worklist, PointIds.of([payload]), self.candidates(rows, 5), 10, 4
            )


class TestSequentialSums:
    """``_sequential_sums`` equals the per-pair loop's ``+=`` chain: each
    segment's items in slot order, each item's terms in order, from 0.0
    — bit for bit, trailing axes summed independently."""

    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=40),
        w=st.integers(1, 4),
        lanes=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_loop(self, sizes, w, lanes, seed):
        from repro.core.kernel import _sequential_sums

        rng = np.random.default_rng(seed)
        segment = np.repeat(np.arange(len(sizes)), sizes)
        slot = np.concatenate([np.arange(n) for n in sizes]).astype(np.int64)
        shape = (segment.shape[0], w) + ((lanes,) if lanes else ())
        # Magnitudes spread over 12 decades: the order of the adds shows.
        terms = rng.random(shape) * 10.0 ** rng.integers(-6, 6, shape)
        # Items in any order: the slot, not the position, orders them.
        perm = rng.permutation(segment.shape[0])
        got = _sequential_sums(terms[perm], segment[perm], slot[perm], len(sizes))
        want = np.zeros((len(sizes),) + shape[2:])
        for i in range(segment.shape[0]):
            for j in range(w):
                want[segment[i]] += terms[i, j]
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=40),
        w=st.integers(1, 4),
        lanes=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_continues_from_start(self, sizes, w, lanes, seed):
        """With ``start``, each segment's items are added to its start
        value (the replay's sums after each group's first pair) — bit
        for bit the same ``+=`` chain."""
        from repro.core.kernel import _sequential_sums

        rng = np.random.default_rng(seed)
        segment = np.repeat(np.arange(len(sizes)), sizes)
        slot = np.concatenate([np.arange(n) for n in sizes]).astype(np.int64)
        shape = (segment.shape[0], w) + ((lanes,) if lanes else ())
        terms = rng.random(shape) * 10.0 ** rng.integers(-6, 6, shape)
        start = rng.random((len(sizes),) + shape[2:]) * 10.0 ** rng.integers(-6, 6)
        perm = rng.permutation(segment.shape[0])
        got = _sequential_sums(
            terms[perm], segment[perm], slot[perm], len(sizes), start=start
        )
        want = start.copy()
        for i in range(segment.shape[0]):
            for j in range(w):
                want[segment[i]] += terms[i, j]
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDmaTable:
    """``dma_table`` charges and observes each stream as one
    ``DPU.charge_mram_read`` does; a tail rounded up to the chunk size
    adds to the chunk-sized transfers."""

    @given(
        nbytes=st.lists(st.integers(0, 9000), min_size=1, max_size=20),
        chunk=st.sampled_from([8, 64, 136, 2048]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_stream_charges(self, nbytes, chunk):
        from repro.core.kernel import dma_table
        from repro.telemetry.pipeline import dma_observations

        mram = DPU(0).mram_model
        cycles, tx, obs = dma_table(mram, np.array(nbytes, dtype=np.int64), chunk)
        for i, b in enumerate(nbytes):
            assert cycles[i].hex() == float(mram.bulk_transfer_cycles(b, chunk)).hex()
            assert tx[i] == mram.transactions_for(b, chunk)
            want: dict[int, int] = {}
            for size, count in dma_observations(b, chunk):
                want[size] = want.get(size, 0) + count
            assert {s: int(c[i]) for s, c in obs.items() if c[i]} == want

    def test_tail_rounded_to_chunk(self):
        from repro.core.kernel import dma_table

        _, tx, obs = dma_table(DPU(0).mram_model, np.array([124]), 64)
        assert tx.tolist() == [2]
        assert {s: c.tolist() for s, c in obs.items()} == {64: [2]}

    def test_plan_columns_add_equal_transfer_sizes(self):
        """A visit's codebook and scan streams may share a transfer
        size: the plan's column counts both."""
        from repro.core.kernel import PairCharges, PlanColumns

        cols = PlanColumns.empty(3)
        charges = PairCharges(
            instructions=1, mram_read_bytes=192, dma_transactions=3,
            dma_cycles=1, lut_combined=1.0, is_cae=False, combo_compute=0.0,
            dist_combined=1.0, dma_read_observations=((64, 2), (64, 1)),
        )
        cols.set(1, charges, 10.0)
        assert cols.read_obs[64].tolist() == [0, 3, 0]
