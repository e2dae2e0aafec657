"""The looped kernels the engines' batch-wide kernels replaced, kept as
an oracle.

:func:`run_query_on_dpu` executes one query over its clusters on one
DPU the way the DPU program does (paper Figure 6), charging every stage
as it goes; :class:`LoopedUpANNSEngine` calls it once per (DPU, query)
group.  :class:`LoopedIVFFlatPimEngine` scans, selects and charges each
group of the flat engine on its own, through the per-call
``DPU.charge_*`` API.  Both subclasses override only ``_run_kernel``, so
they run the engines' shared pipeline
(:func:`repro.core.engine.run_batch_pipeline`) around the per-group
loop; :func:`ledger_of_stages` and :func:`query_major` turn what the
loop accumulated into the pipeline's :class:`KernelOutput`.  The
batch-wide kernels must match them bit for bit — results, timing,
every DPU's counters, the heap statistics and the DMA telemetry
(:func:`observed_search`).  Test-only, like ``heap_refs.py`` and
``lut_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding import build_flat_table
from repro.core.engine import KernelOutput, UpANNSEngine
from repro.core.flat_engine import INSTR_PER_DIM, IVFFlatPimEngine
from repro.core.kernel import (
    CODEBOOK_CHUNK_BYTES,
    INSTR_PER_COMBO_ELEMENT,
    INSTR_PER_COMBO_OVERHEAD,
    INSTR_PER_HEAP_COMPARISON,
    INSTR_PER_HEAP_INSERTION,
    INSTR_PER_LUT_ENTRY_PER_DIM,
    INSTR_PER_TOKEN,
    INSTR_PER_VECTOR_OVERHEAD,
    ClusterPayload,
    DpuLedger,
    KernelConfig,
    _read_chunk_bytes,
)
from repro.core.memory_plan import HEAP_ENTRY_BYTES
from repro.core.scheduling import Assignment
from repro.core.topk import HeapStats, scan_topk_fast
from repro.errors import ConfigError
from repro.hardware.counters import STAGE_FIELDS, StageCycles
from repro.hardware.dpu import DPU
from repro.ivfpq.adc import adc_distances, adc_distances_direct
from repro.ivfpq.kmeans import squared_distances
from repro.ivfpq.lut import build_lut, build_luts_for_probes
from repro.ivfpq.pq import ProductQuantizer
from repro.telemetry.registry import MetricsRegistry, set_registry
from tests.core.heap_refs import add_stats

#: The metric families the MRAM DMA charges feed.
DMA_FAMILIES = ("repro_mram_dma_bytes_total", "repro_mram_dma_transfer_bytes")


def estimate_scan_stats(n_points: float, k: int, n_tasklets: int) -> tuple[float, float]:
    """Analytic (comparisons, insertions) of one thread-striped scan:
    the scalar form of :func:`repro.core.kernel._scan_charges`, with the
    same float64 expressions."""
    if n_points <= 0:
        return 0.0, 0.0
    per_stride = max(1.0, n_points / n_tasklets)
    k_eff = min(k, per_stride)
    insertions_per_stride = k_eff * (1.0 + max(0.0, np.log(per_stride / k_eff)))
    insertions = n_tasklets * insertions_per_stride
    comparisons = n_points + insertions * max(1.0, np.log2(max(k_eff, 2)))
    return comparisons, insertions


def observed_search(engine, queries: np.ndarray, **kwargs):
    """One ``search_batch`` under a fresh metrics registry: the result
    and the :data:`DMA_FAMILIES` snapshots the batch added."""
    mine = MetricsRegistry()
    previous = set_registry(mine)
    try:
        result = engine.search_batch(queries, **kwargs)
    finally:
        set_registry(previous)
    families = {m["name"]: m for m in mine.snapshot()["metrics"]}
    return result, {name: families.get(name) for name in DMA_FAMILIES}


def ledger_of_stages(
    stages: list[StageCycles],
    queries: np.ndarray,
    pairs: np.ndarray,
    results: np.ndarray,
    ledger: np.ndarray,
) -> DpuLedger:
    """The loop's columns: every DPU's accumulated stage cycles (as
    float64) and counts, kept for the DPUs that served a query, with
    their already-charged rows of the system ``ledger`` as deltas."""
    dpus = np.flatnonzero(queries)
    rows = [[getattr(stages[d], f) for f in STAGE_FIELDS] for d in dpus.tolist()]
    return DpuLedger(
        dpus,
        np.array(rows, dtype=np.float64).reshape(-1, len(STAGE_FIELDS)),
        queries[dpus],
        pairs[dpus],
        results[dpus],
        ledger[dpus],
    )


def query_major(
    parts: list[tuple[int, np.ndarray, np.ndarray]], n_queries: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(query, ids, values) partials, in arrival order -> the per-query
    counts and the candidates query-major, each query's in arrival order."""
    queries = np.array([q for q, _, _ in parts], dtype=np.int64)
    sizes = [len(i) for _, i, _ in parts]
    order = np.argsort(queries, kind="stable").tolist()
    return (
        np.bincount(queries, sizes, n_queries).astype(np.int64),
        np.concatenate([np.empty(0, np.int64), *(parts[j][1] for j in order)]),
        np.concatenate([np.empty(0, np.float32), *(parts[j][2] for j in order)]),
    )


@dataclass
class QueryKernelOutput:
    """One query's result on one DPU."""

    ids: np.ndarray  # ascending-distance local top-k
    distances: np.ndarray
    stage: StageCycles  # (compute+dma) cycles already combined per stage
    heap_stats: HeapStats


def run_query_on_dpu(
    dpu: DPU,
    pq: ProductQuantizer,
    centroids: np.ndarray,
    payloads: list[ClusterPayload],
    query: np.ndarray,
    cfg: KernelConfig,
    luts: dict[int, np.ndarray] | None = None,
) -> QueryKernelOutput:
    """Execute one query over its clusters assigned to ``dpu``.

    Functional result: the exact local top-k over all assigned clusters.
    Timing result: per-stage cycles charged to the DPU ledger and
    returned in ``stage`` (DMA overlap already applied per stage).
    ``luts`` optionally supplies precomputed per-cluster LUTs (the engine
    batches their computation per query); the DPU is charged for
    building them either way.
    """
    if not payloads:
        raise ConfigError("no clusters assigned for this query on this DPU")
    stage = StageCycles()
    all_ids: list[np.ndarray] = []
    all_d: list[np.ndarray] = []
    tasklets = dpu.n_tasklets

    for payload in payloads:
        centroid = centroids[payload.cluster_id]
        # --- Stage b: LUT construction (threads share the codebook scan).
        if luts is not None and payload.cluster_id in luts:
            lut = luts[payload.cluster_id]
        else:
            lut = build_lut(pq, query, centroid)
        codebook_bytes = pq.dim * 256 * cfg.codebook_entry_bytes
        dma = dpu.charge_mram_read(codebook_bytes, CODEBOOK_CHUNK_BYTES)
        instr = pq.m * pq.ksub * pq.dsub * INSTR_PER_LUT_ENTRY_PER_DIM
        dpu.charge_instructions(instr)
        compute = dpu.pipeline.compute_cycles(instr, tasklets)
        stage.lut_construction += dpu.combine_cycles(compute, dma)
        stage.lut_construction += dpu.charge_barrier()  # Barrier 1

        # --- Stage b': co-occurrence partial sums (Opt3, still "LUT" time:
        # the paper attributes the slight LUT-stage increase to this step).
        if payload.is_cae and payload.cooc is not None:
            flat_table = build_flat_table(lut, payload.cooc)
            instr = payload.cooc.n_slots * (
                INSTR_PER_COMBO_OVERHEAD
                + INSTR_PER_COMBO_ELEMENT * max(payload.cooc.combo_length, 1)
            )
            dpu.charge_instructions(instr)
            stage.lut_construction += dpu.pipeline.compute_cycles(instr, tasklets)
        else:
            flat_table = None
        stage.lut_construction += dpu.charge_barrier()  # Barrier 2

        # --- Stage c: distance calculation (memory-bound scan).
        if payload.is_cae:
            assert payload.encoded is not None and flat_table is not None
            dists = adc_distances_direct(
                payload.encoded.addresses,
                flat_table,
                payload.encoded.lengths.astype(np.int64),
            )
        else:
            assert payload.codes is not None
            dists = adc_distances(payload.codes, lut)

        chunk = _read_chunk_bytes(payload, cfg)
        scale = cfg.workload_scale
        dma = dpu.charge_mram_read(int(payload.scan_bytes * scale), chunk)
        instr = scale * (
            payload.token_count * INSTR_PER_TOKEN
            + payload.size * INSTR_PER_VECTOR_OVERHEAD
        )
        dpu.charge_instructions(instr)
        compute = dpu.pipeline.compute_cycles(instr, tasklets)
        stage.distance_calc += dpu.combine_cycles(compute, dma)
        stage.distance_calc += dpu.charge_barrier()  # Barrier 0 (next iter safety)

        all_ids.append(payload.ids)
        all_d.append(dists)

    # --- Stage d: top-k with thread-local heaps + pruned merge (Opt4).
    ids = np.concatenate(all_ids)
    dists = np.concatenate(all_d)
    out_v, out_i, heap_stats = scan_topk_fast(
        dists, ids, cfg.k, tasklets, prune=cfg.prune_topk
    )
    dpu.charge_heap(heap_stats.comparisons, heap_stats.pruned)
    # Charge the scan analytically at the *scaled* list length — heap
    # insertions grow logarithmically, so simulated counts cannot be
    # linearly rescaled.  The merge term keeps the simulated pruned /
    # naive split: its cost ratio is what Opt4 changes.
    scan_comps, scan_ins = estimate_scan_stats(
        ids.shape[0] * cfg.workload_scale, cfg.k, tasklets
    )
    instr = (
        scan_comps * INSTR_PER_HEAP_COMPARISON
        + scan_ins * INSTR_PER_HEAP_INSERTION
        + heap_stats.merge_comparisons * INSTR_PER_HEAP_COMPARISON
    )
    dpu.charge_instructions(instr)
    stage.topk_selection += dpu.pipeline.compute_cycles(instr, tasklets)
    stage.topk_selection += dpu.charge_barrier()  # Barrier 3
    # Result write-back to MRAM for the host to gather.
    stage.topk_selection += dpu.charge_mram_write(
        max(8, out_v.shape[0] * 8), CODEBOOK_CHUNK_BYTES
    )

    return QueryKernelOutput(
        ids=out_i, distances=out_v, stage=stage, heap_stats=heap_stats
    )


class LoopedUpANNSEngine(UpANNSEngine):
    """:class:`UpANNSEngine` with the per-(DPU, query) reference loop as
    its kernel."""

    def _run_kernel(
        self, queries: np.ndarray, probes, assignment: Assignment, k: int
    ) -> KernelOutput:
        uc = self.config.upanns
        cfg = KernelConfig(
            k=k,
            n_tasklets=self.pim.dpus[0].n_tasklets,
            read_vectors=uc.mram_read_vectors,
            prune_topk=uc.enable_topk_pruning,
            workload_scale=self.config.timing_scale,
        )
        centroids = self.index.ivf.centroids
        nq = queries.shape[0]
        # Per-query LUTs are precomputed in one vectorized batch
        # (functional shortcut only: each DPU is charged for building
        # its own copies inside the kernel).
        luts_by_query: list[dict[int, np.ndarray]] = []
        for qi in range(nq):
            probe_ids = np.asarray(probes[qi], dtype=np.int64)
            if probe_ids.size == 0:
                luts_by_query.append({})
                continue
            luts = build_luts_for_probes(
                self.index.pq, queries[qi], centroids, probe_ids
            )
            luts_by_query.append({int(c): luts[j] for j, c in enumerate(probe_ids)})
        n_dpus = self.pim.n_dpus
        heap_total = HeapStats()
        stages = [StageCycles() for _ in range(n_dpus)]
        served = np.zeros((3, n_dpus), dtype=np.int64)  # queries, pairs, results
        parts: list[tuple[int, np.ndarray, np.ndarray]] = []
        for d, pairs in enumerate(assignment.per_dpu):
            by_query: dict[int, list[ClusterPayload]] = {}
            for qi, c in pairs:
                if self._payloads[c].size == 0:
                    continue
                by_query.setdefault(qi, []).append(self._payloads[c])
            dpu = self.pim.dpu(d)
            for qi, payloads in by_query.items():
                out = run_query_on_dpu(
                    dpu,
                    self.index.pq,
                    centroids,
                    payloads,
                    queries[qi],
                    cfg,
                    luts=luts_by_query[qi],
                )
                parts.append((qi, out.ids, out.distances))
                stages[d] += out.stage
                served[:, d] += (1, len(payloads), out.ids.shape[0])
                add_stats(heap_total, out.heap_stats)
        return KernelOutput(
            ledger_of_stages(stages, *served, self.pim.ledger),
            heap_total,
            *query_major(parts, nq),
        )


class LoopedIVFFlatPimEngine(IVFFlatPimEngine):
    """:class:`IVFFlatPimEngine` selecting each (DPU, query) group's
    top-k on its own, right after the group's scans, and charging each
    scan and selection as it goes."""

    def _charge_scan(self, dpu, stage: StageCycles, cluster, chunk: int) -> None:
        """Charge one cluster's raw-vector scan (DMA + distance FMAs)."""
        ic = self.config.index
        scale = self.config.timing_scale
        scan_bytes = int(cluster.vectors.nbytes * scale)
        dma = dpu.charge_mram_read(scan_bytes, chunk)
        instr = scale * cluster.size * (
            ic.dim * INSTR_PER_DIM + INSTR_PER_VECTOR_OVERHEAD
        )
        dpu.charge_instructions(instr)
        compute = dpu.pipeline.compute_cycles(instr, dpu.n_tasklets)
        stage.distance_calc += dpu.combine_cycles(compute, dma)
        stage.distance_calc += dpu.charge_barrier()

    def _charge_topk(
        self,
        dpu,
        stage: StageCycles,
        total_candidates: int,
        stats: HeapStats,
        result_len: int,
        k: int,
        chunk: int,
    ) -> None:
        """Charge one group's pruned top-k scan + result write-back."""
        scale = self.config.timing_scale
        comps, ins = estimate_scan_stats(
            total_candidates * scale, k, dpu.n_tasklets
        )
        topk_instr = (
            comps * INSTR_PER_HEAP_COMPARISON
            + ins * INSTR_PER_HEAP_INSERTION
            + stats.merge_comparisons * INSTR_PER_HEAP_COMPARISON
        )
        dpu.charge_instructions(topk_instr)
        stage.topk_selection += dpu.pipeline.compute_cycles(
            topk_instr, dpu.n_tasklets
        )
        stage.topk_selection += dpu.charge_mram_write(
            max(8, result_len * HEAP_ENTRY_BYTES), chunk
        )

    def _run_kernel(
        self, queries: np.ndarray, probes, assignment: Assignment, k: int
    ) -> KernelOutput:
        uc = self.config.upanns
        chunk = self._read_chunk_bytes()
        group_results: list[tuple[int, np.ndarray, np.ndarray]] = []
        heap_total = HeapStats()
        stage_by_dpu = [StageCycles() for _ in range(self.pim.n_dpus)]
        served = np.zeros((3, self.pim.n_dpus), dtype=np.int64)
        for d, pairs in enumerate(assignment.per_dpu):
            by_query: dict[int, list[int]] = {}
            for qi, c in pairs:
                if self.index.lists[c].size:
                    by_query.setdefault(qi, []).append(c)
            if not by_query:
                continue
            dpu = self.pim.dpu(d)
            stage = stage_by_dpu[d]
            served[0, d] = len(by_query)
            served[1, d] = sum(map(len, by_query.values()))
            for qi, clusters in by_query.items():
                all_ids, all_d = [], []
                for c in clusters:
                    cl = self.index.lists[c]
                    d2 = squared_distances(queries[qi : qi + 1], cl.vectors)[0]
                    all_ids.append(cl.ids)
                    all_d.append(d2.astype(np.float32))
                    self._charge_scan(dpu, stage, cl, chunk)
                ids = np.concatenate(all_ids)
                dists = np.concatenate(all_d)
                out_v, out_ids, stats = scan_topk_fast(
                    dists, ids, k, dpu.n_tasklets, prune=uc.enable_topk_pruning
                )
                add_stats(heap_total, stats)
                self._charge_topk(
                    dpu, stage, ids.shape[0], stats, out_v.shape[0], k, chunk
                )
                group_results.append((qi, out_ids, out_v))
                served[2, d] += out_v.shape[0]
        return KernelOutput(
            ledger_of_stages(stage_by_dpu, *served, self.pim.ledger),
            heap_total,
            *query_major(group_results, queries.shape[0]),
        )
