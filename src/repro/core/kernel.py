"""The per-DPU IVFPQ kernel: functional execution + cycle charging.

This module simulates what the UpANNS DPU program does for one query on
one DPU (paper Figure 6): for each assigned cluster, build the LUT from
the codebook (threads share the work), compute the co-occurrence partial
sums, stream encoded points from MRAM and accumulate distances, feeding
thread-local top-k heaps; after the last cluster, merge the local heaps
into the DPU top-k with pruning (Opt4).  Four barriers separate the
stages.

Every functional step charges the DPU's ledger with the instruction and
DMA-traffic counts a real 350 MHz DPU would incur, using the per-token
cost constants below.  The constants are order-of-magnitude calibrated
against the UPMEM characterization literature; the *structure* (what
scales with M, cluster size, token count, read size, tasklets) is what
reproduces the paper's figures.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.core.encoding import EncodedCluster, build_flat_table
from repro.core.cooccurrence import CooccurrenceModel
from repro.core.topk import (
    GroupTopK,
    HeapStats,
    estimate_scan_stats,
    row_survivors,
    scan_topk_fast,
    scan_topk_fast_batch_flat,
    segment_indices,
)
from repro.hardware.counters import StageCycles
from repro.hardware.dpu import DPU
from repro.hardware.rank import PimSystem
from repro.hardware.mram import MAX_DMA_BYTES, round_up_dma
from repro.hardware.specs import DEFAULT_N_TASKLETS
from repro.ivfpq.adc import adc_distances, adc_distances_direct
from repro.ivfpq.lut import build_lut
from repro.ivfpq.pq import ProductQuantizer
from repro.telemetry.pipeline import dma_observations, observe_dma_batch

# One 0.0 slot appended after each flat table in fused CAE gathers;
# dead addresses resolve here instead of being masked out per batch.
_SENTINEL_ZERO = np.zeros(1, dtype=np.float32)

# --- Instruction cost constants (per element) -------------------------------
INSTR_PER_LUT_ENTRY_PER_DIM = 3.0  # load codeword elem, sub/mul, accumulate
# Per cached partial sum: one LUT load + add per combination element,
# plus store/bookkeeping.  (= 8 instructions at the default length 3.)
INSTR_PER_COMBO_ELEMENT = 2.0
INSTR_PER_COMBO_OVERHEAD = 2.0
# The ADC inner loop is tight on a DPU: a 32-bit WRAM load covers two
# uint16 tokens and the add dual-issues with the index increment, so the
# amortized cost is close to one instruction per token.  This makes the
# distance stage DMA-bound at small MRAM read sizes — the regime the
# paper's Figure 17 sweep exposes.
INSTR_PER_TOKEN = 1.2
INSTR_PER_VECTOR_OVERHEAD = 3.0  # id fetch + heap root compare + branch
INSTR_PER_HEAP_COMPARISON = 2.0
INSTR_PER_HEAP_INSERTION = 6.0
# The codebook is streamed at the maximum legal DMA size; imported from
# the spec module so the chunk tracks the hardware constraint.
CODEBOOK_CHUNK_BYTES = MAX_DMA_BYTES

@dataclass
class ClusterPayload:
    """What one cluster replica stores in a DPU's MRAM.

    Plain form keeps raw PQ codes; CAE form keeps the direct-address
    re-encoding.  ``nbytes`` is the on-device footprint used for both
    MRAM capacity checks and DMA traffic charging.
    """

    cluster_id: int
    ids: np.ndarray
    codes: np.ndarray | None = None  # (s, m) uint8, plain path
    encoded: EncodedCluster | None = None  # CAE path
    cooc: CooccurrenceModel | None = None
    # Lazily precomputed ADC gather indices (the payload's codes and
    # slot masks never change once placed, so the grouped kernel reuses
    # these across batches).  Host-side acceleration state only.
    _gather_idx: np.ndarray | None = field(default=None, repr=False, compare=False)
    _safe_addr: np.ndarray | None = field(default=None, repr=False, compare=False)
    _safe_table_len: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.codes is None) == (self.encoded is None):
            raise ConfigError("payload must be exactly one of plain / CAE")

    def adc_gather_indices(self, ksub: int) -> np.ndarray:
        """Flat-LUT gather offsets (codes + per-subspace strides), int32."""
        if self._gather_idx is None:
            assert self.codes is not None
            offsets = np.arange(self.codes.shape[1], dtype=np.int32) * ksub
            self._gather_idx = self.codes.astype(np.int32) + offsets[None, :]
        return self._gather_idx

    def adc_safe_addresses(self, table_len: int) -> np.ndarray:
        """Slot addresses with dead (past-length) slots redirected to a
        zero sentinel appended after the flat table, int32.

        Gathering through these indices yields the exact value sequence
        ``np.where(mask, table[addr], 0.0)`` produces, without building
        the mask per batch.
        """
        if self._safe_addr is None or self._safe_table_len != table_len:
            assert self.encoded is not None
            enc = self.encoded
            width = enc.addresses.shape[1]
            mask = np.arange(width)[None, :] < enc.lengths[:, None]
            self._safe_addr = np.where(mask, enc.addresses, table_len).astype(
                np.int32
            )
            self._safe_table_len = table_len
        return self._safe_addr

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])

    @property
    def is_cae(self) -> bool:
        return self.encoded is not None

    @property
    def nbytes(self) -> int:
        if self.codes is not None:
            return int(self.ids.nbytes + self.codes.nbytes)
        assert self.encoded is not None
        return int(self.ids.nbytes + self.encoded.nbytes)

    @property
    def token_count(self) -> int:
        """Total ADC tokens the distance stage must consume."""
        if self.codes is not None:
            return int(self.codes.shape[0] * self.codes.shape[1])
        assert self.encoded is not None
        return int(self.encoded.lengths.sum())

    @property
    def scan_bytes(self) -> int:
        """Bytes streamed from MRAM during the distance stage."""
        if self.codes is not None:
            return int(self.codes.nbytes)
        assert self.encoded is not None
        return int(2 * self.encoded.lengths.sum())


@dataclass(frozen=True)
class KernelConfig:
    """Knobs the ablations sweep."""

    k: int = 10
    n_tasklets: int = DEFAULT_N_TASKLETS
    read_vectors: int = 16
    prune_topk: bool = True
    lut_entry_bytes: int = 2
    codebook_entry_bytes: int = 1
    # Timing-only extrapolation: multiply every per-point charge (scan
    # traffic, distance instructions, heap scan comparisons) by this
    # factor to model the paper's billion-scale list lengths while
    # computing functionally on scaled-down lists.  1.0 = no scaling.
    workload_scale: float = 1.0


@dataclass
class QueryKernelOutput:
    """One query's result on one DPU."""

    ids: np.ndarray  # ascending-distance local top-k
    distances: np.ndarray
    stage: StageCycles  # (compute+dma) cycles already combined per stage
    heap_stats: HeapStats


def _read_chunk_bytes(payload: ClusterPayload, cfg: KernelConfig) -> int:
    """DMA chunk size for scanning this cluster's encoded points."""
    if payload.codes is not None:
        per_vec = payload.codes.shape[1]
    else:
        assert payload.encoded is not None
        per_vec = 2 * payload.encoded.m  # worst-case tokens, 2 B each
    chunk = min(cfg.read_vectors * per_vec, MAX_DMA_BYTES)
    return round_up_dma(chunk)


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
    dpu.counters.heap_comparisons += heap_stats.comparisons
    dpu.counters.pruned_insertions += heap_stats.pruned
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


@dataclass
class DpuWorkLog:
    """Accumulated work of one DPU over a batch."""

    stage: StageCycles = field(default_factory=StageCycles)
    queries_served: int = 0
    pairs_served: int = 0
    # Top-k candidates actually produced (may be < queries_served * k on
    # small clusters); the result-gather transfer is sized from this.
    results_returned: int = 0

    @property
    def total_cycles(self) -> float:
        return self.stage.total


# --- Grouped (vectorized) execution path ------------------------------------
#
# The functions below reproduce run_query_on_dpu's *charges* float-for-
# float while running its *functional* work batch-wide: one gather per
# probed cluster, one top-k selection and one charge replay per batch.
# The contract is strict: for any worklist, the grouped path must leave
# every DPU ledger, the per-stage cycle sums and the top-k outputs
# bit-identical to the per-pair loop (pinned by
# tests/sim/golden_timings.json and the grouped-equivalence tests).


@dataclass(frozen=True)
class BatchWorklist:
    """One batch's (DPU, query) groups, flattened in execution order.

    Groups run in ascending DPU order; within a DPU, in the order each
    query first appears in the DPU's schedule; a group's (query,
    cluster) pairs keep schedule order — exactly the order the per-pair
    loop visits them.
    """

    group_dpu: np.ndarray  # (n_groups,) int64
    group_query: np.ndarray  # (n_groups,) int64
    group_bounds: np.ndarray  # (n_groups + 1,) int64 pair offsets
    pair_cluster: np.ndarray  # (n_pairs,) int64

    @classmethod
    def from_assignment(
        cls, per_dpu: list[list[tuple[int, int]]], sizes: np.ndarray
    ) -> "BatchWorklist":
        """Group each DPU's scheduled pairs by query, skipping empty
        clusters (they contribute no candidates)."""
        parts = [
            np.column_stack(
                [np.full(len(pairs), d, dtype=np.int64), np.asarray(pairs, dtype=np.int64)]
            )
            for d, pairs in enumerate(per_dpu)
            if pairs
        ]
        flat = np.concatenate(parts) if parts else np.empty((0, 3), dtype=np.int64)
        flat = flat[np.asarray(sizes)[flat[:, 2]] > 0]
        if flat.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, np.zeros(1, dtype=np.int64), empty)
        # A pair's group is keyed by its (DPU, query); groups are ordered
        # by their first pair's position, which is DPU-major already.
        key = flat[:, 0] * (int(flat[:, 1].max()) + 1) + flat[:, 1]
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        group_first = first[inverse]
        order = np.argsort(group_first, kind="stable")
        flat = flat[order]
        starts = np.flatnonzero(np.diff(group_first[order], prepend=-1))
        return cls(
            group_dpu=flat[starts, 0],
            group_query=flat[starts, 1],
            group_bounds=np.append(starts, flat.shape[0]).astype(np.int64),
            pair_cluster=flat[:, 2].copy(),
        )

    @property
    def n_groups(self) -> int:
        return int(self.group_dpu.shape[0])

    @property
    def pair_group(self) -> np.ndarray:
        """Group index of every pair."""
        return np.repeat(
            np.arange(self.n_groups, dtype=np.int64), np.diff(self.group_bounds)
        )

    def select(self, dpus: np.ndarray) -> tuple["BatchWorklist", np.ndarray]:
        """The sub-worklist of ``dpus`` plus its groups' indices here."""
        groups = np.flatnonzero(np.isin(self.group_dpu, dpus))
        counts = np.diff(self.group_bounds)[groups]
        sub = BatchWorklist(
            self.group_dpu[groups],
            self.group_query[groups],
            np.concatenate([[0], np.cumsum(counts)]),
            self.pair_cluster[segment_indices(self.group_bounds[groups], counts)],
        )
        return sub, groups


@dataclass(frozen=True)
class PairCharges:
    """Precomputed cost of visiting one cluster payload for one query.

    Every term a (query, cluster) visit adds to the DPU ledger is a pure
    function of (payload, kernel config, tasklet count) — queries only
    change the *data*, never the modeled cost.  Planning the charges
    once per cluster and replaying them per visit is therefore exact:
    integer counter deltas add associatively, and the per-stage float
    terms are applied in the same order as the per-pair loop.
    """

    instructions: int  # sum of the per-charge int() truncations
    mram_read_bytes: int
    dma_transactions: int
    dma_cycles: int
    lut_combined: float  # combine_cycles(LUT compute, codebook DMA)
    is_cae: bool
    combo_compute: float  # partial-sum compute cycles (0.0 when plain)
    dist_combined: float  # combine_cycles(scan compute, scan DMA)
    # The codebook and scan MRAM read streams as pre-aggregated
    # (transfer size, count) pairs for the DMA telemetry.
    dma_read_observations: tuple[tuple[int, int], ...]


def plan_pair_charges(
    dpu: DPU, pq: ProductQuantizer, payload: ClusterPayload, cfg: KernelConfig
) -> PairCharges:
    """Plan one payload's visit charges without touching the ledger."""
    t = dpu.n_tasklets
    codebook_bytes = pq.dim * 256 * cfg.codebook_entry_bytes
    cb_dma = dpu.mram_model.bulk_transfer_cycles(codebook_bytes, CODEBOOK_CHUNK_BYTES)
    cb_tx = dpu.mram_model.transactions_for(codebook_bytes, CODEBOOK_CHUNK_BYTES)
    lut_instr = pq.m * pq.ksub * pq.dsub * INSTR_PER_LUT_ENTRY_PER_DIM
    lut_combined = dpu.combine_cycles(
        dpu.pipeline.compute_cycles(lut_instr, t), cb_dma
    )

    is_cae = payload.is_cae and payload.cooc is not None
    if is_cae:
        assert payload.cooc is not None
        combo_instr = payload.cooc.n_slots * (
            INSTR_PER_COMBO_OVERHEAD
            + INSTR_PER_COMBO_ELEMENT * max(payload.cooc.combo_length, 1)
        )
        combo_compute = dpu.pipeline.compute_cycles(combo_instr, t)
    else:
        combo_instr = 0.0
        combo_compute = 0.0

    chunk = _read_chunk_bytes(payload, cfg)
    scale = cfg.workload_scale
    scan_bytes = int(payload.scan_bytes * scale)
    scan_dma = dpu.mram_model.bulk_transfer_cycles(scan_bytes, chunk)
    scan_tx = dpu.mram_model.transactions_for(scan_bytes, chunk)
    dist_instr = scale * (
        payload.token_count * INSTR_PER_TOKEN
        + payload.size * INSTR_PER_VECTOR_OVERHEAD
    )
    dist_combined = dpu.combine_cycles(
        dpu.pipeline.compute_cycles(dist_instr, t), scan_dma
    )

    return PairCharges(
        instructions=int(lut_instr) + int(combo_instr) + int(dist_instr),
        mram_read_bytes=codebook_bytes + scan_bytes,
        dma_transactions=cb_tx + scan_tx,
        dma_cycles=int(cb_dma) + int(scan_dma),
        lut_combined=lut_combined,
        is_cae=is_cae,
        combo_compute=combo_compute,
        dist_combined=dist_combined,
        dma_read_observations=dma_observations(codebook_bytes, CODEBOOK_CHUNK_BYTES)
        + dma_observations(scan_bytes, chunk),
    )


def compute_pair_distances(
    blocks: list[tuple[ClusterPayload, list[np.ndarray]]],
) -> list[np.ndarray]:
    """Fused ADC: one cluster against the tables of many queries.

    Each block is (payload, tables): the (m, ksub) LUT of every query
    probing a plain cluster, or the flat [LUT | partial sums] table of
    every query probing a CAE cluster.  Returns one (queries, points)
    float32 matrix per block.  The tables are stacked and gathered with
    one ``np.take`` through the payload's cached gather indices (a CAE
    table gets one 0.0 slot appended that dead addresses point at), so
    each row's reduction runs over exactly the width-W element sequence
    of the per-pair :func:`adc_distances` / :func:`adc_distances_direct`
    call — the outputs are bit-identical.
    """
    out: list[np.ndarray] = []
    for payload, tables in blocks:
        rows = len(tables)
        if payload.is_cae:
            length = tables[0].shape[0]
            parts = [_SENTINEL_ZERO] * (2 * rows)
            parts[::2] = tables
            stacked = np.concatenate(parts).reshape(rows, length + 1)
            idx = payload.adc_safe_addresses(length)
        else:
            stacked = np.concatenate(tables).reshape(rows, -1)
            idx = payload.adc_gather_indices(tables[0].shape[1])
        vals = np.take(stacked, idx, axis=1).reshape(-1, idx.shape[1])
        out.append(
            np.add.reduce(vals, axis=1, dtype=np.float32).reshape(rows, idx.shape[0])
        )
    return out


#: Cluster id -> payload: the engine's list or a worker's dict.
Payloads = Sequence[ClusterPayload] | Mapping[int, ClusterPayload]


def compute_groups_functional(
    worklist: BatchWorklist,
    payloads: Payloads,
    tables: dict[int, dict[int, np.ndarray]],
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> GroupTopK:
    """Pure functional half of the grouped kernel: distances + top-k.

    ``payloads[c]`` is cluster ``c``'s payload and ``tables[q][c]`` the
    functional table of query ``q`` for it.  Distances are computed per
    probed cluster (:func:`compute_pair_distances`); each (query,
    cluster) row keeps only its :func:`row_survivors`, and one sort over
    the survivors picks every (DPU, query) group's top-k
    (:func:`scan_topk_fast_batch_flat`).

    Touches no ledger, no telemetry and no module state, so it is safe
    to run in a forked worker process (the ``repro.parallel`` executor
    ships exactly this computation out of process).
    """
    if (np.diff(worklist.group_bounds) == 0).any():
        raise ConfigError("no clusters assigned for this query on this DPU")
    pair_group = worklist.pair_group
    pair_query = worklist.group_query[pair_group]
    clusters, inverse = np.unique(worklist.pair_cluster, return_inverse=True)
    cluster_list = clusters.tolist()
    sizes = np.array([payloads[c].size for c in cluster_list], dtype=np.int64)[inverse]
    # Scan position of each pair's first point within its group.
    ends = np.cumsum(sizes)
    starts = ends - sizes
    pair_offset = starts - starts[worklist.group_bounds[:-1]][pair_group]
    group_sizes = ends[worklist.group_bounds[1:] - 1] - starts[worklist.group_bounds[:-1]]

    by_cluster = np.argsort(inverse, kind="stable")
    cuts = np.cumsum(np.bincount(inverse, minlength=len(cluster_list)))[:-1]
    block_pairs = np.split(by_cluster, cuts)
    blocks = [
        (payloads[c], [tables[q][c] for q in pair_query[pairs].tolist()])
        for c, pairs in zip(cluster_list, block_pairs)
    ]
    dists = compute_pair_distances(blocks)

    empty = np.empty(0, dtype=np.int64)
    cand_v, cand_i = [np.empty(0, dtype=np.float32)], [empty]
    cand_g, cand_p = [empty], [empty]
    for (payload, _), pairs, block in zip(blocks, block_pairs, dists):
        flat = row_survivors(block, k)
        rows, cols = np.divmod(flat, block.shape[1])
        pair = pairs[rows]
        cand_v.append(block.reshape(-1)[flat])
        cand_i.append(payload.ids[cols])
        cand_g.append(pair_group[pair])
        cand_p.append(pair_offset[pair] + cols)
    return scan_topk_fast_batch_flat(
        np.concatenate(cand_v),
        np.concatenate(cand_i),
        group_sizes,
        k,
        n_tasklets,
        prune=prune,
        group=np.concatenate(cand_g),
        pos=np.concatenate(cand_p),
    )


def _sequential_sums(
    terms: np.ndarray, segment: np.ndarray, slot: np.ndarray, n_segments: int
) -> np.ndarray:
    """Each segment's terms summed left to right from 0.0.

    ``terms`` is (items, w): item i contributes its w terms, in order,
    at position ``slot[i]`` of segment ``segment[i]``.  The items are
    laid out in a zero-padded (segments, width) matrix and accumulated
    with ``np.cumsum`` along rows — strictly sequential, so every sum
    is bit-identical to the per-pair loop's ``+=`` chain (a pairwise
    ``np.add.reduce`` would not be).
    """
    w = terms.shape[1]
    width = (int(slot.max()) + 1) * w if slot.size else w
    mat = np.zeros((n_segments, width))
    mat[segment[:, None], slot[:, None] * w + np.arange(w)] = terms
    return np.cumsum(mat, axis=1)[:, -1]


def _scan_charges(
    n_points: np.ndarray, k: int, n_tasklets: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`estimate_scan_stats` over an array of list lengths, with
    the scalar form's float64 expressions element for element."""
    per_stride = np.maximum(1.0, n_points / n_tasklets)
    k_eff = np.minimum(k, per_stride)
    insertions = n_tasklets * (
        k_eff * (1.0 + np.maximum(0.0, np.log(per_stride / k_eff)))
    )
    comparisons = n_points + insertions * np.maximum(
        1.0, np.log2(np.maximum(k_eff, 2))
    )
    live = n_points > 0
    return np.where(live, comparisons, 0.0), np.where(live, insertions, 0.0)


def replay_batch_charges(
    pim: PimSystem,
    pq: ProductQuantizer,
    payloads: Payloads,
    worklist: BatchWorklist,
    topk: GroupTopK,
    cfg: KernelConfig,
    charge_cache: dict[tuple[int, int], PairCharges] | None = None,
) -> dict[int, DpuWorkLog]:
    """Ledger half of the grouped kernel: replay every visit's charges.

    Consumes the functional results of :func:`compute_groups_functional`
    (wherever they were computed — inline or in a worker process) and
    charges each active DPU's ledger, stage cycles and the DMA telemetry
    exactly as the per-pair reference loop would, returning the
    per-DPU work logs.  Must run in the parent process: this is the
    only half that mutates shared simulator state.

    One vectorized pass: integer ledger deltas and DMA telemetry
    counts add associatively, so they are summed in any order; the
    per-stage cycle floats are order-sensitive and are accumulated left
    to right — each group's pair terms from 0.0, then each DPU's group
    sums from 0.0 — exactly the per-pair loop's sequence.
    ``charge_cache`` memoizes :class:`PairCharges` across batches, keyed
    (cluster id, tasklet count).
    """
    n_groups = worklist.n_groups
    if n_groups == 0:
        return {}
    # Every DPU shares one hardware model; the tasklet count is uniform.
    dpu0 = pim.dpu(int(worklist.group_dpu[0]))
    t = dpu0.n_tasklets
    barrier = dpu0.barrier_model.barrier_cycles(t)
    if charge_cache is None:
        charge_cache = {}
    clusters, inverse = np.unique(worklist.pair_cluster, return_inverse=True)
    plans = []
    for c in clusters.tolist():
        pc = charge_cache.get((c, t))
        if pc is None:
            pc = plan_pair_charges(dpu0, pq, payloads[c], cfg)
            charge_cache[(c, t)] = pc
        plans.append(pc)

    def per_pair(values: list, dtype) -> np.ndarray:
        return np.array(values, dtype=dtype)[inverse]

    # Stage floats, group level: Barriers 1, 2 and 0 of every pair.
    pair_group = worklist.pair_group
    pair_slot = np.arange(pair_group.shape[0]) - worklist.group_bounds[pair_group]
    b = np.full(pair_group.shape[0], barrier)
    lut = per_pair([pc.lut_combined for pc in plans], np.float64)
    combo = per_pair([pc.combo_compute if pc.is_cae else 0.0 for pc in plans], np.float64)
    dist = per_pair([pc.dist_combined for pc in plans], np.float64)
    lut_g = _sequential_sums(
        np.stack([lut, b, combo, b], axis=1), pair_group, pair_slot, n_groups
    )
    dist_g = _sequential_sums(
        np.stack([dist, b], axis=1), pair_group, pair_slot, n_groups
    )

    # Top-k stage, exactly as run_query_on_dpu's stage d.
    scan_comps, scan_ins = _scan_charges(
        topk.sizes.astype(np.float64) * cfg.workload_scale, cfg.k, t
    )
    merge = topk.stats[:, 3].astype(np.float64)
    topk_instr = (
        scan_comps * INSTR_PER_HEAP_COMPARISON
        + scan_ins * INSTR_PER_HEAP_INSERTION
        + merge * INSTR_PER_HEAP_COMPARISON
    )
    # DPUPipeline.compute_cycles, element-wise.
    topk_g = topk_instr / dpu0.pipeline.throughput(t) + barrier  # + Barrier 3
    counts = topk.counts
    write_bytes = np.maximum(8, counts * 8)
    write_sizes, write_inverse = np.unique(write_bytes, return_inverse=True)
    write_cycles, write_tx = [], []
    write_obs: dict[int, int] = {}
    for nbytes, n in zip(write_sizes.tolist(), np.bincount(write_inverse).tolist()):
        write_cycles.append(
            dpu0.mram_model.bulk_transfer_cycles(nbytes, CODEBOOK_CHUNK_BYTES)
        )
        write_tx.append(dpu0.mram_model.transactions_for(nbytes, CODEBOOK_CHUNK_BYTES))
        for size, count in dma_observations(nbytes, CODEBOOK_CHUNK_BYTES):
            write_obs[size] = write_obs.get(size, 0) + count * n
    w_cycles = np.array(write_cycles)[write_inverse]
    topk_g = topk_g + w_cycles

    # Stage floats, DPU level: group sums in group order.
    dpus, dpu_first, dpu_of_group = np.unique(
        worklist.group_dpu, return_index=True, return_inverse=True
    )
    group_slot = np.arange(n_groups) - dpu_first[dpu_of_group]
    lut_d, dist_d, topk_d = (
        _sequential_sums(x[:, None], dpu_of_group, group_slot, dpus.shape[0])
        for x in (lut_g, dist_g, topk_g)
    )

    # Integer ledger deltas per DPU (exact in any summation order).
    pair_first = worklist.group_bounds[dpu_first]
    pair_sums = {
        name: np.add.reduceat(per_pair([getattr(pc, name) for pc in plans], np.int64), pair_first)
        for name in ("instructions", "mram_read_bytes", "dma_transactions", "dma_cycles")
    }
    group_sums = {
        name: np.add.reduceat(x, dpu_first)
        for name, x in (
            ("instructions", topk_instr.astype(np.int64)),
            ("mram_write_bytes", write_bytes),
            ("dma_transactions", np.array(write_tx, dtype=np.int64)[write_inverse]),
            ("dma_cycles", w_cycles.astype(np.int64)),
            ("heap_comparisons", topk.stats[:, 0]),
            ("pruned_insertions", topk.stats[:, 2]),
            ("results", counts),
        )
    }
    n_pairs_d = np.diff(np.append(pair_first, pair_group.shape[0]))
    n_groups_d = np.bincount(dpu_of_group)

    logs: dict[int, DpuWorkLog] = {}
    for j, d in enumerate(dpus.tolist()):
        counters = pim.dpu(d).counters
        counters.instructions += int(pair_sums["instructions"][j]) + int(
            group_sums["instructions"][j]
        )
        counters.mram_read_bytes += int(pair_sums["mram_read_bytes"][j])
        counters.mram_write_bytes += int(group_sums["mram_write_bytes"][j])
        counters.dma_transactions += int(pair_sums["dma_transactions"][j]) + int(
            group_sums["dma_transactions"][j]
        )
        counters.dma_cycles += int(pair_sums["dma_cycles"][j]) + int(
            group_sums["dma_cycles"][j]
        )
        counters.barriers += 3 * int(n_pairs_d[j]) + int(n_groups_d[j])
        counters.heap_comparisons += int(group_sums["heap_comparisons"][j])
        counters.pruned_insertions += int(group_sums["pruned_insertions"][j])
        logs[d] = DpuWorkLog(
            stage=StageCycles(
                lut_construction=float(lut_d[j]),
                distance_calc=float(dist_d[j]),
                topk_selection=float(topk_d[j]),
            ),
            queries_served=int(n_groups_d[j]),
            pairs_served=int(n_pairs_d[j]),
            results_returned=int(group_sums["results"][j]),
        )

    read_obs: dict[int, int] = {}
    for pc, n in zip(plans, np.bincount(inverse).tolist()):
        for size, count in pc.dma_read_observations:
            read_obs[size] = read_obs.get(size, 0) + count * n
    observe_dma_batch("read", int(pair_sums["mram_read_bytes"].sum()), read_obs)
    observe_dma_batch("write", int(write_bytes.sum()), write_obs)
    return logs
