"""The per-DPU IVFPQ kernel: functional execution + cycle charging.

This module simulates what the UpANNS DPU program does for each query on
each DPU (paper Figure 6): for each assigned cluster, build the LUT from
the codebook (threads share the work), compute the co-occurrence partial
sums, stream encoded points from MRAM and accumulate distances, feeding
thread-local top-k heaps; after the last cluster, merge the local heaps
into the DPU top-k with pruning (Opt4).  Four barriers separate the
stages.  It runs batch-wide: one functional top-k pass and one charge
replay per batch.

Every functional step charges the DPU's ledger with the instruction and
DMA-traffic counts a real 350 MHz DPU would incur, using the per-token
cost constants below.  The constants are order-of-magnitude calibrated
against the UPMEM characterization literature; the *structure* (what
scales with M, cluster size, token count, read size, tasklets) is what
reproduces the paper's figures.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import ConfigError
from repro.core.encoding import EncodedCluster
from repro.core.cooccurrence import CooccurrenceModel
from repro.core.lut_cache import BatchCandidates
from repro.core.scheduling import Assignment, first_appearance_groups
from repro.core.topk import GroupTopK, scan_topk_fast_batch_flat, stable_order
from repro.hardware.counters import COUNTER_FIELDS, STAGE_FIELDS
from repro.hardware.dpu import DPU
from repro.hardware.rank import PimSystem
from repro.hardware.mram import MAX_DMA_BYTES, MramModel, round_up_dma
from repro.hardware.specs import DEFAULT_N_TASKLETS
from repro.ivfpq.adc import lane_sum
from repro.ivfpq.pq import ProductQuantizer
from repro.telemetry.pipeline import dma_observations, observe_dma_batch

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
    # Lazily precomputed ADC gather lanes (the payload's codes and slot
    # masks never change once placed, so the grouped kernel reuses them
    # across batches).  Host-side acceleration state only.
    _lanes: np.ndarray | None = field(default=None, repr=False, compare=False)
    _lanes_table_len: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.codes is None) == (self.encoded is None):
            raise ConfigError("payload must be exactly one of plain / CAE")

    def adc_gather_lanes(self, table_len: int) -> np.ndarray:
        """Flat-table addresses of every point, one row per ADC lane.

        Returns (W, points) int32: row w holds each point's w-th lookup.
        For a plain payload the table is the flattened (m, ksub) LUT
        (``table_len`` = m * ksub) and the address is code + w * ksub.
        For a CAE payload the table is [LUT | partial sums] followed by
        one 0.0 sentinel at ``table_len``, which dead (past-length)
        slots point at: gathering yields the exact value sequence
        ``np.where(mask, table[addr], 0.0)`` would, without a mask.
        """
        if self._lanes is None or self._lanes_table_len != table_len:
            if self.codes is not None:
                m = self.codes.shape[1]
                offsets = np.arange(m, dtype=np.int32) * (table_len // m)
                lanes = self.codes.T.astype(np.int32) + offsets[:, None]
            else:
                assert self.encoded is not None
                enc = self.encoded
                live = np.arange(enc.addresses.shape[1])[:, None] < enc.lengths[None, :]
                lanes = np.where(live, enc.addresses.T, table_len).astype(np.int32)
            self._lanes = np.ascontiguousarray(lanes)
            self._lanes_table_len = table_len
        return self._lanes

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


def _read_chunk_bytes(payload: ClusterPayload, cfg: KernelConfig) -> int:
    """DMA chunk size for scanning this cluster's encoded points."""
    if payload.codes is not None:
        per_vec = payload.codes.shape[1]
    else:
        assert payload.encoded is not None
        per_vec = 2 * payload.encoded.m  # worst-case tokens, 2 B each
    chunk = min(cfg.read_vectors * per_vec, MAX_DMA_BYTES)
    return round_up_dma(chunk)


@dataclass(frozen=True)
class DpuLedger:
    """A batch's per-DPU work as columns, one row per active DPU.

    ``stages`` holds each DPU's stage cycles in :class:`StageCycles`
    field order and ``deltas`` its counter deltas in :class:`Counters`
    field order (:meth:`PimSystem.add_counters` applies them).
    """

    dpus: np.ndarray  # (n,) int64, ascending
    stages: np.ndarray  # (n, len(STAGE_FIELDS)) float64
    queries: np.ndarray  # (n,) int64 (DPU, query) groups served
    pairs: np.ndarray  # (n,) int64 (query, cluster) pairs served
    # Top-k candidates actually produced (may be < queries * k on small
    # clusters); the result-gather transfer is sized from this.
    results: np.ndarray  # (n,) int64
    deltas: np.ndarray  # (n, len(COUNTER_FIELDS)) int64

    @classmethod
    def empty(cls) -> "DpuLedger":
        none = np.empty(0, dtype=np.int64)
        return cls(
            none, np.empty((0, len(STAGE_FIELDS))), none, none, none,
            np.empty((0, len(COUNTER_FIELDS)), dtype=np.int64),
        )

    @property
    def busy(self) -> np.ndarray:
        """Each DPU's total cycles, summed in field order as
        :attr:`StageCycles.total` sums them."""
        total = self.stages[:, 0].copy()
        for j in range(1, self.stages.shape[1]):
            total += self.stages[:, j]
        return total


# --- Grouped (vectorized) execution path ------------------------------------
#
# The functions below charge what a per-(query, DPU) kernel call would
# charge, float for float, while running the functional work batch-wide:
# one top-k selection and one charge replay per batch.
# The contract is strict: for any worklist, the grouped path must leave
# every DPU ledger, the per-stage cycle sums and the top-k outputs
# bit-identical to the per-pair loop (pinned by
# tests/sim/golden_timings.json and by the looped oracle engines in
# tests/core/looped_oracle.py).


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
        cls, assignment: Assignment, sizes: np.ndarray
    ) -> "BatchWorklist":
        """Group each DPU's scheduled pairs by query, skipping empty
        clusters (they contribute no candidates).  With no empty
        cluster scheduled (the engine drops them before scheduling) the
        grouping is the plan's own :meth:`Assignment.query_groups`,
        shared with the per-DPU trace ids."""
        dpu, query, cluster = (
            assignment.pair_dpu, assignment.pair_query, assignment.pair_cluster
        )
        live = np.asarray(sizes)[cluster] > 0
        if live.all():
            order, bounds = assignment.query_groups()
        else:
            dpu, query, cluster = dpu[live], query[live], cluster[live]
            order, bounds = first_appearance_groups(dpu, query)
        first = order[bounds[:-1]]
        return cls(
            group_dpu=dpu[first],
            group_query=query[first],
            group_bounds=bounds,
            pair_cluster=cluster[order],
        )

    @property
    def n_groups(self) -> int:
        return int(self.group_dpu.shape[0])

    def query_major(self) -> np.ndarray:
        """Group indices query by query, each query's groups in group
        (ascending DPU) order."""
        return stable_order(self.group_query)

    @property
    def pair_group(self) -> np.ndarray:
        """Group index of every pair."""
        return np.repeat(
            np.arange(self.n_groups, dtype=np.int64), np.diff(self.group_bounds)
        )


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
    blocks: Iterable[tuple[ClusterPayload, np.ndarray, int]],
) -> list[np.ndarray]:
    """Fused ADC: one cluster against the tables of many queries.

    Each block is (payload, stacked, length): the matrix whose row r
    holds, in its first ``length`` columns, the table of the block's
    r-th query — the flattened (m, ksub) LUT for a plain cluster, the
    flat [LUT | partial sums] table for a CAE cluster, with a 0.0
    sentinel in column ``length`` — as the engine's table pass lays out
    a cluster's segment of its chunk buffer.  Returns one (queries,
    points) float32 matrix per block: row r is the r-th query's
    distance row.  Each lane is gathered through the
    payload's cached :meth:`ClusterPayload.adc_gather_lanes`;
    :func:`lane_sum` adds the W lane columns in the order
    ``np.add.reduce`` sums a width-W row, so every distance is
    bit-identical to the per-pair :func:`adc_distances` /
    :func:`adc_distances_direct` call.
    """
    out: list[np.ndarray] = []
    for payload, stacked, length in blocks:
        lanes = payload.adc_gather_lanes(length)
        out.append(lane_sum(lambda w: np.take(stacked, lanes[w], axis=1), len(lanes)))
    return out


#: The engine's payload list, indexed by cluster id.
Payloads = Sequence[ClusterPayload]


@dataclass(frozen=True)
class PointIds:
    """Every cluster's point ids back to back: cluster c's, in scan
    order, are ``ids[starts[c] : starts[c] + sizes[c]]``."""

    ids: np.ndarray  # (points,) int64
    starts: np.ndarray  # (clusters,) int64
    sizes: np.ndarray  # (clusters,) int64

    @classmethod
    def of(cls, payloads: Payloads) -> "PointIds":
        sizes = np.array([p.size for p in payloads], dtype=np.int64)
        ids = np.concatenate([np.empty(0, np.int64), *(p.ids for p in payloads)])
        return cls(ids.astype(np.int64), np.cumsum(sizes) - sizes, sizes)


def compute_groups_functional(
    worklist: BatchWorklist,
    points: PointIds,
    candidates: BatchCandidates,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> GroupTopK:
    """Pure functional half of the grouped kernel: top-k per group.

    ``points`` holds every cluster's point ids and ``candidates`` the
    top-k candidates of every (query, cluster) pair of the worklist
    (k-wide rows).  Every pair's row is copied out of the slab with one
    ``np.take``; its first ``min(k, P_c)`` entries are the pair's
    candidates.  The worklist keeps a group's pairs in scan order and a
    row keeps its candidates in column order, so the candidates come
    group by group in ascending scan position: the layout
    :func:`scan_topk_fast_batch_flat` sorts once to pick every (DPU,
    query) group's top-k.  Point ids are looked up for the selected
    candidates only.  A group's top-k point has fewer than k points of
    its own scan ahead of it, so it is among its pair's candidates: the
    selection and its work statistics equal those over the pairs' whole
    distance rows.

    Touches no ledger, no telemetry and no module state.
    """
    bounds = worklist.group_bounds
    if (np.diff(bounds) == 0).any():
        raise ConfigError("no clusters assigned for this query on this DPU")
    if candidates.values.shape[1] != k:
        raise ConfigError(f"candidates are {candidates.values.shape[1]} wide, not {k}")
    pair_group = worklist.pair_group
    pair_cluster = worklist.pair_cluster
    sizes = points.sizes[pair_cluster]
    # Scan position of each pair's first point within its group.
    ends = np.cumsum(sizes)
    starts = ends - sizes
    group_start = starts[bounds[:-1]]
    group_sizes = ends[bounds[1:] - 1] - group_start
    pair_offset = starts - group_start[pair_group]

    rows = candidates.row[worklist.group_query[pair_group], pair_cluster]
    values = np.take(candidates.values, rows, axis=0)
    cols = np.take(candidates.cols, rows, axis=0)
    # Scan positions, as int32 as the columns: a group scans fewer than
    # 2**31 of the points whose ids ``points`` holds.
    pos = cols + pair_offset.astype(cols.dtype)[:, None]
    width = np.minimum(sizes, k)
    kept = None
    if int(width.min(initial=k)) < k:  # clusters smaller than k: drop the padding
        live = np.arange(k)[None, :] < width[:, None]
        kept = np.flatnonzero(live)
        values, pos = values[live], pos[live]
    topk = scan_topk_fast_batch_flat(
        values.reshape(-1),
        None,
        group_sizes,
        k,
        n_tasklets,
        prune=prune,
        supplied=np.add.reduceat(width, bounds[:-1]),
        pos=pos.reshape(-1),
    )
    # The selected candidates' (pair, column) -> point ids.
    at = topk.ids if kept is None else kept[topk.ids]
    first_point = points.starts[pair_cluster]
    topk.ids = points.ids[first_point[at // k] + cols.reshape(-1)[at]]
    return topk


def _sequential_sums(
    terms: np.ndarray,
    segment: np.ndarray,
    slot: np.ndarray,
    n_segments: int,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Each segment's terms summed left to right from 0.0, or from
    ``start[s]`` when given.

    ``terms`` is (items, w, ...): item i contributes its w terms, in
    order, at position ``slot[i]`` of segment ``segment[i]``; trailing
    axes are independent sums.  The items are laid out in a zero-padded
    (width, segments, ...) matrix whose rows are added one by one —
    strictly sequential, so every sum is bit-identical to the per-pair
    loop's ``+=`` chain (a pairwise ``np.add.reduce`` would not be) —
    and each row add is one vector op across all segments.  Adding a
    +0.0 pad leaves a sum's bits alone unless the sum is -0.0, which a
    chain from +0.0 never is; so ``start`` holds no -0.0.
    """
    w, lanes = terms.shape[1], terms.shape[2:]
    width = (int(slot.max()) + 1) * w if slot.size else w
    # Term t of item i goes to row slot[i] * w + t, column segment[i].
    mat = np.zeros((width * n_segments,) + lanes)
    at = (slot * w * n_segments + segment)[:, None] + np.arange(w) * n_segments
    mat[at.ravel()] = terms.reshape((-1,) + lanes)
    mat = mat.reshape((width, n_segments) + lanes)
    if start is None:
        total, mat = mat[0].copy(), mat[1:]
    else:
        total = start.copy()
    for row in mat:
        total += row
    return total


def _scan_charges(
    n_points: np.ndarray, k: int, n_tasklets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (comparisons, insertions) of a thread-striped top-k scan,
    per list length.

    The DPU charge model: scans are charged at the scaled list length
    (``workload_scale``), and a bounded heap's insertion count grows only
    logarithmically with the list length, so simulated counts cannot
    simply be multiplied by the scale factor.  Each of the ``n_tasklets``
    strides of ``n / n_tasklets`` points inserts
    ``k_eff * (1 + ln(stride / k_eff))`` times (``k_eff = min(k,
    stride)``); comparisons are ``n`` root comparisons plus
    ``log2(max(k_eff, 2))`` sift comparisons per insertion.  Empty lists
    cost nothing."""
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


@dataclass
class PlanColumns:
    """One tasklet count's :class:`PairCharges`, a row per cluster id.

    ``stage_terms[c]`` holds, in per-pair loop order, what a visit of
    cluster c adds to the LUT stage (LUT, Barrier 1, partial sums,
    Barrier 2) in lane 0 and to the distance stage (scan, Barrier 0,
    then two 0.0 pads, which leave every sum's bits alone) in lane 1;
    ``first_sums[c]`` is those terms summed from 0.0 (a group's stage
    sums after its first pair); ``counts[c]`` its integer ledger deltas
    in :data:`PLAN_COUNTS` order; ``read_obs[size][c]`` its MRAM reads
    of that transfer size.
    """

    #: The integer columns of ``counts``.
    PLAN_COUNTS: ClassVar[tuple[str, ...]] = (
        "instructions", "mram_read_bytes", "dma_transactions", "dma_cycles"
    )

    planned: np.ndarray  # (clusters,) bool
    stage_terms: np.ndarray  # (clusters, 4, 2) float64
    first_sums: np.ndarray  # (clusters, 2) float64
    counts: np.ndarray  # (clusters, len(PLAN_COUNTS)) int64
    read_obs: dict[int, np.ndarray]

    @classmethod
    def empty(cls, n_clusters: int) -> "PlanColumns":
        return cls(
            np.zeros(n_clusters, dtype=bool),
            np.zeros((n_clusters, 4, 2)),
            np.zeros((n_clusters, 2)),
            np.zeros((n_clusters, len(cls.PLAN_COUNTS)), dtype=np.int64),
            {},
        )

    def set(self, c: int, pc: PairCharges, barrier: float) -> None:
        """Cluster c's row from its plan."""
        combo = pc.combo_compute if pc.is_cae else 0.0
        terms = [
            [pc.lut_combined, pc.dist_combined],
            [barrier, barrier],
            [combo, 0.0],
            [barrier, 0.0],
        ]
        self.stage_terms[c] = terms
        self.first_sums[c] = [0.0 + t0 + t1 + t2 + t3 for t0, t1, t2, t3 in zip(*terms)]
        self.counts[c] = [getattr(pc, f) for f in self.PLAN_COUNTS]
        n = self.planned.shape[0]
        for size, count in pc.dma_read_observations:
            self.read_obs.setdefault(size, np.zeros(n, dtype=np.int64))[c] += count
        self.planned[c] = True


class ChargePlans:
    """The grouped replay's cross-batch tables: every cluster's
    :class:`PairCharges` as :class:`PlanColumns` per tasklet count,
    planned on a cluster's first visit, plus the top-k stage's costs by
    group size and by write count.  The engine clears them with its
    LUT cache.
    """

    def __init__(self) -> None:
        self._columns: dict[int, PlanColumns] = {}
        self._writes: dict[int, tuple] = {}
        self._scans: dict[tuple, np.ndarray] = {}

    def clear(self) -> None:
        self._columns.clear()
        self._writes.clear()
        self._scans.clear()

    def columns(
        self,
        dpu: DPU,
        pq: ProductQuantizer,
        payloads: Payloads,
        cfg: KernelConfig,
        clusters: np.ndarray,
    ) -> PlanColumns:
        """The columns of ``dpu``'s tasklet count, with every cluster
        of ``clusters`` planned."""
        t = dpu.n_tasklets
        cols = self._columns.get(t)
        if cols is None or cols.planned.shape[0] != len(payloads):
            cols = self._columns[t] = PlanColumns.empty(len(payloads))
        missing = clusters[~cols.planned[clusters]]
        if missing.shape[0]:
            barrier = dpu.barrier_model.barrier_cycles(t)
            for c in dict.fromkeys(missing.tolist()):
                cols.set(c, plan_pair_charges(dpu, pq, payloads[c], cfg), barrier)
        return cols

    def scan_instructions(self, sizes: np.ndarray, cfg: KernelConfig, t: int) -> np.ndarray:
        """The local heap scan's instructions (comparisons and
        insertions, :func:`_scan_charges`) for every group size up to at
        least ``sizes.max()``, indexed by size."""
        key = (t, cfg.k, cfg.workload_scale)
        table = self._scans.get(key)
        longest = int(sizes.max(initial=0))
        if table is None or table.shape[0] <= longest:
            n = max(2 * (0 if table is None else table.shape[0]), longest + 1)
            comps, ins = _scan_charges(
                np.arange(n).astype(np.float64) * cfg.workload_scale, cfg.k, t
            )
            table = comps * INSTR_PER_HEAP_COMPARISON + ins * INSTR_PER_HEAP_INSERTION
            self._scans[key] = table
        return table

    def writes(self, dpu: DPU, k: int) -> tuple:
        """(bytes, cycles, transactions, {size: transfers}) of writing
        a top-k of 0..k entries back to MRAM, each indexed by count."""
        if k not in self._writes:
            nbytes = np.maximum(8, np.arange(k + 1, dtype=np.int64) * 8)
            self._writes[k] = (
                nbytes, *dma_table(dpu.mram_model, nbytes, CODEBOOK_CHUNK_BYTES)
            )
        return self._writes[k]


def dma_table(
    mram: MramModel, nbytes: np.ndarray, chunk: int
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Cycles, transactions and ``{transfer size: transfers}`` of one
    bulk DMA stream of ``nbytes[i]`` bytes at ``chunk``, for every i,
    as :meth:`DPU.charge_mram_read` / ``charge_mram_write`` charge and
    observe one such stream (``transfers[i]``)."""
    sizes = nbytes.tolist()
    obs: dict[int, np.ndarray] = {}
    for i, b in enumerate(sizes):
        for size, count in dma_observations(b, chunk):
            obs.setdefault(size, np.zeros(len(sizes), dtype=np.int64))[i] += count
    cycles = [mram.bulk_transfer_cycles(b, chunk) for b in sizes]
    transactions = [mram.transactions_for(b, chunk) for b in sizes]
    return np.array(cycles, dtype=np.float64), np.array(transactions, dtype=np.int64), obs


def dpu_runs(group_dpu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of an ascending ``group_dpu`` column: (the DPUs, each
    DPU's first group, each group's DPU index).  Needs a group."""
    first = np.ones(group_dpu.shape[0], dtype=bool)
    np.not_equal(group_dpu[1:], group_dpu[:-1], out=first[1:])
    dpu_first = np.flatnonzero(first)
    return group_dpu[dpu_first], dpu_first, np.cumsum(first) - 1


def replay_batch_charges(
    pim: PimSystem,
    pq: ProductQuantizer,
    payloads: Payloads,
    worklist: BatchWorklist,
    topk: GroupTopK,
    cfg: KernelConfig,
    charge_cache: ChargePlans | None = None,
) -> DpuLedger:
    """Ledger half of the grouped kernel: replay every visit's charges.

    Consumes the functional results of :func:`compute_groups_functional`
    and returns every active DPU's stage cycles, served counts and
    counter deltas as columns, exactly as the per-pair reference loop
    would charge them; it observes the DMA telemetry, its only effect
    on shared state (the caller applies the deltas through
    :meth:`PimSystem.add_counters`).

    One vectorized pass: integer ledger deltas and DMA telemetry
    counts add associatively, so they are summed in any order; the
    per-stage cycle floats are order-sensitive and are accumulated left
    to right — each group's pair terms from 0.0, then each DPU's group
    sums from 0.0 — exactly the per-pair loop's sequence.  Per-pair
    terms are gathered from ``charge_cache``'s plan columns (a
    :class:`ChargePlans` kept across batches), the top-k write costs
    from its table by write count (a count is at most k), and each
    DPU's groups are the run of its id in the ascending ``group_dpu``.
    """
    n_groups = worklist.n_groups
    if n_groups == 0:
        return DpuLedger.empty()
    # Every DPU shares one hardware model; the tasklet count is uniform.
    dpu0 = pim.dpu(int(worklist.group_dpu[0]))
    t = dpu0.n_tasklets
    barrier = dpu0.barrier_model.barrier_cycles(t)
    plans = charge_cache if charge_cache is not None else ChargePlans()
    pair_cluster = worklist.pair_cluster
    cols = plans.columns(dpu0, pq, payloads, cfg, pair_cluster)

    # Stage floats, group level: each pair's LUT and distance terms,
    # after each group's first pair.
    bounds = worklist.group_bounds
    pair_group = worklist.pair_group
    pair_slot = np.arange(pair_group.shape[0]) - bounds[pair_group]
    later = np.flatnonzero(pair_slot)
    lut_g, dist_g = _sequential_sums(
        np.take(cols.stage_terms, pair_cluster[later], axis=0),
        pair_group[later],
        pair_slot[later] - 1,
        n_groups,
        start=np.take(cols.first_sums, pair_cluster[bounds[:-1]], axis=0),
    ).T

    # Top-k stage, exactly as the per-pair loop's stage d; its scan
    # instructions depend on the group's size alone.
    merge = topk.stats[:, 3].astype(np.float64)
    topk_instr = plans.scan_instructions(topk.sizes, cfg, t)[topk.sizes]
    topk_instr += merge * INSTR_PER_HEAP_COMPARISON
    # DPUPipeline.compute_cycles, element-wise.
    topk_g = topk_instr / dpu0.pipeline.throughput(t) + barrier  # + Barrier 3
    counts = topk.counts
    write_bytes, write_cycles, write_tx, write_sizes = plans.writes(dpu0, cfg.k)
    w_cycles = write_cycles[counts]
    topk_g = topk_g + w_cycles

    # Stage floats, DPU level: group sums in group order.
    dpus, dpu_first, dpu_of_group = dpu_runs(worklist.group_dpu)
    group_slot = np.arange(n_groups) - dpu_first[dpu_of_group]
    # One sum per StageCycles field: (cluster_filter, lut_construction,
    # distance_calc, topk_selection, other); the first and last stay 0.0.
    stages = np.zeros((dpus.shape[0], len(STAGE_FIELDS)))
    stages[:, 1:4] = _sequential_sums(
        np.stack([lut_g, dist_g, topk_g], axis=1)[:, None, :],
        dpu_of_group,
        group_slot,
        dpus.shape[0],
    )

    # Integer ledger deltas per DPU (exact in any summation order): the
    # pairs' plan counts through each DPU's visits per cluster.
    n_dpus, n_clusters = dpus.shape[0], len(payloads)
    visits = np.bincount(
        dpu_of_group[pair_group] * n_clusters + pair_cluster,
        minlength=n_dpus * n_clusters,
    ).reshape(n_dpus, n_clusters)
    pair_sums = dict(zip(PlanColumns.PLAN_COUNTS, (visits @ cols.counts).T))
    group_sums = {
        name: np.add.reduceat(x, dpu_first)
        for name, x in (
            ("instructions", topk_instr.astype(np.int64)),
            ("mram_write_bytes", write_bytes[counts]),
            ("dma_transactions", write_tx[counts]),
            ("dma_cycles", w_cycles.astype(np.int64)),
            ("heap_comparisons", topk.stats[:, 0]),
            ("pruned_insertions", topk.stats[:, 2]),
            ("results", counts),
        )
    }
    n_pairs_d = visits.sum(axis=1)
    n_groups_d = np.diff(np.append(dpu_first, n_groups))

    column = COUNTER_FIELDS.index
    deltas = np.zeros((n_dpus, len(COUNTER_FIELDS)), dtype=np.int64)
    for name in ("instructions", "dma_transactions", "dma_cycles"):
        deltas[:, column(name)] = pair_sums[name] + group_sums[name]
    deltas[:, column("mram_read_bytes")] = pair_sums["mram_read_bytes"]
    for name in ("mram_write_bytes", "heap_comparisons", "pruned_insertions"):
        deltas[:, column(name)] = group_sums[name]
    deltas[:, column("barriers")] = 3 * n_pairs_d + n_groups_d

    writes = np.bincount(counts, minlength=cfg.k + 1)
    observe_dma_batch(
        "read",
        int(pair_sums["mram_read_bytes"].sum()),
        _transfers(cols.read_obs, visits.sum(axis=0)),
    )
    observe_dma_batch(
        "write", int(group_sums["mram_write_bytes"].sum()), _transfers(write_sizes, writes)
    )
    return DpuLedger(dpus, stages, n_groups_d, n_pairs_d, group_sums["results"], deltas)


def _transfers(per_item: dict[int, np.ndarray], n: np.ndarray) -> dict[int, int]:
    """{transfer size: count} of ``n[i]`` repeats of item i, where
    ``per_item[size][i]`` counts item i's transfers of that size."""
    out = {size: int(per @ n) for size, per in per_item.items()}
    return {size: count for size, count in out.items() if count}
