"""IVFFlat on PIM: the transferability demonstration.

The paper's conclusion: "the core techniques, namely workload
distribution, resource management, and top-k pruning, are transferable"
beyond IVFPQ.  This engine reuses Algorithm 1 placement, Algorithm 2
scheduling, the WRAM/MRAM models and the Opt4 pruned top-k over an
:class:`~repro.ivfpq.ivfflat.IVFFlatIndex` — no LUTs, no CAE (there are
no codes to re-encode), raw L2 on the DPU.

The per-point costs differ sharply from IVFPQ: a raw 128-d float vector
is 512 B of MRAM traffic (vs 16-32 B of codes), so the flat engine is
even more memory-bound — exactly why the paper's billion-scale focus is
compression-based methods.

The kernel has the PQ kernel's shape: the batch's (DPU, query) groups
as a :class:`~repro.core.kernel.BatchWorklist`, one
:func:`~repro.core.topk.scan_topk_fast_batch_flat` over every group and
one charge replay into a :class:`~repro.core.kernel.DpuLedger`; only
the functional scan and the cost profile are the engine's own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import (
    BatchResult,
    KernelOutput,
    KernelTraits,
    run_batch_pipeline,
)
from repro.faults import FaultPlan, FaultState
from repro.core.kernel import (
    INSTR_PER_HEAP_COMPARISON,
    INSTR_PER_HEAP_INSERTION,
    INSTR_PER_VECTOR_OVERHEAD,
    BatchWorklist,
    DpuLedger,
    _scan_charges,
    _sequential_sums,
    _transfers,
    dma_table,
    dpu_runs,
)
from repro.core.memory_plan import HEAP_ENTRY_BYTES
from repro.core.placement import Placement, place_clusters, random_placement
from repro.core.scheduling import Assignment
from repro.core.topk import GroupTopK, scan_topk_fast_batch_flat
from repro.errors import ConfigError, NotTrainedError
from repro.hardware.counters import COUNTER_FIELDS, STAGE_FIELDS
from repro.hardware.host import HostModel
from repro.hardware.mram import MAX_DMA_BYTES, round_up_dma
from repro.hardware.rank import PimSystem
from repro.ivfpq.ivfflat import IVFFlatIndex
from repro.ivfpq.kmeans import squared_distances
from repro.telemetry.pipeline import observe_dma_batch
from repro.tracing.context import TraceContext

logger = logging.getLogger(__name__)

# One fused multiply-add per dimension, two instructions on the
# FPU-less DPU (fixed-point mul + add).
INSTR_PER_DIM = 2.0


@dataclass
class IVFFlatPimEngine:
    """UpANNS's Opt1/Opt2/Opt4 applied to IVFFlat."""

    config: SystemConfig
    index: IVFFlatIndex = field(init=False)
    pim: PimSystem = field(init=False)
    host: HostModel = field(default_factory=HostModel)
    placement: Placement | None = None
    _sizes: np.ndarray | None = None
    _built: bool = False
    fault_state: FaultState | None = None

    KERNEL: ClassVar[KernelTraits] = KernelTraits(
        "ivfflat_pim",
        ships_worklist=False,
        drops_empty_pairs=False,
        records_access=False,
    )

    def __post_init__(self) -> None:
        ic = self.config.index
        self.index = IVFFlatIndex(ic.dim, ic.n_clusters)

    def inject(self, plan: FaultPlan) -> FaultState:
        """Arm a fault plan (same granularity mapping as the PQ engine)."""
        for event in plan.events:
            if event.kind == "host":
                raise ConfigError(
                    f"fault event {event} targets a host, but this engine "
                    "injects at DPU granularity; host faults belong on the "
                    "coordinator (MultiHostEngine.inject)"
                )
        spec = self.config.pim
        dimm = spec.chips_per_dimm * spec.dpus_per_chip
        self.fault_state = plan.state(
            n_units=spec.n_dpus,
            rank_size=max(1, dimm // 2),
            dimm_size=dimm,
        )
        return self.fault_state

    def clear_faults(self) -> None:
        self.fault_state = None

    def build(
        self,
        vectors: np.ndarray,
        *,
        frequencies: np.ndarray | None = None,
        history_queries: np.ndarray | None = None,
        prebuilt_index: IVFFlatIndex | None = None,
        rng: np.random.Generator | None = None,
    ) -> "IVFFlatPimEngine":
        ic, uc = self.config.index, self.config.upanns
        rng = rng if rng is not None else np.random.default_rng(0)
        if prebuilt_index is not None:
            if not prebuilt_index.is_trained or prebuilt_index.ntotal == 0:
                raise NotTrainedError("prebuilt_index must be trained and populated")
            self.index = prebuilt_index
        else:
            vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=np.float32)
            self.index.train(vectors, n_iter=ic.train_iters, rng=rng)
            self.index.add(vectors)

        sizes = self.index.cluster_sizes()
        self._sizes = sizes
        if frequencies is None and history_queries is not None:
            probes = self.index.ivf.search_clusters(
                np.atleast_2d(history_queries), self.config.query.nprobe
            )
            frequencies = (
                np.bincount(probes.ravel(), minlength=ic.n_clusters) + 1.0
            )
        if frequencies is None:
            frequencies = np.full(ic.n_clusters, 1.0)
        frequencies = np.asarray(frequencies, dtype=np.float64)
        frequencies = frequencies / frequencies.sum()

        # Raw vectors are dim*4 B each — MRAM capacity binds much
        # earlier than with PQ codes.
        per_vector = ic.dim * 4 + 8
        max_vec = int(self.config.pim.dpu.mram_bytes // per_vector)
        if uc.enable_placement:
            self.placement = place_clusters(
                sizes,
                frequencies,
                self.config.pim.n_dpus,
                max_dpu_vectors=max_vec,
                centroids=self.index.ivf.centroids,
                replication_headroom=uc.replication_headroom,
            )
        else:
            self.placement = random_placement(
                sizes, self.config.pim.n_dpus, max_dpu_vectors=max_vec, rng=rng
            )
        self.pim = PimSystem(self.config.pim, n_tasklets=uc.n_tasklets)
        for c, cl in enumerate(self.index.lists):
            if cl.size == 0:
                continue
            blob = np.empty(cl.nbytes, dtype=np.uint8)
            for d in self.placement.replicas[c]:
                self.pim.dpu(d).mram_store(f"cluster_{c}", blob)
        self._built = True
        logger.info(
            "built IVFFlat-PIM: %d clusters on %d DPUs (%.0f MB raw vectors)",
            ic.n_clusters,
            self.config.pim.n_dpus,
            self.index.memory_bytes() / 1e6,
        )
        return self

    def _read_chunk_bytes(self) -> int:
        """Per-DMA chunk: as many raw vectors as fit in 2 KB."""
        vec_bytes = self.config.index.dim * 4
        per_read = max(1, min(self.config.upanns.mram_read_vectors, MAX_DMA_BYTES // vec_bytes))
        return round_up_dma(min(per_read * vec_bytes, MAX_DMA_BYTES))

    def search_batch(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        trace: TraceContext | None = None,
    ) -> BatchResult:
        """Filter -> schedule -> per-DPU raw-L2 scan -> pruned top-k
        (:func:`~repro.core.engine.run_batch_pipeline`)."""
        return run_batch_pipeline(self, queries, k=k, trace=trace)

    def _run_kernel(
        self, queries: np.ndarray, probes, assignment: Assignment, k: int
    ) -> KernelOutput:
        """Every DPU's raw-L2 scans and pruned top-k, batch-wide.

        The (DPU, query) groups are the :class:`BatchWorklist`'s, in the
        per-group loop's visiting order.  The distance scans stay per
        (query, cluster) — concatenating clusters into one GEMM is NOT
        bit-safe (BLAS blocking varies with the operand shape) — but one
        :func:`scan_topk_fast_batch_flat` selects every group's top-k
        and :meth:`_replay_charges` charges the batch as columns.
        """
        worklist = BatchWorklist.from_assignment(assignment, self._sizes)
        lists = self.index.lists
        pair_cluster = worklist.pair_cluster.tolist()
        pair_query = worklist.group_query[worklist.pair_group].tolist()
        rows = (
            squared_distances(queries[q : q + 1], lists[c].vectors)[0]
            for q, c in zip(pair_query, pair_cluster)
        )
        values = np.concatenate([np.empty(0, np.float32), *rows])
        ids = np.concatenate([np.empty(0, np.int64), *(lists[c].ids for c in pair_cluster)])
        scanned = np.zeros(len(pair_cluster) + 1, dtype=np.int64)
        np.cumsum(self._sizes[worklist.pair_cluster], out=scanned[1:])
        topk = scan_topk_fast_batch_flat(
            values,
            ids,
            np.diff(scanned[worklist.group_bounds]),
            k,
            self.pim.dpus[0].n_tasklets,
            prune=self.config.upanns.enable_topk_pruning,
        )
        ledger = self._replay_charges(worklist, topk, k)
        self.pim.add_counters(ledger.dpus, ledger.deltas)
        # Each query's partial results, in ascending DPU order.
        per_query = topk.take(worklist.query_major())
        nq = queries.shape[0]
        return KernelOutput(
            ledger,
            topk.total_stats(),
            np.bincount(worklist.group_query, topk.counts, nq).astype(np.int64),
            per_query.ids,
            per_query.values,
        )

    def _replay_charges(
        self, worklist: BatchWorklist, topk: GroupTopK, k: int
    ) -> DpuLedger:
        """Every group's charges as columns, as the per-group loop
        charges them through ``DPU.charge_*``.

        A cluster scan (the raw-vector MRAM read and the distance FMAs,
        overlapped, then one barrier) costs what the cluster's size
        makes it cost; a group's top-k (heap scan and merge, then the
        result write-back) what its scanned length, merge comparisons
        and result count do.  Integer deltas and DMA transfers add in
        any order; each DPU's ``distance_calc`` and ``topk_selection``
        chains are summed left to right in visiting order.
        """
        if worklist.n_groups == 0:
            return DpuLedger.empty()
        scale, dim = self.config.timing_scale, self.config.index.dim
        dpu = self.pim.dpus[0]  # every DPU shares one hardware model
        t, chunk = dpu.n_tasklets, self._read_chunk_bytes()
        speed = dpu.pipeline.throughput(t)

        # Scan terms per distinct cluster size, top-k terms per group,
        # write-back terms per distinct result count.
        sizes, size_of = np.unique(
            self._sizes[worklist.pair_cluster], return_inverse=True
        )
        scan_instr = scale * sizes * (dim * INSTR_PER_DIM + INSTR_PER_VECTOR_OVERHEAD)
        read_bytes = (sizes * (dim * 4) * scale).astype(np.int64)
        read_cycles, read_tx, read_obs = dma_table(dpu.mram_model, read_bytes, chunk)
        scan_terms = np.array([
            [dpu.combine_cycles(i / speed, d), dpu.barrier_model.barrier_cycles(t)]
            for i, d in zip(scan_instr.tolist(), read_cycles.tolist())
        ])
        comps, ins = _scan_charges(topk.sizes * scale, k, t)
        topk_instr = (
            comps * INSTR_PER_HEAP_COMPARISON
            + ins * INSTR_PER_HEAP_INSERTION
            + topk.stats[:, 3] * INSTR_PER_HEAP_COMPARISON
        )
        counts, count_of = np.unique(topk.counts, return_inverse=True)
        write_bytes = np.maximum(8, counts * HEAP_ENTRY_BYTES)
        write_cycles, write_tx, write_obs = dma_table(
            dpu.mram_model, write_bytes, chunk
        )

        # Each DPU's pairs and groups are contiguous runs.
        dpus, dpu_first, dpu_of_group = dpu_runs(worklist.group_dpu)
        n_dpus, pair_first = dpus.shape[0], worklist.group_bounds[dpu_first]
        pair_dpu = dpu_of_group[worklist.pair_group]
        pairs = np.diff(np.append(pair_first, pair_dpu.shape[0]))
        stages = np.zeros((n_dpus, len(STAGE_FIELDS)))
        stages[:, STAGE_FIELDS.index("distance_calc")] = _sequential_sums(
            scan_terms[size_of],
            pair_dpu,
            np.arange(pair_dpu.shape[0]) - pair_first[pair_dpu],
            n_dpus,
        )
        stages[:, STAGE_FIELDS.index("topk_selection")] = _sequential_sums(
            np.stack([topk_instr / speed, write_cycles[count_of]], axis=1),
            dpu_of_group,
            np.arange(worklist.n_groups) - dpu_first[dpu_of_group],
            n_dpus,
        )
        # Instructions, MRAM bytes, DMA transactions and DMA cycles, each
        # truncated per charge as ``int()`` truncates it (the integer
        # terms pass through float64 exactly).
        scans = np.column_stack([scan_instr, read_bytes, read_tx, read_cycles])
        writes = np.column_stack([write_bytes, write_tx, write_cycles])[count_of]
        column = COUNTER_FIELDS.index
        names = ["instructions", "mram_read_bytes", "dma_transactions", "dma_cycles"]
        deltas = np.zeros((n_dpus, len(COUNTER_FIELDS)), dtype=np.int64)
        deltas[:, list(map(column, names))] = np.add.reduceat(
            scans.astype(np.int64)[size_of], pair_first
        )
        names[1] = "mram_write_bytes"
        deltas[:, list(map(column, names))] += np.add.reduceat(
            np.column_stack([topk_instr, writes]).astype(np.int64), dpu_first
        )
        deltas[:, column("barriers")] = pairs
        observe_dma_batch(
            "read",
            int(deltas[:, column("mram_read_bytes")].sum()),
            _transfers(read_obs, np.bincount(size_of, minlength=sizes.shape[0])),
        )
        observe_dma_batch(
            "write",
            int(deltas[:, column("mram_write_bytes")].sum()),
            _transfers(write_obs, np.bincount(count_of, minlength=counts.shape[0])),
        )
        return DpuLedger(
            dpus,
            stages,
            np.diff(np.append(dpu_first, worklist.n_groups)),
            pairs,
            np.add.reduceat(topk.counts, dpu_first),
            deltas,
        )


def make_flat_engine(
    dim: int,
    *,
    n_clusters: int,
    nprobe: int,
    k: int = 10,
    pim_spec=None,
    upanns: UpANNSConfig | None = None,
    timing_scale: float = 1.0,
    train_iters: int = 8,
) -> IVFFlatPimEngine:
    """Convenience constructor mirroring :func:`make_engine`."""
    from repro.hardware.specs import UPMEM_7_DIMMS

    if dim % 4:
        raise ConfigError("dim must be a multiple of 4 for DMA alignment")
    cfg = SystemConfig(
        index=IndexConfig(dim=dim, n_clusters=n_clusters, m=4, train_iters=train_iters),
        query=QueryConfig(nprobe=nprobe, k=k),
        upanns=upanns if upanns is not None else UpANNSConfig(enable_cae=False),
        pim=pim_spec if pim_spec is not None else UPMEM_7_DIMMS,
        timing_scale=timing_scale,
    )
    return IVFFlatPimEngine(cfg)
