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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import (
    BatchResult,
    _degraded_result,
    _query_major,
    _retry_work,
    _unit_trace_ids,
    _work_dpu_ledger,
    merge_partials,
)
from repro.sanitize.hook import debug_sanitize_schedule
from repro.faults import FaultPlan, FaultState, restrict_placement
from repro.core.kernel import (
    INSTR_PER_HEAP_COMPARISON,
    INSTR_PER_HEAP_INSERTION,
    INSTR_PER_VECTOR_OVERHEAD,
    DpuLedger,
)
from repro.core.memory_plan import HEAP_ENTRY_BYTES
from repro.core.placement import Placement, place_clusters, random_placement
from repro.core.scheduling import schedule_batch
from repro.core.topk import (
    HeapStats,
    estimate_scan_stats,
    scan_topk_fast,
    scan_topk_fast_batch,
)
from repro.errors import ConfigError, NotTrainedError
from repro.hardware.counters import StageCycles
from repro.hardware.host import HostModel
from repro.hardware.mram import MAX_DMA_BYTES, round_up_dma
from repro.hardware.rank import PimSystem
from repro.ivfpq.ivfflat import IVFFlatIndex
from repro.ivfpq.kmeans import squared_distances
from repro.metrics.balance import max_mean_ratio
from repro.metrics.breakdown import stage_seconds_from_schedule
from repro.telemetry.pipeline import observe_batch
from repro.tracing.context import TraceContext
from repro.sim import (
    HOST_CPU,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_SCHEDULE,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchWork,
)

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
    _built: bool = False
    fault_state: FaultState | None = None

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

    def search_batch(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        trace: TraceContext | None = None,
    ) -> BatchResult:
        """Filter -> schedule -> per-DPU raw-L2 scan -> pruned top-k."""
        if not self._built or self.placement is None:
            raise NotTrainedError("build() must be called before search_batch()")
        qc, ic, uc = self.config.query, self.config.index, self.config.upanns
        k = k if k is not None else qc.k
        queries = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float32)
        nq = queries.shape[0]
        sizes = self.index.cluster_sizes()
        ctx = trace if trace is not None else TraceContext.for_batch(nq)
        if len(ctx) != nq:
            raise ConfigError(
                f"trace context carries {len(ctx)} ids for a batch of {nq}"
            )

        work = BatchWork(
            dpu_frequency_hz=self.config.pim.dpu.frequency_hz, batch=ctx.batch
        )
        probes = self.index.ivf.search_clusters(queries, qc.nprobe)
        host_prep = work.work(
            HOST_CPU,
            STAGE_CLUSTER_FILTER,
            self.host.cluster_filter_seconds(nq, ic.n_clusters, ic.dim),
            trace_ids=ctx.all_ids(),
        )
        # Fault plane (see UpANNSEngine.search_batch): faults apply
        # before scheduling so routing already avoids dead DPUs.
        state = self.fault_state
        faults = state.begin_batch() if state is not None else None
        exec_placement = self.placement
        rerouted_clusters: frozenset[int] = frozenset()
        if state is not None:
            exec_placement, rerouted_clusters, _ = restrict_placement(
                self.placement, state.dead
            )
        assignment = schedule_batch(
            probes,
            sizes,
            exec_placement,
            on_missing="drop" if state is not None else "raise",
        )
        host_prep = work.work(
            HOST_CPU,
            STAGE_SCHEDULE,
            self.host.scheduling_seconds_for_pairs(assignment.total_pairs()),
            after=(host_prep,),
            trace_ids=ctx.all_ids(),
        )
        last_bus = self.pim.work_broadcast(
            work,
            nq * ic.dim * 4,
            stage=STAGE_TRANSFER_IN,
            after=(host_prep,),
            trace_ids=ctx.all_ids(),
        )
        if faults is not None and (faults.transient or faults.escalated):
            last_bus = _retry_work(
                work, faults, state,
                (assignment.pair_counts() * 8).tolist(),
                self.config.pim.host_transfer_bytes_per_s,
                after=last_bus,
                trace_ids_by_unit=_unit_trace_ids(assignment, ctx),
            )

        chunk = self._read_chunk_bytes()
        group_results: list[tuple[int, np.ndarray, np.ndarray]] = []
        heap_total = HeapStats()
        stage_by_dpu = [StageCycles() for _ in range(self.pim.n_dpus)]
        # Queries, pairs and results per DPU.
        served = np.zeros((3, self.pim.n_dpus), dtype=np.int64)
        self.pim.reset_counters()
        bounds = assignment.dpu_bounds.tolist()
        pair_query = assignment.pair_query.tolist()
        pair_cluster = assignment.pair_cluster.tolist()
        for d in range(assignment.n_dpus):
            lo, hi = bounds[d], bounds[d + 1]
            if lo == hi:
                continue
            dpu = self.pim.dpu(d)
            by_query: dict[int, list[int]] = {}
            for qi, c in zip(pair_query[lo:hi], pair_cluster[lo:hi]):
                if self.index.lists[c].size:
                    by_query.setdefault(qi, []).append(c)
            if not by_query:
                continue
            served[0, d] = len(by_query)
            served[1, d] = sum(map(len, by_query.values()))
            stage = stage_by_dpu[d]
            if uc.kernel_mode == "grouped":
                # Fused top-k: the distance scans stay per (query,
                # cluster) — concatenating clusters into one GEMM is NOT
                # bit-safe (BLAS blocking varies with the operand shape)
                # — but every group's selection runs as one batched
                # call, and charges replay afterwards in the per-pair
                # loop's exact per-stage order.
                groups = list(by_query.items())
                values_list: list[np.ndarray] = []
                ids_list: list[np.ndarray] = []
                for qi, clusters in groups:
                    parts = [
                        squared_distances(
                            queries[qi : qi + 1], self.index.lists[c].vectors
                        )[0].astype(np.float32)
                        for c in clusters
                    ]
                    values_list.append(np.concatenate(parts))
                    ids_list.append(
                        np.concatenate(
                            [self.index.lists[c].ids for c in clusters]
                        )
                    )
                topk = scan_topk_fast_batch(
                    values_list, ids_list, k, dpu.n_tasklets,
                    prune=uc.enable_topk_pruning,
                )
                for (qi, clusters), (out_v, out_ids, stats), vals in zip(
                    groups, topk, values_list
                ):
                    for c in clusters:
                        self._charge_scan(dpu, stage, self.index.lists[c], chunk)
                    heap_total.merge(stats)
                    self._charge_topk(
                        dpu, stage, vals.shape[0], stats, out_v.shape[0], k, chunk
                    )
                    group_results.append((qi, out_ids, out_v))
                    served[2, d] += out_v.shape[0]
            else:
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
                    heap_total.merge(stats)
                    self._charge_topk(
                        dpu, stage, ids.shape[0], stats, out_v.shape[0], k, chunk
                    )
                    group_results.append((qi, out_ids, out_v))
                    served[2, d] += out_v.shape[0]

        freq = self.config.pim.dpu.frequency_hz
        # Size the result gather by what each DPU actually produced — a
        # group over small clusters can return fewer than k candidates.
        dpu_tail, busy, result_sizes = _work_dpu_ledger(
            work,
            DpuLedger.of_stages(stage_by_dpu, *served, self.pim.ledger),
            self.pim.n_dpus,
            assignment,
            ctx,
            after=last_bus,
            pad=uc.enable_placement,
        )
        gather = self.pim.work_gather(
            work,
            result_sizes,
            stage=STAGE_TRANSFER_OUT,
            after=tuple(dpu_tail) if dpu_tail else (last_bus,),
            trace_ids=ctx.all_ids(),
        )

        out_i, out_d = merge_partials(*_query_major(group_results, nq), k)
        work.work(
            HOST_CPU,
            STAGE_AGGREGATE,
            self.host.aggregate_seconds(
                nq, k, max(1, len(group_results) // max(nq, 1))
            ),
            after=(gather,),
            trace_ids=ctx.all_ids(),
        )

        schedule = work.execute()
        timing = schedule.derive_batch_timing()
        stage_seconds = stage_seconds_from_schedule(schedule, timing)
        observe_batch(
            "ivfflat_pim",
            nq,
            timing,
            busy_cycles=float(busy.sum()),
            active_dpus=int((busy > 0).sum()),
            n_tasklets=self.pim.dpus[0].n_tasklets,
        )
        degraded = None
        if state is not None and faults is not None:
            degraded = _degraded_result(
                "ivfflat_pim", nq, probes, assignment, faults, state,
                rerouted_clusters, timing.retry_s,
            )
        debug_sanitize_schedule(
            schedule,
            timing=timing,
            stage_seconds=stage_seconds,
            degraded=degraded,
            label="ivfflat_pim batch",
        )
        return BatchResult(
            ids=out_i,
            distances=out_d,
            timing=timing,
            stage_seconds=stage_seconds,
            assignment=assignment,
            heap_stats=heap_total,
            cycle_load_ratio=max_mean_ratio(busy, active_only=True),
            dpu_busy_seconds=busy / freq,
            schedule=schedule,
            degraded=degraded,
            work=work,
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
