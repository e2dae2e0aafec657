"""The UpANNS engine: offline build + online batch search (paper section 3).

Offline: train IVFPQ, mine co-occurrences and re-encode clusters (Opt3),
place cluster replicas across DPUs from the access trace (Opt1), load
MRAM and plan WRAM (Opt2).  Online: host-side cluster filtering and
greedy scheduling (Opt1), per-DPU kernel execution (Opt2/3/4), host-side
aggregation.  Functional results are exact IVFPQ results; timing comes
from the hardware models.

Setting ``enable_placement/enable_cae/enable_topk_pruning`` to False
turns the engine into the paper's PIM-naive baseline (same resource
management, none of the UpANNS optimizations).
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.errors import ConfigError, DpuFailedError, NotTrainedError
from repro.faults import (
    BatchFaults,
    DegradedResult,
    FaultPlan,
    FaultState,
    coverage_fractions,
    restrict_placement,
)
from repro.core.cooccurrence import mine_combinations
from repro.core.encoding import build_flat_table, encode_cluster
from repro.core import kernel
from repro.core.kernel import ClusterPayload, DpuLedger, KernelConfig
from repro.core.lut_cache import BatchCandidates, LutCache
from repro.core.memory_plan import WramPlan, plan_wram
from repro.core.placement import Placement, place_clusters, random_placement
from repro.core.scheduling import Assignment, schedule_batch
from repro.core.validation import validate_queries
from repro.core.topk import HeapStats, row_topk, segment_indices
from repro.hardware.counters import StageCycles
from repro.hardware.host import HostModel
from repro.hardware.rank import PimSystem
from repro.ivfpq.adc import topk_from_distances
from repro.ivfpq.index import IVFPQIndex
from repro.ivfpq.pq import ProductQuantizer
from repro.metrics.balance import max_mean_ratio
from repro.metrics.breakdown import stage_seconds_from_schedule
from repro.sanitize.hook import debug_sanitize_schedule
from repro.telemetry.pipeline import observe_batch, observe_faults
from repro.sim import (
    HOST_CPU,
    PIM_BUS,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_RETRY,
    STAGE_SCHEDULE,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchSchedule,
    BatchTiming,
    BatchWork,
)
from repro.tracing.context import TraceContext
from repro.workload.trace import AccessTrace

logger = logging.getLogger(__name__)

#: Missed (query, cluster) tables built (and gathered) at once by
#: :func:`build_batch_tables`: bounds its reused (rows, longest table + 1)
#: float32 buffer (~2.3 MiB at m = 8 with 256 combination slots).
TABLE_CHUNK_ROWS = 256


@dataclass
class OfflineStats:
    """What the offline phase cost and produced (reported by build()).

    ``mram_load_seconds`` models pushing every cluster replica from the
    host into MRAM.  Per-DPU payloads are naturally non-uniform, so the
    transfer serializes (paper section 2.2) — a one-time cost the online
    phase then amortizes.
    """

    mram_load_seconds: float = 0.0
    mram_load_parallel: bool = False
    total_payload_bytes: int = 0
    replication_overhead: float = 1.0  # stored bytes / unique bytes

    def amortized_over(self, n_queries: int, batch_qps: float) -> float:
        """Fraction of total serving time the load cost represents after
        ``n_queries`` have been served at ``batch_qps``."""
        if n_queries <= 0 or batch_qps <= 0:
            raise ConfigError("need positive query volume and QPS")
        serve_s = n_queries / batch_qps
        return self.mram_load_seconds / (self.mram_load_seconds + serve_s)


@dataclass
class BatchResult:
    """Functional + modeled-timing outcome of one batch."""

    ids: np.ndarray  # (nq, k) int64, -1 padded
    distances: np.ndarray  # (nq, k) float32, inf padded
    timing: BatchTiming
    stage_seconds: StageCycles  # breakdown incl. host filter (Figure 19)
    assignment: Assignment
    heap_stats: HeapStats
    cycle_load_ratio: float  # measured max/mean DPU busy cycles
    dpu_busy_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    schedule: BatchSchedule | None = None  # per-resource event timelines
    #: Fault-plane outcome; ``None`` on the fault-free path.
    degraded: DegradedResult | None = None
    #: The batch's work description (the DAG ``schedule`` was executed
    #: from) — what cross-batch stream execution re-runs under queuing.
    work: BatchWork | None = None

    @property
    def qps(self) -> float:
        n = self.ids.shape[0]
        total = self.timing.total_s
        return n / total if total > 0 else float("inf")

    def energy_report(self, pim_spec) -> dict[str, float]:
        """Activity-based energy accounting for this batch (J, J/query,
        idle-energy share) next to the paper's peak-power figure."""
        from repro.hardware.energy import batch_energy_report

        return batch_energy_report(
            pim_spec,
            self.dpu_busy_seconds,
            self.timing.dpu_makespan_s,
            self.ids.shape[0],
        )


@dataclass(frozen=True)
class KernelTraits:
    """Where an engine's kernel shapes :func:`run_batch_pipeline`.

    Facts about the kernel, not user options: the pipeline is the same
    for every engine, and these say what its kernel needs around it.
    """

    #: Engine label of the batch and fault metrics; the sanitizer
    #: reports under ``"<label> batch"``.
    label: str
    #: The host ships every DPU its (query, cluster) worklist before the
    #: kernel runs (padded to the largest when placement is on, so the
    #: transfer parallelizes).  Transient-fault retries re-send it.
    ships_worklist: bool
    #: Probed clusters with no points are dropped before scheduling.
    drops_empty_pairs: bool
    #: The batch's probes feed the engine's ``trace`` (an
    #: :class:`AccessTrace`), the live frequencies of re-placement.
    records_access: bool


@dataclass(frozen=True)
class KernelOutput:
    """One batch's DPU kernel run, as an engine hands it to the pipeline.

    ``ledger`` holds every active DPU's stage cycles, served counts and
    counter deltas (already applied to the DPUs).  The partial results
    are query-major: query q's are the next ``counts[q]`` entries of
    ``ids`` / ``values``, one block per (DPU, query) group in ascending
    DPU order.
    """

    ledger: DpuLedger
    heap_stats: HeapStats
    counts: np.ndarray  # (queries,) int64
    ids: np.ndarray
    values: np.ndarray


@dataclass
class UpANNSEngine:
    """Facade over the full UpANNS system."""

    config: SystemConfig
    index: IVFPQIndex = field(init=False)
    pim: PimSystem = field(init=False)
    host: HostModel = field(default_factory=HostModel)
    placement: Placement | None = None
    wram_plan: WramPlan | None = None
    trace: AccessTrace | None = None
    offline: OfflineStats | None = None
    lut_cache: LutCache | None = None
    _payloads: list[ClusterPayload] = field(default_factory=list)
    # Every payload's point ids back to back (the grouped kernel's id
    # lookup), derived from ``_payloads``.
    _point_ids: kernel.PointIds | None = None
    # Cluster id -> slot lanes of every CAE payload (its flat tables'
    # partial-sum gather), derived from ``_payloads``.
    _slot_lanes: dict[int, np.ndarray] = field(default_factory=dict)
    _sizes: np.ndarray | None = None
    _owned: np.ndarray | None = None
    _built: bool = False
    _codebook_version: int = 0
    #: Live fault runtime; ``None`` keeps the engine on the exact
    #: fault-free code path (golden-pinned).
    fault_state: FaultState | None = None
    # Memoized per-cluster visit charges for the grouped kernel, as
    # columns by cluster id per tasklet count; cleared with the LUT cache.
    _pair_charges: kernel.ChargePlans = field(default_factory=kernel.ChargePlans)

    def __post_init__(self) -> None:
        ic = self.config.index
        self.index = IVFPQIndex(ic.dim, ic.n_clusters, ic.m, ic.nbits)

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------

    def build(
        self,
        vectors: np.ndarray,
        *,
        frequencies: np.ndarray | None = None,
        history_queries: np.ndarray | None = None,
        train_vectors: np.ndarray | None = None,
        prebuilt_index: IVFPQIndex | None = None,
        cluster_subset: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> "UpANNSEngine":
        """Run the complete offline pipeline of Figure 5 (top).

        Cluster access frequencies for Algorithm 1 come from, in order of
        preference: an explicit ``frequencies`` vector, a sample of
        ``history_queries`` (filtered through the freshly-trained coarse
        quantizer, mirroring how the paper derives f_i from historical
        access patterns), or a uniform prior.

        ``cluster_subset`` restricts which clusters this engine owns
        (places in MRAM) — the multi-host extension of paper section 5.5
        shards the global cluster set across hosts this way.  Queries
        must then arrive with externally computed ``probes`` limited to
        owned clusters.
        """
        ic, uc = self.config.index, self.config.upanns
        rng = rng if rng is not None else np.random.default_rng(0)
        vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=np.float32)

        if prebuilt_index is not None:
            if not prebuilt_index.is_trained or prebuilt_index.ntotal == 0:
                raise NotTrainedError("prebuilt_index must be trained and populated")
            if (prebuilt_index.dim, prebuilt_index.n_clusters, prebuilt_index.m) != (
                ic.dim,
                ic.n_clusters,
                ic.m,
            ):
                raise ConfigError("prebuilt_index geometry does not match config")
            self.index = prebuilt_index
        else:
            train = train_vectors if train_vectors is not None else vectors
            self.index.train(train, n_iter=ic.train_iters, rng=rng)
            self.index.add(vectors)

        sizes = self.index.ivf.cluster_sizes()
        self._sizes = sizes
        self.trace = AccessTrace(ic.n_clusters)
        if frequencies is None and history_queries is not None:
            hist_probes = self.index.ivf.search_clusters(
                np.atleast_2d(history_queries), self.config.query.nprobe
            )
            self.trace.record_batch(hist_probes)
            frequencies = self.trace.frequencies()
        elif frequencies is None:
            frequencies = np.full(ic.n_clusters, 1.0 / ic.n_clusters)
        else:
            frequencies = np.asarray(frequencies, dtype=np.float64)
            frequencies = frequencies / frequencies.sum()

        if cluster_subset is not None:
            owned = np.zeros(ic.n_clusters, dtype=bool)
            owned[np.asarray(cluster_subset, dtype=np.int64)] = True
        else:
            owned = np.ones(ic.n_clusters, dtype=bool)
        self._owned = owned

        self._payloads = self._encode_payloads()
        self._point_ids = kernel.PointIds.of(self._payloads)
        self._slot_lanes = {
            p.cluster_id: p.cooc.slot_lanes()
            for p in self._payloads
            if p.cooc is not None
        }
        self._place_and_load(frequencies, rng)
        self.wram_plan = self._plan_wram()
        self.offline = self._offline_stats()
        self._invalidate_caches()
        self._built = True
        logger.info(
            "built UpANNS: %d clusters on %d DPUs, %.2f replicas/cluster, "
            "CAE length reduction %.1f%%, %d tasklets/DPU",
            int(owned.sum()),
            self.config.pim.n_dpus,
            self.replication_factor(),
            self.length_reduction_rate() * 100,
            self.pim.dpus[0].n_tasklets,
        )
        return self

    def _encode_payloads(self) -> list[ClusterPayload]:
        """Opt3 per cluster: mine combinations and re-encode, or keep plain."""
        uc = self.config.upanns
        payloads: list[ClusterPayload] = []
        for cl in self.index.ivf.lists:
            if uc.enable_cae and cl.size > 0:
                model = mine_combinations(
                    cl.codes,
                    top_m=uc.cae_combos,
                    combo_length=uc.cae_combo_length,
                )
                encoded = encode_cluster(cl.codes, model)
                payloads.append(
                    ClusterPayload(
                        cluster_id=cl.cluster_id,
                        ids=cl.ids,
                        encoded=encoded,
                        cooc=model,
                    )
                )
            else:
                payloads.append(
                    ClusterPayload(cluster_id=cl.cluster_id, ids=cl.ids, codes=cl.codes)
                )
        return payloads

    def _max_dpu_vectors(self) -> int:
        uc, ic = self.config.upanns, self.config.index
        if uc.max_dpu_vectors is not None:
            return uc.max_dpu_vectors
        # Worst-case on-device bytes per vector: 2 B/token x m tokens + id.
        per_vector = 2 * ic.m + 8
        return int(self.config.pim.dpu.mram_bytes // per_vector)

    def _place_and_load(
        self,
        frequencies: np.ndarray,
        rng: np.random.Generator,
        *,
        exclude_dpus: frozenset[int] = frozenset(),
    ) -> None:
        uc = self.config.upanns
        sizes = self._sizes
        assert sizes is not None
        owned = (
            self._owned
            if self._owned is not None
            else np.ones(sizes.shape[0], dtype=bool)
        )
        owned_ids = np.flatnonzero(owned)
        max_vec = self._max_dpu_vectors()
        n_dpus = self.config.pim.n_dpus
        # Recovery placements run over the surviving DPUs only: the
        # sub-placement sees a dense id space of live DPUs and is mapped
        # back to global ids afterwards, so dead devices hold nothing.
        live = [d for d in range(n_dpus) if d not in exclude_dpus]
        if not live:
            raise DpuFailedError("cannot place: every DPU is excluded as dead")
        if uc.enable_placement:
            sub_placement = place_clusters(
                sizes[owned_ids],
                frequencies[owned_ids],
                len(live),
                max_dpu_vectors=max_vec,
                centroids=self.index.ivf.centroids[owned_ids],
                threshold_rate=uc.placement_threshold_rate,
                replication_headroom=uc.replication_headroom,
            )
        else:
            sub_placement = random_placement(
                sizes[owned_ids],
                len(live),
                max_dpu_vectors=max_vec,
                rng=rng,
            )
        # Map the owned-subset placement back onto global cluster ids;
        # unowned clusters keep empty replica lists (scheduling to them
        # is a SchedulingError, by design).
        replicas: list[list[int]] = [[] for _ in range(sizes.shape[0])]
        for local, global_id in enumerate(owned_ids):
            replicas[int(global_id)] = [live[d] for d in sub_placement.replicas[local]]
        dpu_w = np.zeros(n_dpus, dtype=sub_placement.dpu_workload.dtype)
        dpu_w[live] = sub_placement.dpu_workload
        dpu_s = np.zeros(n_dpus, dtype=sub_placement.dpu_vectors.dtype)
        dpu_s[live] = sub_placement.dpu_vectors
        self.placement = Placement(
            n_dpus=n_dpus,
            replicas=replicas,
            dpu_workload=dpu_w,
            dpu_vectors=dpu_s,
            mean_workload=sub_placement.mean_workload,
        )
        self.pim = PimSystem(self.config.pim, n_tasklets=uc.n_tasklets)
        for c, payload in enumerate(self._payloads):
            if payload.size == 0 or not owned[c]:
                continue
            # MRAM capacity accounting per replica; arrays are shared
            # (zero-copy) between replicas — only the byte ledger differs.
            blob = np.empty(payload.nbytes, dtype=np.uint8)
            for d in self.placement.replicas[c]:
                self.pim.dpu(d).mram_store(f"cluster_{c}", blob)

    def _offline_stats(self) -> OfflineStats:
        """Model the one-time host->MRAM index load (section 2.2)."""
        per_dpu_bytes = [d.mram_used_bytes for d in self.pim.dpus]
        transfer = self.pim.host_transfer_seconds(per_dpu_bytes)
        unique = sum(p.nbytes for p in self._payloads if p.size > 0)
        stored = sum(per_dpu_bytes)
        return OfflineStats(
            mram_load_seconds=transfer.seconds,
            mram_load_parallel=transfer.parallel,
            total_payload_bytes=stored,
            replication_overhead=stored / unique if unique else 1.0,
        )

    def _invalidate_caches(self) -> None:
        """Drop cross-batch state after an index/placement change.

        The codebook version bump makes every existing LUT-cache key
        unreachable; the explicit clear releases the bytes immediately.
        """
        self._codebook_version += 1
        if self.lut_cache is None:
            self.lut_cache = LutCache(self.config.upanns.lut_cache_bytes)
        self.clear_runtime_caches()

    def clear_runtime_caches(self) -> None:
        """Empty the cross-batch caches without touching the placement.

        Lets a built engine run a cold batch again (every table rebuilt);
        functionally a no-op (the caches only skip recompute).
        """
        if self.lut_cache is not None:
            self.lut_cache.clear()
        self._pair_charges.clear()

    def _plan_wram(self) -> WramPlan:
        ic, uc, qc = self.config.index, self.config.upanns, self.config.query
        n_slots = uc.cae_combos if uc.enable_cae else 0
        vector_bytes = 2 * ic.m if uc.enable_cae else ic.m
        plan = plan_wram(
            self.config.pim.dpu,
            dim=ic.dim,
            m=ic.m,
            k=qc.k,
            n_combo_slots=n_slots,
            vector_bytes=vector_bytes,
            read_vectors=uc.mram_read_vectors,
            requested_tasklets=uc.n_tasklets,
        )
        effective = plan.tasklets_supported(uc.n_tasklets)
        for d in self.pim.dpus:
            d.n_tasklets = effective
        # Modeled residency peak: stage 2 (codebook + LUT + combo sums)
        # vs stage 3 (LUT + sums + per-tasklet buffers after reuse).
        from repro.telemetry.pipeline import observe_wram_peak

        observe_wram_peak(
            max(
                plan.stage1_resident + plan.combo_sum_bytes,
                plan.lut_bytes
                + plan.combo_sum_bytes
                + effective * (plan.read_buffer_bytes + plan.heap_bytes),
            )
        )
        return plan

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------

    KERNEL: ClassVar[KernelTraits] = KernelTraits(
        "upanns", ships_worklist=True, drops_empty_pairs=True, records_access=True
    )

    def search_batch(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        probes: list[np.ndarray] | np.ndarray | None = None,
        trace: TraceContext | None = None,
        nprobe: int | None = None,
    ) -> BatchResult:
        """Process one batch through the Figure 5 online pipeline
        (:func:`run_batch_pipeline`).

        ``probes`` optionally supplies externally computed per-query
        cluster lists (2-D matrix or ragged list of id arrays).  Used by
        the multi-host coordinator, which runs cluster filtering once
        and ships each host only the clusters it owns; the host-side
        filtering cost is then charged by the coordinator, not here.

        ``trace`` carries the batch's per-query trace ids (assigned at
        service intake); standalone calls get a batch-local default so
        every emitted span is attributable either way.

        ``nprobe`` shrinks this batch's cluster probing below the
        configured ``QueryConfig.nprobe`` (the serving frontend's
        degrade response under overload).  The result carries a
        :class:`DegradedResult` whose coverage is scaled by
        ``nprobe / configured`` so callers see the intentional recall
        sacrifice through the same surface as fault degradation.
        """
        return run_batch_pipeline(
            self, queries, k=k, probes=probes, trace=trace, nprobe=nprobe
        )

    def _run_kernel(
        self, queries: np.ndarray, probes, assignment: Assignment, k: int
    ) -> KernelOutput:
        """The grouped IVFPQ kernel over the whole batch.

        Per-(query, cluster) top-k candidates come from the cross-batch
        LUT cache, then the batch runs as one functional pass and one
        charge replay whose ledger matches the per-pair loop bit for
        bit.
        """
        uc = self.config.upanns
        cfg = KernelConfig(
            k=k,
            n_tasklets=self.pim.dpus[0].n_tasklets,
            read_vectors=uc.mram_read_vectors,
            prune_topk=uc.enable_topk_pruning,
            workload_scale=self.config.timing_scale,
        )
        worklist = kernel.BatchWorklist.from_assignment(assignment, self._sizes)
        candidates = self._build_tables(queries, probes, self.index.ivf.centroids, k)
        topk = kernel.compute_groups_functional(
            worklist,
            self._point_ids,
            candidates,
            cfg.k,
            cfg.n_tasklets,
            prune=cfg.prune_topk,
        )
        del candidates
        if self.lut_cache is not None:
            self.lut_cache.settle()  # the batch no longer reads its rows
        ledger = kernel.replay_batch_charges(
            self.pim,
            self.index.pq,
            self._payloads,
            worklist,
            topk,
            cfg,
            charge_cache=self._pair_charges,
        )
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

    def _build_tables(
        self, queries: np.ndarray, probes_exec, centroids: np.ndarray, k: int
    ) -> BatchCandidates:
        """This engine's :func:`build_batch_tables` over its LUT cache.

        Modeled DPU cost is unaffected: the kernel charges full LUT
        construction and a full scan on every visit.
        """
        return build_batch_tables(
            self.index.pq,
            centroids,
            queries,
            probes_exec,
            self._slot_lanes,
            self._payloads,
            self.lut_cache,
            self._codebook_version,
            k,
        )

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------

    def inject(self, plan: FaultPlan) -> FaultState:
        """Arm a fault plan on this engine's DPU pool.

        Rank/DIMM granularities map onto contiguous DPU-id ranges from
        the PIM topology: a DIMM is ``chips_per_dimm * dpus_per_chip``
        DPUs, a rank is half a DIMM (UPMEM DIMMs carry two ranks).
        Injecting ``None``-equivalent empty plans is legal and leaves
        behavior observationally identical to no plan.
        """
        for event in plan.events:
            if event.kind == "host":
                raise ConfigError(
                    f"fault event {event} targets a host, but this engine "
                    "injects at DPU granularity; host faults belong on the "
                    "coordinator (MultiHostEngine.inject) and DPU-level "
                    "plans on its members (hosts[h].inject)"
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
        """Disarm the fault plane (back to the golden fault-free path)."""
        self.fault_state = None

    # ------------------------------------------------------------------
    # Adaptivity (paper section 4.1.2)
    # ------------------------------------------------------------------

    def refresh_placement(
        self,
        *,
        rng: np.random.Generator | None = None,
        exclude_dpus: "frozenset[int] | set[int]" = frozenset(),
    ) -> float:
        """Re-place clusters using the access trace accumulated online.

        Implements the paper's adaptive response to query-pattern change:
        replica counts and locations are recomputed from the live f_i.
        Call after :class:`~repro.core.scheduling.AdaptivePolicy`
        requests 'rereplicate' or 'relocate'.

        ``exclude_dpus`` supports fault recovery: the new placement uses
        only the surviving DPUs, re-replicating clusters orphaned by the
        dead ones.  Returns the modeled recovery time — the host->MRAM
        reload of the new placement (also stored in ``offline``).
        """
        if not self._built or self.trace is None:
            raise NotTrainedError("engine must be built before refresh_placement()")
        rng = rng if rng is not None else np.random.default_rng(0)
        self._place_and_load(
            self.trace.frequencies(), rng, exclude_dpus=frozenset(exclude_dpus)
        )
        self.wram_plan = self._plan_wram()
        self.offline = self._offline_stats()
        self._invalidate_caches()
        return self.offline.mram_load_seconds

    # ------------------------------------------------------------------
    # Introspection used by benches
    # ------------------------------------------------------------------

    def length_reduction_rate(self) -> float:
        """Mean CAE length reduction across non-empty clusters (Fig 14)."""
        rates = [
            p.encoded.length_reduction_rate()
            for p in self._payloads
            if p.is_cae and p.size > 0 and p.encoded is not None
        ]
        return float(np.mean(rates)) if rates else 0.0

    def replication_factor(self) -> float:
        """Mean replicas per cluster created by Algorithm 1."""
        if self.placement is None:
            return 1.0
        return float(np.mean([len(r) for r in self.placement.replicas]))


def run_batch_pipeline(
    engine,
    queries: np.ndarray,
    *,
    k: int | None,
    probes=None,
    trace: TraceContext | None = None,
    nprobe: int | None = None,
) -> BatchResult:
    """One batch through the Figure 5 online pipeline, for any engine.

    Query intake, host cluster filter (skipped when ``probes`` arrive
    pre-computed), the fault plane, Algorithm 2 scheduling, the query
    broadcast and worklist transfer, transient-fault retries, the
    engine's DPU kernel (:meth:`_run_kernel`, which returns a
    :class:`KernelOutput`), each DPU's stage chain, the result gather,
    host aggregation, and the executed schedule's derived timing, stage
    breakdown, metrics, degradation record and sanitizer check.

    ``engine`` is an :class:`UpANNSEngine` or an
    :class:`~repro.core.flat_engine.IVFFlatPimEngine`: built, with a
    ``config``, ``index.ivf``, ``host``, ``pim``, ``placement``,
    ``fault_state``, the per-cluster ``_sizes`` and :class:`KernelTraits`
    ``KERNEL``.  See :meth:`UpANNSEngine.search_batch` for ``probes``,
    ``trace`` and ``nprobe``.
    """
    if not engine._built:
        raise NotTrainedError("build() must be called before search_batch()")
    config, traits = engine.config, engine.KERNEL
    qc, ic, uc = config.query, config.index, config.upanns
    queries, ctx = _batch_intake(queries, ic.dim, trace)
    k = k if k is not None else qc.k
    if nprobe is not None:
        if isinstance(nprobe, bool) or not isinstance(nprobe, int):
            raise ConfigError(f"nprobe override must be an integer, got {nprobe!r}")
        if not 1 <= nprobe <= qc.nprobe:
            raise ConfigError(
                f"nprobe override {nprobe} outside [1, {qc.nprobe}] "
                "(it can only shrink probing, never widen it)"
            )
        if probes is not None:
            raise ConfigError(
                "nprobe override conflicts with precomputed probes"
            )
    eff_nprobe = nprobe if nprobe is not None else qc.nprobe
    nq = queries.shape[0]
    sizes = engine._sizes
    pim, host = engine.pim, engine.host
    assert sizes is not None and engine.placement is not None

    work = BatchWork(dpu_frequency_hz=config.pim.dpu.frequency_hz, batch=ctx.batch)
    host_prep: int | None = None

    # (a) Cluster filtering on the host (skipped when the probes
    # arrive pre-computed from a coordinator).
    if probes is None:
        probes = engine.index.ivf.search_clusters(queries, eff_nprobe)
        host_prep = work.work(
            HOST_CPU,
            STAGE_CLUSTER_FILTER,
            host.cluster_filter_seconds(nq, ic.n_clusters, ic.dim),
            trace_ids=ctx.all_ids(),
        )
    elif not isinstance(probes, (list, tuple)):
        probes = np.atleast_2d(np.asarray(probes, dtype=np.int64))
    if isinstance(probes, (list, tuple)) and len(probes) != nq:
        raise ConfigError("probes must supply one cluster list per query")
    if traits.records_access:
        engine.trace.record_batch(probes)

    # Empty probed clusters contribute no candidates; drop the dead
    # (query, cluster) pairs before scheduling and table construction.
    if traits.drops_empty_pairs:
        probes = _live_probes(probes, sizes)

    # Opt1: greedy scheduling, over the fault-restricted replica map
    # when a fault plan is armed.
    state = engine.fault_state
    assignment, faults, rerouted_clusters = _route(
        probes, sizes, engine.placement, state
    )
    host_prep = work.work(
        HOST_CPU,
        STAGE_SCHEDULE,
        host.scheduling_seconds_for_pairs(assignment.total_pairs()),
        after=(host_prep,),
        trace_ids=ctx.all_ids(),
    )

    # Host -> DPU: queries broadcast, then (when the kernel takes one)
    # every DPU's worklist.  Padding the worklists to a uniform size
    # lets the transfer parallelize; exact (non-uniform) sizes
    # serialize.
    last_bus = pim.work_broadcast(
        work,
        nq * ic.dim * 4,
        stage=STAGE_TRANSFER_IN,
        after=(host_prep,),
        trace_ids=ctx.all_ids(),
    )
    worklist_bytes = [c * 8 for c in assignment.pair_counts().tolist()]
    if traits.ships_worklist:
        if uc.enable_placement:
            worklist_bytes = [max(worklist_bytes, default=0)] * pim.n_dpus
        last_bus = pim.work_transfer(
            work,
            worklist_bytes,
            stage=STAGE_TRANSFER_IN,
            after=(last_bus,),
            trace_ids=ctx.all_ids(),
        )
    if faults is not None and (faults.transient or faults.escalated):
        last_bus = _retry_work(
            work, faults, state, worklist_bytes,
            config.pim.host_transfer_bytes_per_s,
            after=last_bus,
            trace_ids_by_unit=_unit_trace_ids(assignment, ctx),
        )

    # Per-DPU kernel execution, then the host-side merge of every
    # query's partial results.
    pim.reset_counters()
    out = engine._run_kernel(queries, probes, assignment, k)
    out_i, out_d = merge_partials(out.counts, out.ids, out.values, k)

    # Batch time on PIM = slowest DPU (paper section 5.3.1); every
    # active DPU gets its own resource lane starting when the
    # inbound transfer completes.
    dpu_tail, busy, result_sizes = _work_dpu_ledger(
        work, out.ledger, pim.n_dpus, assignment, ctx,
        after=last_bus, pad=uc.enable_placement,
    )
    freq = config.pim.dpu.frequency_hz
    cycle_ratio = max_mean_ratio(busy, active_only=True)

    # DPU -> host result gather (uniform when padded).  Sized from
    # the candidates actually produced: a DPU whose clusters held
    # fewer than k points returns fewer than k entries per query.
    gather = pim.work_gather(
        work,
        result_sizes,
        stage=STAGE_TRANSFER_OUT,
        after=tuple(dpu_tail) if dpu_tail else (last_bus,),
        trace_ids=ctx.all_ids(),
    )

    # Host-side final aggregation across the (DPU, query) partials.
    n_partials = int(out.ledger.queries.sum())
    work.work(
        HOST_CPU,
        STAGE_AGGREGATE,
        host.aggregate_seconds(nq, k, max(1, n_partials // max(nq, 1))),
        after=(gather,),
        trace_ids=ctx.all_ids(),
    )

    schedule = work.execute()

    # Derived views: the legacy additive scalars and the Figure 19
    # stage breakdown (makespan DPU's stages + host-side stages) both
    # come from the recorded spans.
    timing = schedule.derive_batch_timing()
    stage_seconds = stage_seconds_from_schedule(schedule, timing)

    logger.debug(
        "batch of %d queries: %.3f ms modeled (%d pairs, max/avg %.2f)",
        nq,
        timing.total_s * 1e3,
        assignment.total_pairs(),
        cycle_ratio,
    )
    observe_batch(
        traits.label,
        nq,
        timing,
        busy_cycles=float(busy.sum()),
        active_dpus=int((busy > 0).sum()),
        n_tasklets=pim.dpus[0].n_tasklets,
    )
    degraded = None
    if faults is not None:
        degraded = _degraded_result(
            traits.label, nq, probes, assignment, faults, state,
            rerouted_clusters, timing.retry_s,
        )
    if nprobe is not None and nprobe < qc.nprobe:
        # An intentional probe cut is a coverage sacrifice too:
        # scale (or synthesize) the coverage record by the fraction
        # of the configured probing this batch actually ran, so
        # degrade-mode recall loss is visible through the same
        # DegradedResult surface as fault-induced loss.
        frac = nprobe / qc.nprobe
        if degraded is None:
            degraded = DegradedResult(coverage=np.full(nq, frac))
        else:
            degraded = replace(degraded, coverage=degraded.coverage * frac)
    debug_sanitize_schedule(
        schedule,
        timing=timing,
        stage_seconds=stage_seconds,
        degraded=degraded,
        label=f"{traits.label} batch",
    )
    return BatchResult(
        ids=out_i,
        distances=out_d,
        timing=timing,
        stage_seconds=stage_seconds,
        assignment=assignment,
        heap_stats=out.heap_stats,
        cycle_load_ratio=cycle_ratio,
        dpu_busy_seconds=busy / freq,
        schedule=schedule,
        degraded=degraded,
        work=work,
    )


def build_batch_tables(
    pq: ProductQuantizer,
    centroids: np.ndarray,
    queries: np.ndarray,
    probes,
    slot_lanes: Mapping[int, np.ndarray],
    payloads: kernel.Payloads,
    cache: LutCache | None,
    version: int,
    k: int,
) -> BatchCandidates:
    """Per-(query, cluster) top-k candidates via a LUT cache.

    ``probes[q]`` lists query row q's clusters; ``payloads[c]`` is
    cluster c's payload and ``slot_lanes`` maps every CAE cluster to its
    slot lanes (other clusters are plain).  A pair's candidates are the
    :func:`~repro.core.topk.row_topk` of its ADC distance row (one
    distance per point of ``payloads[c]``, in scan order): the first
    ``min(k, P_c)`` points in (value, column) order, kept in a row of
    the k-wide slab of ``cache`` (a cache of None gets a slab that lives
    for this batch only).  The cache settles first, so the rows of its
    previous batch are no longer readable.  Two passes:

    1. Cache bookkeeping: one :meth:`LutCache.get_many` gives every pair
       a slab row and names the misses, with the hits, misses and
       evictions of building each query's entries before looking up
       the next one (duplicates within the batch and entries evicted
       mid-batch included).
    2. Numerics, cluster-major.  The misses' tables, ordered by cluster,
       are built at most :data:`TABLE_CHUNK_ROWS` rows at a time in one
       reused (rows, longest table + 1) float32 buffer: one
       :func:`build_luts_for_probes` call writes the chunk's LUT rows,
       one :func:`build_flat_table` call its CAE partial sums and
       sentinels.  While the chunk is live, one
       :func:`~repro.core.kernel.compute_pair_distances` call gathers
       every cluster segment of it, and each segment's distance block
       is cut to its rows' top-k, which one scatter writes to their
       slab rows.  Tables and distance rows never leave the pass.

    A LUT's bits do not depend on the stack it is built in, and a
    distance row's bits do not depend on the rows gathered beside it,
    so every entry equals its one-at-a-time build.
    """
    from repro.ivfpq.lut import build_luts_for_probes

    if cache is None:
        cache = LutCache(0)
    cache.settle()
    m, ksub = pq.m, pq.ksub
    lut_size = m * ksub
    nq, n_clusters = queries.shape[0], centroids.shape[0]
    lists = [np.asarray(probes[q], dtype=np.intp).reshape(-1) for q in range(nq)]
    pair_q = np.repeat(np.arange(nq), [p.shape[0] for p in lists])
    pair_c = np.concatenate([np.empty(0, dtype=np.intp), *lists])
    pair_row, missed_at = cache.get_many(queries, pair_q, pair_c, version, k, n_clusters)
    row = np.full((nq, n_clusters), -1, dtype=np.intp)
    row[pair_q, pair_c] = pair_row
    out = BatchCandidates(*cache.slab(k), row=row)
    n = missed_at.shape[0]
    if not n:
        return out

    missed_at = missed_at[np.argsort(pair_c[missed_at], kind="stable")]
    rows_q = pair_q[missed_at]
    rows_c = pair_c[missed_at]
    rows_r = pair_row[missed_at]
    starts = np.flatnonzero(np.diff(rows_c, prepend=-1)).tolist()
    # (cluster, first row, end row, slot lanes or None) per cluster.
    segments = [
        (c, a, b, slot_lanes.get(c))
        for c, a, b in zip(rows_c[starts].tolist(), starts, starts[1:] + [n])
    ]
    slots = [seg[3].shape[1] for seg in segments if seg[3] is not None]
    width = lut_size + max(slots) + 1 if slots else lut_size
    buf = np.empty((min(n, TABLE_CHUNK_ROWS), width), dtype=np.float32)

    # Chunks end at cluster boundaries; a cluster longer than a chunk
    # is split, each chunk gathering its own segment of it.
    chunks = []
    lo = 0
    for _, a, b, _ in segments:
        if b - lo > TABLE_CHUNK_ROWS and a > lo:
            chunks.append((lo, a))
            lo = a
        while b - lo > TABLE_CHUNK_ROWS:
            chunks.append((lo, lo + TABLE_CHUNK_ROWS))
            lo += TABLE_CHUNK_ROWS
    chunks.append((lo, n))

    first = 0
    for lo, hi in chunks:
        view = buf[: hi - lo]
        build_luts_for_probes(
            pq,
            queries,
            centroids,
            rows_c[lo:hi],
            rows_q[lo:hi],
            out=view[:, :lut_size].reshape(hi - lo, m, ksub),
        )
        while segments[first][2] <= lo:
            first += 1
        spans = []  # (cluster, row slice in the chunk, table length)
        cae = []
        for c, a, b, lanes in segments[first:]:
            if a >= hi:
                break
            rows = slice(max(a, lo) - lo, min(b, hi) - lo)
            length = lut_size
            if lanes is not None:
                cae.append((rows.start, rows.stop, lanes))
                length += lanes.shape[1]
            spans.append((c, rows, length))
        if cae:
            build_flat_table(view, cae, m)
        blocks = kernel.compute_pair_distances(
            [(payloads[c], view[rows], length) for c, rows, length in spans]
        )
        for (_, rows, _), block in zip(spans, blocks):
            at = rows_r[lo + rows.start : lo + rows.stop]
            top_v, top_c = row_topk(block, k)  # narrower than k: a small cluster
            cache.put(k, at, top_v, top_c)
    return out


def _batch_intake(
    queries: object, dim: int, trace: TraceContext | None
) -> tuple[np.ndarray, TraceContext]:
    """A batch's validated queries and its trace context (a batch-local
    default when the caller assigned none)."""
    queries = validate_queries(queries, dim=dim)
    nq = queries.shape[0]
    ctx = trace if trace is not None else TraceContext.for_batch(nq)
    if len(ctx) != nq:
        raise ConfigError(
            f"trace context carries {len(ctx)} ids for a batch of {nq}"
        )
    return queries, ctx


def _route(
    probes, sizes: np.ndarray, placement: Placement, state: FaultState | None
) -> tuple[Assignment, BatchFaults | None, frozenset[int]]:
    """Algorithm 2 over the replicas the fault plane leaves routable.

    Everything due this batch is applied *before* scheduling, so dead
    units are already excluded from routing (lost clusters drop instead
    of raising) and the batch's transient transfer faults are known up
    front.  With no fault state this is plain :func:`schedule_batch`,
    the exact golden-pinned path.  Returns (assignment, faults or None,
    clusters that lost a replica).
    """
    if state is None:
        return schedule_batch(probes, sizes, placement), None, frozenset()
    faults = state.begin_batch()
    routable, rerouted, _ = restrict_placement(placement, state.dead)
    assignment = schedule_batch(probes, sizes, routable, on_missing="drop")
    return assignment, faults, rerouted


def _live_probes(probes, sizes: np.ndarray):
    """Probe lists with empty clusters removed (dead-pair filtering).

    Returns the input unchanged (same object) when every probed cluster
    is non-empty — the common case — so the matrix fast path survives.
    """
    if not isinstance(probes, (list, tuple)):
        mat = np.atleast_2d(probes)
        if mat.size == 0 or bool((sizes[mat] > 0).all()):
            return probes
        probes = list(mat)
    out = []
    for p in probes:
        ids_q = np.asarray(p, dtype=np.int64)
        out.append(ids_q[sizes[ids_q] > 0])
    return out


def _work_dpu_ledger(
    work: BatchWork,
    ledger: DpuLedger,
    n_dpus: int,
    assignment: Assignment,
    ctx: TraceContext,
    *,
    after: int,
    pad: bool,
) -> tuple[list[int], np.ndarray, list[int]]:
    """Emit the stage chain of every DPU with cycles to run, in one call.

    Each chain carries the trace ids of the queries its DPU's worklist
    serves (:meth:`Assignment.served_queries` order) and its stage row
    as counters.  Returns the chains' last uids, every DPU's busy
    cycles and its result-gather bytes (all padded to the largest when
    ``pad``, so the gather parallelizes).
    """
    busy = np.zeros(n_dpus)
    busy[ledger.dpus] = ledger.busy
    live = busy[ledger.dpus] > 0
    dpus, stages = ledger.dpus[live], ledger.stages[live]
    served_dpu, served_query = assignment.served_queries()
    lo = np.searchsorted(served_dpu, dpus, "left")
    counts = np.searchsorted(served_dpu, dpus, "right") - lo
    tails = work.work_dpu_stages(
        dpus,
        stages,
        list(stages),
        after=(after,),
        trace_ids=ctx.trace_ids,
        trace_ptr=np.concatenate([[0], np.cumsum(counts)]),
        trace_idx=served_query[segment_indices(lo, counts)],
    )
    results = np.zeros(n_dpus, dtype=np.int64)
    results[ledger.dpus] = ledger.results * 8
    if pad and results.any():
        results[:] = results.max()
    return tails, busy, results.tolist()


def merge_partials(
    counts: np.ndarray, ids: np.ndarray, values: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's k smallest partial results -> (ids, values), each
    (queries, k), padded with -1 / inf.

    Query q's candidates are the next ``counts[q]`` entries of ``ids``
    / ``values`` (query-major).  Equals one :func:`topk_from_distances`
    per query: the rows are padded with NaN (which sorts after inf)
    into a (queries, width) matrix, one row-wise sort gives each row's
    (k + 1)-th smallest value, and the entries up to it are ordered by
    (value, column).  Where two of a query's first k + 1 values are
    equal, or more than k + 1 entries reach that value,
    ``np.argpartition``'s choice among the tied entries decides the
    result, so that query keeps its :func:`topk_from_distances` call.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    nq = counts.shape[0]
    out_i = np.full((nq, k), -1, dtype=np.int64)
    out_d = np.full((nq, k), np.inf, dtype=np.float32)
    width = int(counts.max(initial=0))
    if width == 0:
        return out_i, out_d
    starts = np.cumsum(counts) - counts
    # Column ``width`` stays NaN: the padding every short row points at.
    mat = np.full((nq, width + 1), np.nan, dtype=values.dtype)
    mat[np.arange(width + 1) < counts[:, None]] = values
    cut = np.minimum(counts, k + 1)
    # Each row's (k + 1)-th smallest value, or inf when it has fewer.
    # A full row sort finds it faster than a partition does.
    kth = np.sort(mat, axis=1)[:, min(k, width)]
    limit = np.where(counts > k, kth, np.inf)[:, None]
    rows, cols = np.divmod(np.flatnonzero(mat <= limit), width + 1)
    taken = np.bincount(rows, minlength=nq)
    fits = taken == cut  # more would mean a tie at the (k + 1)-th value
    keep = fits[rows]
    rows, cols = rows[keep], cols[keep]
    vals = mat[rows, cols]
    # Stable over entries in column order: by (row, value, column).
    order = np.lexsort((vals, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    taken = np.where(fits, taken, 0)
    rank = np.arange(rows.shape[0]) - (np.cumsum(taken) - taken)[rows]
    out = rank < k
    out_i[rows[out], rank[out]] = ids[starts[rows[out]] + cols[out]]
    out_d[rows[out], rank[out]] = vals[out]
    # Two equal values among a query's first min(counts, k + 1).
    tied = np.zeros(nq, dtype=bool)
    tied[rows[1:][(vals[1:] == vals[:-1]) & (rows[1:] == rows[:-1])]] = True
    for q in np.flatnonzero(tied | ~fits).tolist():
        lo, hi = int(starts[q]), int(starts[q] + counts[q])
        top_i, top_d = topk_from_distances(ids[lo:hi], values[lo:hi], k)
        out_i[q, : top_i.shape[0]] = top_i
        out_d[q, : top_d.shape[0]] = top_d
    return out_i, out_d


def _unit_trace_ids(
    assignment: Assignment, ctx: TraceContext
) -> dict[int, tuple[str, ...]]:
    """Trace ids of the queries each DPU's worklist serves.

    Retry traffic is charged per victim unit; tagging each retry with
    the victim's queries lets ``repro.cli explain`` attribute recovery
    cost to exactly the queries whose worklist was re-driven.
    """
    dpus, queries = assignment.served_queries()
    starts = np.flatnonzero(np.diff(dpus, prepend=-1)).tolist()
    unit = dpus.tolist()
    qs = queries.tolist()
    ids = ctx.trace_ids.__getitem__
    return {
        unit[lo]: tuple(map(ids, qs[lo:hi]))
        for lo, hi in zip(starts, starts[1:] + [len(qs)])
    }


def _retry_work(
    work: BatchWork,
    faults,
    state: FaultState,
    meta_sizes: list[int],
    bus_bytes_per_s: float,
    *,
    after: int,
    trace_ids_by_unit: dict[int, tuple[str, ...]] | None = None,
) -> int:
    """Describe this batch's transient-fault recovery on the bus lane.

    Each failed attempt costs its backoff plus re-transmitting the
    victim DPU's worklist buffer.  The retry items chain off the
    transfer they repair and are *pinned*: under cross-batch stream
    execution the event engine runs them immediately after that
    transfer, ahead of any other batch's queued bus traffic, so retries
    stay contiguous with their transfer-in (simsan SAN-ORDER).  DPU
    work depends on the last retry, so kernels launch after recovery
    and the cost is visible end-to-end (Chrome trace, utilization
    report, ``BatchTiming.retry_s``).  Units that escalated to death
    this batch are charged too: their retries all happened before the
    driver gave up on the device.  Returns the last retry's uid.
    """
    last = after
    attempts_by_unit = faults.attempts_by_unit()
    for u in sorted(attempts_by_unit):
        retrans = meta_sizes[u] if u < len(meta_sizes) else 0
        ids = (trace_ids_by_unit or {}).get(u, ())
        for attempt in range(1, attempts_by_unit[u] + 1):
            last = work.work(
                PIM_BUS,
                STAGE_RETRY,
                state.backoff_s(attempt) + retrans / bus_bytes_per_s,
                after=(last,),
                pinned=True,
                trace_ids=ids,
            )
    return last


def _degraded_result(
    engine_label: str,
    nq: int,
    probes_exec,
    assignment: Assignment,
    faults,
    state: FaultState,
    rerouted_clusters: frozenset,
    retry_s: float,
) -> DegradedResult:
    """Assemble the batch's degradation record and emit fault metrics."""
    coverage = coverage_fractions(nq, probes_exec, assignment.dropped)
    rerouted = int(
        np.isin(assignment.pair_cluster, list(rerouted_clusters)).sum()
    )
    state.total_rerouted_pairs += rerouted
    state.total_dropped_pairs += len(assignment.dropped)
    degraded = DegradedResult(
        coverage=coverage,
        rerouted_pairs=rerouted,
        dropped_pairs=len(assignment.dropped),
        retries=faults.total_attempts(),
        retry_s=retry_s,
        dead_units=state.dead_units,
        events=faults.events,
    )
    observe_faults(
        engine_label,
        injected=len(faults.events),
        retries=degraded.retries,
        rerouted_pairs=rerouted,
        dropped_pairs=degraded.dropped_pairs,
        dead_units=len(state.dead),
        coverage_floor=degraded.coverage_floor,
    )
    return degraded


def make_engine(
    dim: int,
    *,
    n_clusters: int,
    m: int,
    nprobe: int,
    k: int = 10,
    pim_spec=None,
    upanns: UpANNSConfig | None = None,
    batch_size: int = 1000,
    train_iters: int = 8,
    timing_scale: float = 1.0,
) -> UpANNSEngine:
    """Convenience constructor used by examples and benches."""
    from repro.hardware.specs import UPMEM_7_DIMMS

    cfg = SystemConfig(
        index=IndexConfig(dim=dim, n_clusters=n_clusters, m=m, train_iters=train_iters),
        query=QueryConfig(nprobe=nprobe, k=k, batch_size=batch_size),
        upanns=upanns if upanns is not None else UpANNSConfig(),
        pim=pim_spec if pim_spec is not None else UPMEM_7_DIMMS,
        timing_scale=timing_scale,
    )
    return UpANNSEngine(cfg)


PIM_NAIVE_CONFIG = UpANNSConfig(
    enable_placement=False,
    enable_cae=False,
    enable_topk_pruning=False,
)
