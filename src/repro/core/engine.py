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
from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.errors import ConfigError, DpuFailedError, NotTrainedError
from repro.faults import (
    DegradedResult,
    FaultPlan,
    FaultState,
    coverage_fractions,
    restrict_placement,
)
from repro.core.cooccurrence import mine_combinations
from repro.core.encoding import build_flat_table, encode_cluster
from repro.core import kernel
from repro.core.kernel import (
    ClusterPayload,
    DpuWorkLog,
    KernelConfig,
    run_query_on_dpu,
)
from repro.core.lut_cache import LutCache, query_digest
from repro.core.memory_plan import WramPlan, plan_wram
from repro.core.placement import Placement, place_clusters, random_placement
from repro.core.scheduling import Assignment, schedule_batch
from repro.core.validation import validate_queries
from repro.core.topk import HeapStats
from repro.hardware.counters import StageCycles
from repro.hardware.host import HostModel
from repro.hardware.rank import PimSystem
from repro.ivfpq.adc import topk_from_distances
from repro.ivfpq.index import IVFPQIndex
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
    resolve_sim_engine,
)
from repro.tracing.context import TraceContext
from repro.workload.trace import AccessTrace

logger = logging.getLogger(__name__)


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
    _sizes: np.ndarray | None = None
    _owned: np.ndarray | None = None
    _built: bool = False
    _codebook_version: int = 0
    #: Live fault runtime; ``None`` keeps the engine on the exact
    #: fault-free code path (golden-pinned).
    fault_state: FaultState | None = None
    #: Execution core for batch schedules: ``"analytic"``/``"event"``,
    #: or ``None`` to defer to the ``REPRO_SIM_ENGINE`` environment
    #: variable (default analytic; see repro.sim.events).
    sim_engine: str | None = None
    #: Functional-path executor for the grouped kernel: ``"serial"``
    #: (inline, the default), ``"process"`` / ``"process:N"`` (DPU
    #: groups fan out over N worker processes attached to shared-memory
    #: views of the index), or ``None`` to defer to the
    #: ``REPRO_EXECUTOR`` environment variable.  Results are
    #: bit-identical across backends; only host wall-clock changes.
    executor: str | None = None
    # Memoized per-cluster visit charges for the grouped kernel, keyed
    # (cluster_id, n_tasklets); cleared with the LUT cache.
    _pair_charges: dict = field(default_factory=dict)
    # Monotonic epoch for worker-side caches: bumped whenever the
    # cross-batch caches are cleared so pool workers drop theirs too.
    _cache_epoch: int = 0
    # Live process-pool runtime (repro.parallel); built lazily on the
    # first parallel batch, torn down on index/placement changes.
    _executor_runtime: object | None = field(default=None, repr=False)

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
        The process-pool runtime (if any) is torn down too — its workers
        hold shared-memory views of the *old* payload arrays.
        """
        self._codebook_version += 1
        if self.lut_cache is None:
            self.lut_cache = LutCache(self.config.upanns.lut_cache_bytes)
        self._shutdown_executor()
        self.clear_runtime_caches()

    def clear_runtime_caches(self) -> None:
        """Empty the cross-batch caches without touching the placement.

        Used by ``repro.perf`` to measure a cold batch on a built
        engine; functionally a no-op (the caches only skip recompute).
        The epoch bump tells pool workers to drop their local table
        memos on the next task, so "cold" stays cold under every
        executor backend.
        """
        if self.lut_cache is not None:
            self.lut_cache.clear()
        self._pair_charges.clear()
        self._cache_epoch += 1

    def close(self) -> None:
        """Release process-pool workers and shared-memory segments.

        Safe to call repeatedly; a serial engine makes this a no-op.
        """
        self._shutdown_executor()

    def _shutdown_executor(self) -> None:
        runtime = self._executor_runtime
        self._executor_runtime = None
        if runtime is not None:
            runtime.shutdown()  # type: ignore[attr-defined]

    def _resolve_executor_runtime(self):
        """The live parallel runtime for this batch, or None for serial.

        Resolution order: the ``executor`` field if set, else the
        ``REPRO_EXECUTOR`` environment variable, else serial.  The pool
        (and its shared-memory index views) is built on first use and
        reused across batches until the spec changes or the index /
        placement is invalidated.
        """
        import os

        from repro.parallel import ProcessExecutor, parse_executor_spec

        spec = parse_executor_spec(
            self.executor
            if self.executor is not None
            else os.environ.get("REPRO_EXECUTOR", "serial")
        )
        if spec.kind == "serial":
            self._shutdown_executor()
            return None
        runtime = self._executor_runtime
        if runtime is not None and runtime.n_workers != spec.workers:  # type: ignore[attr-defined]
            self._shutdown_executor()
            runtime = None
        if runtime is None:
            runtime = ProcessExecutor(spec.workers)
            runtime.start(self._payloads, self.index.pq, self.index.ivf.centroids,
                          lut_cache_bytes=self.config.upanns.lut_cache_bytes)
            self._executor_runtime = runtime
        return runtime

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

    def search_batch(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        probes: list[np.ndarray] | np.ndarray | None = None,
        trace: TraceContext | None = None,
        nprobe: int | None = None,
    ) -> BatchResult:
        """Process one batch through the Figure 5 online pipeline.

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
        if not self._built:
            raise NotTrainedError("build() must be called before search_batch()")
        qc, ic, uc = self.config.query, self.config.index, self.config.upanns
        queries = validate_queries(queries, dim=ic.dim)
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
        sizes = self._sizes
        assert sizes is not None and self.placement is not None
        ctx = trace if trace is not None else TraceContext.for_batch(nq)
        if len(ctx) != nq:
            raise ConfigError(
                f"trace context carries {len(ctx)} ids for a batch of {nq}"
            )

        work = BatchWork(
            dpu_frequency_hz=self.config.pim.dpu.frequency_hz, batch=ctx.batch
        )
        host_prep: int | None = None

        # (a) Cluster filtering on the host (skipped when the probes
        # arrive pre-computed from a coordinator).
        if probes is None:
            probes = self.index.ivf.search_clusters(queries, eff_nprobe)
            host_prep = work.work(
                HOST_CPU,
                STAGE_CLUSTER_FILTER,
                self.host.cluster_filter_seconds(nq, ic.n_clusters, ic.dim),
                trace_ids=ctx.all_ids(),
            )
        elif not isinstance(probes, (list, tuple)):
            probes = np.atleast_2d(np.asarray(probes, dtype=np.int64))
        if isinstance(probes, (list, tuple)) and len(probes) != nq:
            raise ConfigError("probes must supply one cluster list per query")
        assert self.trace is not None
        self.trace.record_batch(probes)
        if uc.lut_admission_floor > 0.0 and self.lut_cache is not None:
            # Cost-aware admission: refresh the per-cluster frequency
            # view so below-floor (one-shot tail) clusters are computed
            # but not retained.  Purely a retention policy — table
            # values and modeled charges are untouched.
            self.lut_cache.set_admission(
                self.trace.frequencies(), uc.lut_admission_floor
            )

        # Empty probed clusters contribute no candidates; drop the dead
        # (query, cluster) pairs before scheduling and LUT construction.
        probes_exec = _live_probes(probes, sizes)

        # Fault plane: everything due this batch is applied *before*
        # scheduling, so dead DPUs are already excluded from routing and
        # this batch's transient transfer faults are known up front.
        # With no injected plan this whole path is skipped and the
        # engine runs the exact golden-pinned code.
        state = self.fault_state
        faults = state.begin_batch() if state is not None else None
        exec_placement = self.placement
        rerouted_clusters: frozenset[int] = frozenset()
        if state is not None:
            exec_placement, rerouted_clusters, _ = restrict_placement(
                self.placement, state.dead
            )

        # Opt1: greedy scheduling (over the fault-restricted replica map
        # when a plan is active; lost clusters drop instead of raising).
        assignment = schedule_batch(
            probes_exec,
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

        # Host -> DPU: queries broadcast + per-DPU worklists.  UpANNS pads
        # worklists to a uniform size so the transfer parallelizes; the
        # naive path ships exact (non-uniform) sizes and serializes.
        query_bytes = nq * ic.dim * 4
        last_bus = self.pim.work_broadcast(
            work,
            query_bytes,
            stage=STAGE_TRANSFER_IN,
            after=(host_prep,),
            trace_ids=ctx.all_ids(),
        )
        pair_counts = [len(p) for p in assignment.per_dpu]
        if uc.enable_placement:
            pad = max(pair_counts) if pair_counts else 0
            meta_sizes = [pad * 8] * self.pim.n_dpus
        else:
            meta_sizes = [c * 8 for c in pair_counts]
        last_bus = self.pim.work_transfer(
            work,
            meta_sizes,
            stage=STAGE_TRANSFER_IN,
            after=(last_bus,),
            trace_ids=ctx.all_ids(),
        )
        if faults is not None and (faults.transient or faults.escalated):
            last_bus = _retry_work(
                work, faults, state, meta_sizes,
                self.config.pim.host_transfer_bytes_per_s,
                after=last_bus,
                trace_ids_by_unit=_unit_trace_ids(assignment, ctx),
            )

        # Per-DPU kernel execution.
        kernel_cfg = KernelConfig(
            k=k,
            n_tasklets=self.pim.dpus[0].n_tasklets,
            read_vectors=uc.mram_read_vectors,
            prune_topk=uc.enable_topk_pruning,
            workload_scale=self.config.timing_scale,
        )
        partials: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {
            q: [] for q in range(nq)
        }
        n_partials = 0  # per-(DPU, query) result lists the host merges
        heap_total = HeapStats()
        logs = [DpuWorkLog() for _ in range(self.pim.n_dpus)]
        centroids = self.index.ivf.centroids
        self.pim.reset_counters()
        if uc.kernel_mode == "grouped":
            # Vectorized path: per-(query, cluster) functional tables
            # come from the cross-batch LUT cache, then the whole batch
            # runs as one functional pass and one charge replay whose
            # ledger matches the per-pair loop bit for bit.  The table
            # build runs in the parent under every executor backend, so
            # LUT-cache state (hits, misses, eviction order) is
            # identical whether workers recompute tables or not.
            tables = self._build_tables(queries, probes_exec, centroids)
            worklist = kernel.BatchWorklist.from_assignment(assignment.per_dpu, sizes)
            runtime = self._resolve_executor_runtime()
            if runtime is not None and worklist.n_groups:
                # Parallel functional pass: workers compute chunks of
                # DPUs from shared-memory index views and rebuilt
                # tables; the replay below is backend-independent.
                try:
                    topk = runtime.compute(
                        worklist,
                        queries,
                        probes_exec,
                        k=kernel_cfg.k,
                        n_tasklets=kernel_cfg.n_tasklets,
                        prune=kernel_cfg.prune_topk,
                        version=self._codebook_version,
                        epoch=self._cache_epoch,
                    )
                # Cleanup-and-reraise, not failure handling: whatever
                # escaped (ExecutorError, a worker-raised bug, a pickling
                # error) the pool must be torn down before propagating so
                # the next batch rebuilds it cleanly.
                except Exception:  # simlint: ignore[FLT001]
                    self._shutdown_executor()
                    raise
            else:
                topk = kernel.compute_groups_functional(
                    worklist,
                    self._payloads,
                    tables,
                    kernel_cfg.k,
                    kernel_cfg.n_tasklets,
                    prune=kernel_cfg.prune_topk,
                )
            for d, log in kernel.replay_batch_charges(
                self.pim,
                self.index.pq,
                self._payloads,
                worklist,
                topk,
                kernel_cfg,
                charge_cache=self._pair_charges,
            ).items():
                logs[d] = log
            heap_total = topk.total_stats()
            n_partials = worklist.n_groups
            # Each query's partial results, in ascending DPU order.
            per_query = topk.take(np.argsort(worklist.group_query, kind="stable"))
            bounds = per_query.offsets[
                np.concatenate(
                    [[0], np.cumsum(np.bincount(worklist.group_query, minlength=nq))]
                )
            ].tolist()
            for qi in range(nq):
                o0, o1 = bounds[qi], bounds[qi + 1]
                if o1 > o0:
                    partials[qi].append((per_query.ids[o0:o1], per_query.values[o0:o1]))
        else:
            # Reference per-pair loop (the perf baseline).  Per-query
            # LUTs are still precomputed in one vectorized batch
            # (functional shortcut only — each DPU is charged for
            # building its own copies inside the kernel).
            from repro.ivfpq.lut import build_luts_for_probes

            luts_by_query: list[dict[int, np.ndarray]] = []
            for qi in range(nq):
                probe_ids = np.asarray(probes_exec[qi], dtype=np.int64)
                if probe_ids.size == 0:
                    luts_by_query.append({})
                    continue
                luts = build_luts_for_probes(
                    self.index.pq, queries[qi], centroids, probe_ids
                )
                luts_by_query.append(
                    {int(c): luts[j] for j, c in enumerate(probe_ids)}
                )
            for d, pairs in enumerate(assignment.per_dpu):
                if not pairs:
                    continue
                by_query = {}
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
                        kernel_cfg,
                        luts=luts_by_query[qi],
                    )
                    partials[qi].append((out.ids, out.distances))
                    n_partials += 1
                    logs[d].stage += out.stage
                    logs[d].queries_served += 1
                    logs[d].pairs_served += len(payloads)
                    logs[d].results_returned += out.ids.shape[0]
                    heap_total.merge(out.heap_stats)

        # Batch time on PIM = slowest DPU (paper section 5.3.1); every
        # active DPU gets its own resource lane starting when the
        # inbound transfer completes.
        busy = np.array([log.total_cycles for log in logs])
        freq = self.config.pim.dpu.frequency_hz
        dpu_tail: list[int] = []
        for d, log in enumerate(logs):
            if log.total_cycles > 0:
                dpu_tail.append(
                    work.work_dpu_stages(
                        d,
                        log.stage,
                        after=(last_bus,),
                        trace_ids=ctx.ids_for(
                            qi for qi, _c in assignment.per_dpu[d]
                        ),
                    )
                )
        cycle_ratio = max_mean_ratio(busy, active_only=True)

        # DPU -> host result gather (uniform when padded).  Sized from
        # the candidates actually produced: a DPU whose clusters held
        # fewer than k points returns fewer than k entries per query.
        result_sizes = [log.results_returned * 8 for log in logs]
        if uc.enable_placement and any(result_sizes):
            pad = max(result_sizes)
            result_sizes = [pad] * len(result_sizes)
        gather = self.pim.work_gather(
            work,
            result_sizes,
            stage=STAGE_TRANSFER_OUT,
            after=tuple(dpu_tail) if dpu_tail else (last_bus,),
            trace_ids=ctx.all_ids(),
        )

        # Host-side final aggregation across DPUs.
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        out_i = np.full((nq, k), -1, dtype=np.int64)
        for qi, parts in partials.items():
            if not parts:
                continue
            ids = np.concatenate([p[0] for p in parts])
            dists = np.concatenate([p[1] for p in parts])
            top_i, top_d = topk_from_distances(ids, dists, k)
            out_i[qi, : top_i.shape[0]] = top_i
            out_d[qi, : top_d.shape[0]] = top_d
        work.work(
            HOST_CPU,
            STAGE_AGGREGATE,
            self.host.aggregate_seconds(nq, k, max(1, n_partials // max(nq, 1))),
            after=(gather,),
            trace_ids=ctx.all_ids(),
        )

        # Execute the work description through the selected core.  The
        # analytic replay reproduces the historical record_at sequence
        # bit-for-bit; the event core runs the same DAG through the
        # discrete-event engine (identical here — a single batch's DAG
        # admits no lane contention).
        schedule = work.execute(resolve_sim_engine(self.sim_engine))

        # Derived views: the legacy additive scalars and the Figure 19
        # stage breakdown (makespan DPU's stages + host-side stages) now
        # both come from the recorded spans.
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
            "upanns",
            nq,
            timing,
            busy_cycles=float(busy.sum()),
            active_dpus=int((busy > 0).sum()),
            n_tasklets=self.pim.dpus[0].n_tasklets,
        )
        degraded = None
        if state is not None and faults is not None:
            degraded = _degraded_result(
                "upanns", nq, probes_exec, assignment, faults, state,
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
            label="upanns batch",
        )
        return BatchResult(
            ids=out_i,
            distances=out_d,
            timing=timing,
            stage_seconds=stage_seconds,
            assignment=assignment,
            heap_stats=heap_total,
            cycle_load_ratio=cycle_ratio,
            dpu_busy_seconds=busy / freq,
            schedule=schedule,
            degraded=degraded,
            work=work,
        )

    def _build_tables(
        self,
        queries: np.ndarray,
        probes_exec,
        centroids: np.ndarray,
    ) -> dict[int, dict[int, np.ndarray]]:
        """Per-(query, cluster) functional tables via the LUT cache.

        The table is what the distance stage consumes: the (m, ksub) LUT
        for a plain cluster, the flat [LUT | partial sums] table for a
        CAE cluster.  Hits reuse the bytes computed in an earlier batch;
        misses are built in one vectorized ``compute_luts`` call per
        query and written through.  Modeled DPU cost is unaffected — the
        kernel charges full LUT construction on every visit.
        """
        from repro.ivfpq.lut import build_luts_for_probes

        cache = self.lut_cache
        version = self._codebook_version
        use_cache = cache is not None and cache.enabled
        tables: dict[int, dict[int, np.ndarray]] = {}
        for qi in range(queries.shape[0]):
            probe_ids = np.asarray(probes_exec[qi], dtype=np.int64)
            per_q: dict[int, np.ndarray] = {}
            tables[qi] = per_q
            if probe_ids.size == 0:
                continue
            digest = None
            if use_cache:
                assert cache is not None
                digest = query_digest(queries[qi])
                probe_list = [int(c) for c in probe_ids]
                cached = cache.get_many(
                    [(digest, c, version) for c in probe_list]
                )
                missing = []
                for c, hit in zip(probe_list, cached):
                    if hit is not None:
                        per_q[c] = hit
                    else:
                        missing.append(c)
            else:
                missing = [int(c) for c in probe_ids]
            if not missing:
                continue
            luts = build_luts_for_probes(
                self.index.pq,
                queries[qi],
                centroids,
                np.asarray(missing, dtype=np.int64),
            )
            for j, c in enumerate(missing):
                payload = self._payloads[c]
                if payload.is_cae and payload.cooc is not None:
                    table = build_flat_table(luts[j], payload.cooc)
                else:
                    table = luts[j]
                per_q[c] = table
                if digest is not None:
                    assert cache is not None
                    cache.put((digest, c, version), table)
        return tables

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


def _unit_trace_ids(
    assignment: Assignment, ctx: TraceContext
) -> dict[int, tuple[str, ...]]:
    """Trace ids of the queries each DPU's worklist serves.

    Retry traffic is charged per victim unit; tagging each retry with
    the victim's queries lets ``repro.cli explain`` attribute recovery
    cost to exactly the queries whose worklist was re-driven.
    """
    return {
        d: ctx.ids_for(qi for qi, _c in pairs)
        for d, pairs in enumerate(assignment.per_dpu)
        if pairs
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
    rerouted = sum(
        1 for pairs in assignment.per_dpu for _, c in pairs if c in rerouted_clusters
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
