"""Multi-host UpANNS (paper section 5.5).

"UpANNS can be easily extended to multi-host configurations.  Only
query distribution and result aggregation require cross-host
communication.  The core memory-intensive search operations remain
local to each host."

This module implements that extension: a coordinator owns the trained
coarse quantizer and shards the cluster set across hosts with the same
Algorithm-1 machinery used inside a host (hot clusters may be
replicated on several hosts).  Per batch, the coordinator filters
clusters once, routes each (query, cluster) pair to a host holding a
replica (Algorithm 2 at host granularity), and merges the per-host
top-k — paying network distribution/aggregation costs modeled by
:class:`NetworkModel`.  Each host runs a full single-host
:class:`~repro.core.engine.UpANNSEngine` over its owned clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig
from repro.core.engine import UpANNSEngine, _degraded_result, merge_partials
from repro.core.placement import Placement, place_clusters
from repro.core.scheduling import schedule_batch
from repro.errors import ConfigError, DpuFailedError, NotTrainedError
from repro.sanitize.hook import debug_sanitize_schedule
from repro.faults import (
    DegradedResult,
    FaultPlan,
    FaultState,
    restrict_placement,
)
from repro.hardware.host import HostModel
from repro.ivfpq.index import IVFPQIndex
from repro.tracing.context import TraceContext
from repro.sim import (
    HOST_CPU,
    NETWORK,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_SCHEDULE,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchSchedule,
    BatchWork,
)
from repro.telemetry.registry import get_registry

# Stage label for one host's local search window on its ``host/{h}`` lane.
STAGE_HOST_SEARCH = "host_search"


@dataclass(frozen=True)
class NetworkModel:
    """Cross-host link: bandwidth + per-message latency (e.g. 10 GbE)."""

    bandwidth_bytes_per_s: float = 1.25e9
    latency_s: float = 50e-6

    def transfer_seconds(self, bytes_per_host: list[float]) -> float:
        """Hosts sit behind one switch: transfers overlap, the largest
        per-host payload plus one message latency sets the wall time."""
        if not bytes_per_host:
            return 0.0
        return max(bytes_per_host) / self.bandwidth_bytes_per_s + self.latency_s


@dataclass
class MultiHostBatchResult:
    """Merged results plus the multi-host timing decomposition."""

    ids: np.ndarray
    distances: np.ndarray
    coordinator_filter_s: float
    route_s: float
    distribute_s: float
    host_makespan_s: float
    gather_s: float
    merge_s: float
    per_host_qps: list[float]
    schedule: BatchSchedule | None = None  # per-resource event timelines
    #: Fault-plane outcome at host granularity; ``None`` when fault-free.
    degraded: DegradedResult | None = None
    #: Coordinator-level work description ``schedule`` was executed from.
    work: BatchWork | None = None

    @property
    def total_s(self) -> float:
        return (
            self.coordinator_filter_s
            + self.route_s
            + self.distribute_s
            + self.host_makespan_s
            + self.gather_s
            + self.merge_s
        )

    @property
    def qps(self) -> float:
        return self.ids.shape[0] / self.total_s if self.total_s > 0 else float("inf")


@dataclass
class MultiHostEngine:
    """Coordinator + N single-host UpANNS engines over a sharded index."""

    host_configs: list[SystemConfig]
    network: NetworkModel = field(default_factory=NetworkModel)
    coordinator: HostModel = field(default_factory=HostModel)
    # Hot clusters may be replicated on this many hosts at most.
    max_host_replicas: int = 2
    index: IVFPQIndex | None = None
    hosts: "list[UpANNSEngine | None]" = field(default_factory=list)
    host_placement: Placement | None = None
    _sizes: np.ndarray | None = None
    _built: bool = False
    fault_state: FaultState | None = None
    # Retained build inputs so reshard() can rebuild surviving hosts.
    _vectors: np.ndarray | None = None
    _freqs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.host_configs:
            raise ConfigError("need at least one host")
        first = self.host_configs[0].index
        for cfg in self.host_configs[1:]:
            if cfg.index != first:
                raise ConfigError("all hosts must share the index geometry")

    @property
    def n_hosts(self) -> int:
        return len(self.host_configs)

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------

    def build(
        self,
        vectors: np.ndarray,
        *,
        history_queries: np.ndarray | None = None,
        prebuilt_index: IVFPQIndex | None = None,
        rng: np.random.Generator | None = None,
    ) -> "MultiHostEngine":
        """Train once, shard clusters across hosts, build each host."""
        rng = rng if rng is not None else np.random.default_rng(0)
        ic = self.host_configs[0].index
        vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=np.float32)
        self._vectors = vectors
        if prebuilt_index is not None:
            self.index = prebuilt_index
        else:
            self.index = IVFPQIndex(ic.dim, ic.n_clusters, ic.m, ic.nbits)
            self.index.train(vectors, n_iter=ic.train_iters, rng=rng)
            self.index.add(vectors)

        sizes = self.index.ivf.cluster_sizes()
        self._sizes = sizes
        if history_queries is not None:
            probes = self.index.ivf.search_clusters(
                np.atleast_2d(history_queries), self.host_configs[0].query.nprobe
            )
            freqs = np.bincount(probes.ravel(), minlength=ic.n_clusters) + 1.0
            freqs = freqs / freqs.sum()
        else:
            freqs = np.full(ic.n_clusters, 1.0 / ic.n_clusters)
        self._freqs = freqs

        self._shard_and_build(rng)
        self._built = True
        return self

    def _shard_and_build(
        self, rng: np.random.Generator, *, exclude_hosts: frozenset[int] = frozenset()
    ) -> None:
        """Shard clusters across the (surviving) hosts and build each.

        Algorithm 1 at host granularity: shard (and replicate hot)
        clusters across hosts, balancing expected workload.  With
        ``exclude_hosts``, the shard map is computed over live hosts
        only — the fault-recovery reshard path.
        """
        assert self.index is not None and self._sizes is not None
        assert self._vectors is not None and self._freqs is not None
        ic = self.host_configs[0].index
        sizes, freqs = self._sizes, self._freqs
        live = [h for h in range(self.n_hosts) if h not in exclude_hosts]
        if not live:
            raise DpuFailedError("cannot reshard: every host is excluded as dead")
        sub = place_clusters(
            sizes,
            freqs,
            len(live),
            max_dpu_vectors=int(sizes.sum()) + 1,
            centroids=self.index.ivf.centroids,
            replication_headroom=1.0,
        )
        replicas = [[live[h] for h in reps] for reps in sub.replicas]
        host_w = np.zeros(self.n_hosts, dtype=sub.dpu_workload.dtype)
        host_w[live] = sub.dpu_workload
        host_v = np.zeros(self.n_hosts, dtype=sub.dpu_vectors.dtype)
        host_v[live] = sub.dpu_vectors
        self.host_placement = Placement(
            n_dpus=self.n_hosts,
            replicas=replicas,
            dpu_workload=host_w,
            dpu_vectors=host_v,
            mean_workload=sub.mean_workload,
        )
        for c in range(ic.n_clusters):
            reps = self.host_placement.replicas[c]
            if len(reps) > self.max_host_replicas:
                self.host_placement.replicas[c] = reps[: self.max_host_replicas]

        self.hosts = []
        for h, cfg in enumerate(self.host_configs):
            if h not in live:
                # A dead host keeps its slot (lane/id alignment) but is
                # never built or routed to again.
                self.hosts.append(None)
                continue
            owned = np.array(
                [
                    c
                    for c in range(ic.n_clusters)
                    if h in self.host_placement.replicas[c]
                ],
                dtype=np.int64,
            )
            engine = UpANNSEngine(cfg)
            engine.build(
                self._vectors,
                frequencies=freqs,
                prebuilt_index=self.index,
                cluster_subset=owned,
                rng=rng,
            )
            self.hosts.append(engine)

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------

    def inject(self, plan: FaultPlan) -> FaultState:
        """Arm a host-granularity fault plan on the coordinator.

        Only ``host`` events make sense here; DPU-level granularities
        belong on the individual host engines (``hosts[h].inject``).
        """
        for event in plan.events:
            if event.kind != "host":
                raise ConfigError(
                    f"multihost coordinator only injects 'host' faults, got {event.kind!r}"
                )
        self.fault_state = plan.state(n_units=self.n_hosts)
        return self.fault_state

    def reshard(self, *, rng: np.random.Generator | None = None) -> float:
        """Re-shard clusters over the surviving hosts after host loss.

        Returns the modeled recovery time: the slowest surviving host's
        host->MRAM reload of its new shard (hosts reload in parallel).
        """
        if not self._built:
            raise NotTrainedError("build() must be called before reshard()")
        rng = rng if rng is not None else np.random.default_rng(0)
        dead = frozenset(self.fault_state.dead) if self.fault_state else frozenset()
        self._shard_and_build(rng, exclude_hosts=dead)
        return max(
            (
                e.offline.mram_load_seconds
                for e in self.hosts
                if e is not None and e.offline is not None
            ),
            default=0.0,
        )

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------

    def search_batch(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        trace: TraceContext | None = None,
    ) -> MultiHostBatchResult:
        """Coordinator-filter -> route -> per-host search -> merge."""
        if not self._built or self.index is None:
            raise NotTrainedError("build() must be called before search_batch()")
        qc = self.host_configs[0].query
        ic = self.host_configs[0].index
        k = k if k is not None else qc.k
        queries = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float32)
        nq = queries.shape[0]
        sizes = self._sizes
        assert sizes is not None and self.host_placement is not None
        ctx = trace if trace is not None else TraceContext.for_batch(nq)
        if len(ctx) != nq:
            raise ConfigError(
                f"trace context carries {len(ctx)} ids for a batch of {nq}"
            )

        work = BatchWork(batch=ctx.batch)

        # Coordinator: one global cluster-filtering pass.
        probes = self.index.ivf.search_clusters(queries, qc.nprobe)
        filter_s = self.coordinator.cluster_filter_seconds(nq, ic.n_clusters, ic.dim)
        filter_item = work.work(
            HOST_CPU, STAGE_CLUSTER_FILTER, filter_s, trace_ids=ctx.all_ids()
        )

        # Fault plane at host granularity: a lost host disappears from
        # the routing map before any pair is assigned; clusters sharded
        # only onto dead hosts drop (coverage < 1 until reshard()).
        state = self.fault_state
        faults = state.begin_batch() if state is not None else None
        exec_placement = self.host_placement
        rerouted_clusters: frozenset[int] = frozenset()
        if state is not None:
            exec_placement, rerouted_clusters, _ = restrict_placement(
                self.host_placement, state.dead
            )

        # Route every (query, cluster) pair to a replica-holding host
        # (Algorithm 2 at host granularity) — charged like any other
        # scheduling pass, at the coordinator's per-decision cost.
        routing = schedule_batch(
            probes,
            sizes,
            exec_placement,
            on_missing="drop" if state is not None else "raise",
        )
        route_s = self.coordinator.scheduling_seconds_for_pairs(routing.total_pairs())
        route_item = work.work(
            HOST_CPU,
            STAGE_SCHEDULE,
            route_s,
            after=(filter_item,),
            trace_ids=ctx.all_ids(),
        )
        # Each host's probe lists: its routed pairs split by query,
        # each row in routing order.
        per_host_probes: list[list[np.ndarray]] = []
        per_host_queries: list[np.ndarray] = []
        distribute_bytes = []
        for h in range(self.n_hosts):
            lo, hi = routing.dpu_bounds[h], routing.dpu_bounds[h + 1]
            host_q = routing.pair_query[lo:hi]
            counts = np.bincount(host_q, minlength=nq)
            rows = routing.pair_cluster[lo:hi][np.argsort(host_q, kind="stable")]
            per_host_probes.append(np.split(rows, np.cumsum(counts)[:-1]))
            per_host_queries.append(np.flatnonzero(counts))
            # Cross-host distribution: each host receives the queries it
            # participates in plus its schedule.
            distribute_bytes.append(
                int(per_host_queries[h].size) * ic.dim * 4 + int(hi - lo) * 8
            )
        distribute_s = self.network.transfer_seconds(distribute_bytes)
        distribute_item = work.work(
            NETWORK,
            STAGE_TRANSFER_IN,
            distribute_s,
            after=(route_item,),
            trace_ids=ctx.all_ids(),
        )

        # Local searches (memory-intensive work stays on each host).
        host_results = []
        host_seconds = []
        host_items: list[int] = []
        for h, engine in enumerate(self.hosts):
            ragged = per_host_probes[h]
            if engine is None or not per_host_queries[h].size:
                host_results.append(None)
                host_seconds.append(0.0)
                continue
            res = engine.search_batch(queries, k=k, probes=ragged)
            host_results.append(res)
            host_seconds.append(res.timing.total_s)
            host_items.append(
                work.work(
                    f"host/{h}",
                    STAGE_HOST_SEARCH,
                    res.timing.total_s,
                    after=(distribute_item,),
                    trace_ids=ctx.ids_for(per_host_queries[h].tolist()),
                )
            )
        host_makespan_s = max(host_seconds) if host_seconds else 0.0

        # Gather per-host top-k and merge at the coordinator.
        gather_bytes = [
            (0 if r is None else int((r.ids >= 0).sum()) * 12) for r in host_results
        ]
        gather_s = self.network.transfer_seconds(gather_bytes)
        gather_item = work.work(
            NETWORK,
            STAGE_TRANSFER_OUT,
            gather_s,
            after=tuple(host_items) if host_items else (distribute_item,),
            trace_ids=ctx.all_ids(),
        )

        # Each query's hits, host by host (row-major over the hosts'
        # side-by-side result matrices).
        done = [r for r in host_results if r is not None]
        ids = np.concatenate(
            [np.empty((nq, 0), np.int64), *(r.ids for r in done)], axis=1
        )
        dists = np.concatenate(
            [np.empty((nq, 0), np.float32), *(r.distances for r in done)], axis=1
        )
        hit = ids >= 0
        out_i, out_d = merge_partials(hit.sum(axis=1), ids[hit], dists[hit], k)
        merge_s = self.coordinator.aggregate_seconds(nq, k, self.n_hosts)
        work.work(
            HOST_CPU,
            STAGE_AGGREGATE,
            merge_s,
            after=(gather_item,),
            trace_ids=ctx.all_ids(),
        )
        schedule = work.execute()

        reg = get_registry()
        reg.counter(
            "repro_multihost_queries_total", "queries served by the coordinator"
        ).inc(nq)
        pairs_counter = reg.counter(
            "repro_multihost_routed_pairs_total",
            "(query, cluster) pairs routed to each host",
            ("host",),
        )
        for h in range(self.n_hosts):
            routed = sum(len(row) for row in per_host_probes[h])
            if routed:
                pairs_counter.labels(host=str(h)).inc(routed)
        net_counter = reg.counter(
            "repro_multihost_network_bytes_total",
            "cross-host bytes moved per direction",
            ("direction",),
        )
        net_counter.labels(direction="distribute").inc(sum(distribute_bytes))
        net_counter.labels(direction="gather").inc(sum(gather_bytes))
        stage_counter = reg.counter(
            "repro_stage_seconds_total",
            "modeled seconds per pipeline stage",
            ("engine", "stage"),
        )
        for stage, seconds in (
            ("cluster_filter", filter_s),
            ("schedule", route_s),
            ("transfer_in", distribute_s),
            ("host_search", host_makespan_s),
            ("transfer_out", gather_s),
            ("aggregate", merge_s),
        ):
            stage_counter.labels(engine="multihost", stage=stage).inc(seconds)

        degraded = None
        if state is not None and faults is not None:
            degraded = _degraded_result(
                "multihost", nq, probes, routing, faults, state,
                rerouted_clusters, 0.0,
            )
        # Lane checks only: the coordinator's scalar fields are not a
        # BatchTiming, and retries are charged on the member engines.
        debug_sanitize_schedule(schedule, label="multihost batch")
        return MultiHostBatchResult(
            ids=out_i,
            distances=out_d,
            coordinator_filter_s=filter_s,
            route_s=route_s,
            distribute_s=distribute_s,
            host_makespan_s=host_makespan_s,
            gather_s=gather_s,
            merge_s=merge_s,
            per_host_qps=[
                (0.0 if r is None else nq / r.timing.total_s) for r in host_results
            ],
            schedule=schedule,
            degraded=degraded,
            work=work,
        )

    def cluster_ownership(self) -> list[int]:
        """#clusters owned per host (balance introspection)."""
        counts = [0] * self.n_hosts
        assert self.host_placement is not None
        for reps in self.host_placement.replicas:
            for h in reps:
                counts[h] += 1
        return counts
