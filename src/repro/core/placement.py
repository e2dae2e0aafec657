"""Opt1 offline half: PIM-aware cluster placement (paper Algorithm 1).

Three insights drive the strategy (section 4.1.1):

1. whole clusters live on a single DPU (partial results never cross the
   slow host path);
2. high-demand clusters are replicated — ``ncpy = ceil(s_i * f_i / W̄)``
   copies spread over distinct DPUs;
3. spatially proximate clusters are co-located, enabling local top-k
   aggregation for multi-cluster queries.

Replicas are assigned to DPUs with the least residual capacity first,
relaxing the workload threshold ``thld`` by ``rate`` whenever a full
round-robin scan finds no feasible DPU (paper lines 5-12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, PlacementError


@dataclass
class Placement:
    """Output of placement: replica map plus per-DPU accounting."""

    n_dpus: int
    replicas: list[list[int]]  # cluster -> list of DPU ids (len == ncpy)
    dpu_workload: np.ndarray  # (n_dpus,) estimated workload W[d]
    dpu_vectors: np.ndarray  # (n_dpus,) vectors stored S[d]
    mean_workload: float

    def dpus_for(self, cluster: int) -> list[int]:
        if not 0 <= cluster < len(self.replicas):
            raise PlacementError(
                f"cluster {cluster} is not in this placement "
                f"(have {len(self.replicas)} clusters)"
            )
        return self.replicas[cluster]

    def n_replicas(self, cluster: int) -> int:
        return len(self.replicas[cluster])

    def clusters_on(self, dpu: int) -> list[int]:
        return [c for c, dpus in enumerate(self.replicas) if dpu in dpus]

    def load_ratio(self) -> float:
        """max/mean estimated workload (lower is better; 1.0 = perfect)."""
        mean = float(self.dpu_workload.mean())
        if mean == 0:
            return 1.0
        return float(self.dpu_workload.max()) / mean

    def check_complete(self) -> None:
        """Every cluster must have at least one replica.

        Build functions call this so a hole surfaces as a
        :class:`PlacementError` naming the cluster, not as a downstream
        ``IndexError``/empty-argmin inside the scheduler.  A *restricted*
        placement (``repro.faults.restrict_placement``) is exempt: empty
        replica lists there mean "cluster lost", handled by the
        scheduler's drop path.
        """
        for c, dpus in enumerate(self.replicas):
            if not dpus:
                raise PlacementError(f"cluster {c} has no replica")

    def validate(self, sizes: np.ndarray, max_dpu_vectors: int) -> None:
        """Re-check the invariants the algorithm is supposed to maintain."""
        for c, dpus in enumerate(self.replicas):
            if not dpus:
                raise PlacementError(f"cluster {c} has no replica")
            if len(set(dpus)) != len(dpus):
                raise PlacementError(f"cluster {c} replicated twice onto one DPU")
            for d in dpus:
                if not 0 <= d < self.n_dpus:
                    raise PlacementError(f"cluster {c} on invalid DPU {d}")
        stored = np.zeros(self.n_dpus, dtype=np.int64)
        for c, dpus in enumerate(self.replicas):
            for d in dpus:
                stored[d] += int(sizes[c])
        if (stored > max_dpu_vectors).any():
            raise PlacementError("a DPU exceeds its vector capacity")


def _locality_order(centroids: np.ndarray | None, workloads: np.ndarray) -> np.ndarray:
    """Order clusters for placement.

    Heaviest-first gives the balancer its hardest items early (classic
    LPT scheduling); ties between similar workloads are broken by
    spatial order along the first principal axis of the centroids so
    neighboring clusters are placed consecutively and tend to land on
    the same DPU (insight 3).
    """
    heavy_rank = np.argsort(workloads)[::-1]
    if centroids is None:
        return heavy_rank
    centered = centroids - centroids.mean(axis=0, keepdims=True)
    # Power iteration for the first principal axis (cheap, deterministic).
    v = np.ones(centroids.shape[1], dtype=np.float64)
    for _ in range(16):
        v = centered.T @ (centered @ v)
        norm = np.linalg.norm(v)
        if norm == 0:
            return heavy_rank
        v /= norm
    projection = centered @ v
    # Coarse workload bands (log2) keep heavy-first, spatial order inside.
    with np.errstate(divide="ignore"):
        bands = np.floor(np.log2(np.maximum(workloads, 1e-300))).astype(np.int64)
    order = np.lexsort((projection, -bands))
    return order


def place_clusters(
    sizes: np.ndarray,
    frequencies: np.ndarray,
    n_dpus: int,
    *,
    max_dpu_vectors: int,
    centroids: np.ndarray | None = None,
    threshold_rate: float = 0.02,
    replication_headroom: float = 3.0,
) -> Placement:
    """Algorithm 1 over all clusters.

    ``sizes``: s_i, vectors per cluster; ``frequencies``: f_i, historical
    access frequency; ``max_dpu_vectors``: MAX_DPU_SIZE.  Returns the
    cluster -> DPU replica map.

    ``replication_headroom`` scales the replica count above the paper's
    exact ``ceil(s_i * f_i / W̄)``: historical frequencies are sampled
    estimates, so a hot cluster whose live demand exceeds its history
    would otherwise bottleneck a single replica.  1.0 reproduces the
    pseudocode verbatim; the default absorbs sampling noise (see the
    placement ablation bench).
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    frequencies = np.asarray(frequencies, dtype=np.float64)
    m = sizes.shape[0]
    if frequencies.shape[0] != m:
        raise ConfigError("sizes and frequencies must align")
    if n_dpus < 1:
        raise ConfigError("need at least one DPU")
    if (sizes > max_dpu_vectors).any():
        raise PlacementError(
            "a single cluster exceeds per-DPU capacity; increase "
            "MAX_DPU_SIZE or the cluster count"
        )

    workloads = sizes * frequencies
    mean_w = float(workloads.sum()) / n_dpus

    dpu_w = np.zeros(n_dpus, dtype=np.float64)
    dpu_s = np.zeros(n_dpus, dtype=np.int64)
    replicas: list[list[int]] = [[] for _ in range(m)]

    order = _locality_order(centroids, workloads)
    d_id = 0
    for c in order:
        w_total = workloads[c]
        if mean_w > 0:
            ncpy = max(1, int(np.ceil(replication_headroom * w_total / mean_w)))
        else:
            ncpy = 1
        ncpy = min(ncpy, n_dpus)  # a cluster cannot have two copies per DPU
        w_per = w_total / ncpy
        thld = 1.0
        placed: list[int] = []
        # Replica 0 follows the locality cursor (co-locating spatially
        # proximate clusters, insight 3); further replicas start at
        # stride offsets so a hot cluster's copies — and therefore the
        # bands of co-hot neighboring clusters — scatter across the
        # machine instead of saturating consecutive DPUs.
        stride = max(1, n_dpus // ncpy)
        base = d_id
        for j in range(ncpy):
            cursor = (base + j * stride) % n_dpus
            count = 0
            while True:
                feasible = (
                    dpu_w[cursor] + w_per <= mean_w * thld
                    and dpu_s[cursor] + sizes[c] <= max_dpu_vectors
                    and cursor not in placed
                )
                if feasible:
                    placed.append(cursor)
                    dpu_w[cursor] += w_per
                    dpu_s[cursor] += int(sizes[c])
                    break
                count += 1
                cursor = (cursor + 1) % n_dpus
                if count == n_dpus:
                    # Raising thld relaxes balance, never capacity: fail
                    # now, not after ~5e7 rescans, when no DPU has room.
                    room = dpu_s + sizes[c] <= max_dpu_vectors
                    room[placed] = False
                    if not room.any():
                        raise PlacementError(
                            f"cannot place cluster {c}: all DPUs at capacity"
                        )
                    thld += threshold_rate
                    count = 0
                    if thld > 1e6:  # only non-finite workloads get here
                        raise PlacementError(
                            f"cannot place cluster {c}: workload threshold never met"
                        )
        d_id = (base + 1) % n_dpus
        replicas[c] = placed

    placement = Placement(
        n_dpus=n_dpus,
        replicas=replicas,
        dpu_workload=dpu_w,
        dpu_vectors=dpu_s,
        mean_workload=mean_w,
    )
    placement.check_complete()
    return placement


def random_placement(
    sizes: np.ndarray,
    n_dpus: int,
    *,
    max_dpu_vectors: int,
    rng: np.random.Generator | None = None,
) -> Placement:
    """The PIM-naive strategy: each cluster on one random DPU, no replicas.

    Used as the ablation baseline in Figure 11 ("the naive distribution
    strategy that assigns clusters randomly to DPUs").
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    sizes = np.asarray(sizes, dtype=np.float64)
    m = sizes.shape[0]
    dpu_s = np.zeros(n_dpus, dtype=np.int64)
    replicas: list[list[int]] = [[] for _ in range(m)]
    order = rng.permutation(m)
    for c in order:
        choices = rng.permutation(n_dpus)
        for d in choices:
            if dpu_s[d] + sizes[c] <= max_dpu_vectors:
                replicas[c] = [int(d)]
                dpu_s[d] += int(sizes[c])
                break
        else:
            raise PlacementError(f"cannot place cluster {c}: all DPUs at capacity")
    placement = Placement(
        n_dpus=n_dpus,
        replicas=replicas,
        dpu_workload=dpu_s.astype(np.float64),
        dpu_vectors=dpu_s,
        mean_workload=float(sizes.sum()) / n_dpus,
    )
    placement.check_complete()
    return placement
