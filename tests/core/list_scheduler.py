"""The list-of-tuples scheduler, kept verbatim as a test oracle.

``repro.core.scheduling.schedule_batch`` builds the batch plan as flat
pair arrays.  This module is the per-pair Python implementation it
replaced — Algorithm 2's two passes, the local-search refinement, the
grouped-kernel worklist and the per-DPU trace ids — so the differential
tests can demand the array plan reproduce it exactly: per-DPU pair
order, workloads bit for bit and dropped pairs in order.
"""

from __future__ import annotations

from bisect import insort_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.kernel import BatchWorklist
from repro.core.placement import Placement
from repro.core.scheduling import Assignment
from repro.errors import SchedulingError
from repro.tracing.context import TraceContext


@dataclass
class ListAssignment:
    """Scheduling result: per-DPU worklists of (query, cluster) pairs."""

    n_dpus: int
    per_dpu: list[list[tuple[int, int]]]  # dpu -> [(query_idx, cluster_id)]
    dpu_workload: np.ndarray  # (n_dpus,) scheduled vector-scan counts
    dropped: list[tuple[int, int]] = field(default_factory=list)


def list_schedule_batch(
    probes: np.ndarray,
    sizes: np.ndarray,
    placement: Placement,
    *,
    refine: bool = True,
    on_missing: str = "raise",
) -> ListAssignment:
    """Algorithm 2 over a batch, one Python step per pair."""
    if on_missing not in ("raise", "drop"):
        raise SchedulingError(f"on_missing must be 'raise' or 'drop', got {on_missing!r}")
    if not isinstance(probes, (list, tuple)):
        probes = np.atleast_2d(probes)
    sizes = np.asarray(sizes, dtype=np.int64)
    n_dpus = placement.n_dpus
    workload = np.zeros(n_dpus, dtype=np.float64)
    per_dpu: list[list[tuple[int, int]]] = [[] for _ in range(n_dpus)]

    # Pass 1: single-replica clusters are forced moves (lines 4-7).
    multi: list[tuple[int, int]] = []  # (cluster, query) pairs still open
    dropped: list[tuple[int, int]] = []
    for qi in range(len(probes)):
        for c in probes[qi]:
            c = int(c)
            dpus = placement.replicas[c]
            if not dpus:
                if on_missing == "drop":
                    dropped.append((qi, c))
                    continue
                raise SchedulingError(f"cluster {c} has no replica")
            if len(dpus) == 1:
                d = dpus[0]
                per_dpu[d].append((qi, c))
                workload[d] += sizes[c]
            else:
                multi.append((c, qi))

    # Pass 2: replicated clusters, largest first, to least-loaded holder
    # (lines 8-14).  The (-size, cluster, query) key is a total order,
    # so the vectorized lexsort reproduces the tuple-key sort exactly.
    if multi:
        carr = np.fromiter((c for c, _ in multi), np.int64, len(multi))
        qarr = np.fromiter((q for _, q in multi), np.int64, len(multi))
        order = np.lexsort((qarr, carr, -sizes[carr]))
        multi = [multi[int(j)] for j in order]
    for c, qi in multi:
        dpus = placement.replicas[c]
        # First-minimum holder, like np.argmin, without the per-pair
        # array dispatch (replica lists are tiny).
        d = dpus[0]
        best_load = workload[d]
        for cand in dpus[1:]:
            if workload[cand] < best_load:
                d = cand
                best_load = workload[cand]
        per_dpu[d].append((qi, c))
        workload[d] += sizes[c]

    assignment = ListAssignment(
        n_dpus=n_dpus, per_dpu=per_dpu, dpu_workload=workload, dropped=dropped
    )
    if refine:
        _list_refine_assignment(assignment, sizes, placement)
    return assignment


def _list_refine_assignment(
    assignment: ListAssignment,
    sizes: np.ndarray,
    placement: Placement,
    max_rounds: int | None = None,
) -> None:
    """Local search: shed load from the most-loaded DPU onto other
    replica holders as long as the makespan shrinks.  In-place."""
    workload = assignment.dpu_workload
    per_dpu = assignment.per_dpu
    if max_rounds is None:
        max_rounds = 8 * assignment.n_dpus
    sorted_cache: dict[int, list[tuple[int, int]]] = {}

    def sorted_pairs(d: int) -> list[tuple[int, int]]:
        pairs = sorted_cache.get(d)
        if pairs is None:
            dp = per_dpu[d]
            csizes = sizes[np.fromiter((c for _, c in dp), np.int64, len(dp))]
            pairs = [dp[int(j)] for j in np.argsort(-csizes, kind="stable")]
            sorted_cache[d] = pairs
        return pairs

    for _ in range(max_rounds):
        src = int(np.argmax(workload))
        moved = False
        for qi, c in sorted_pairs(src):
            s = sizes[c]
            holders = placement.replicas[c]
            if len(holders) < 2:
                continue
            best = -1
            for d in holders:
                if d != src and workload[d] + s < workload[src] - 1e-9:
                    if best < 0 or workload[d] < workload[best]:
                        best = d
            if best >= 0:
                per_dpu[src].remove((qi, c))
                per_dpu[best].append((qi, c))
                sorted_cache[src].remove((qi, c))
                if best in sorted_cache:
                    insort_right(
                        sorted_cache[best], (qi, c), key=lambda p: -sizes[p[1]]
                    )
                workload[src] -= s
                workload[best] += s
                moved = True
                break
        if not moved:
            return


def list_worklist(
    per_dpu: list[list[tuple[int, int]]], sizes: np.ndarray
) -> BatchWorklist:
    """The grouped-kernel worklist built from per-DPU tuple lists."""
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
        return BatchWorklist(empty, empty, np.zeros(1, dtype=np.int64), empty)
    key = flat[:, 0] * (int(flat[:, 1].max()) + 1) + flat[:, 1]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    group_first = first[inverse]
    order = np.argsort(group_first, kind="stable")
    flat = flat[order]
    starts = np.flatnonzero(np.diff(group_first[order], prepend=-1))
    return BatchWorklist(
        group_dpu=flat[starts, 0],
        group_query=flat[starts, 1],
        group_bounds=np.append(starts, flat.shape[0]).astype(np.int64),
        pair_cluster=flat[:, 2].copy(),
    )


def list_unit_trace_ids(
    per_dpu: list[list[tuple[int, int]]], ctx: TraceContext
) -> dict[int, tuple[str, ...]]:
    """Trace ids of the queries each non-empty DPU worklist serves."""
    return {
        d: ctx.ids_for(qi for qi, _c in pairs)
        for d, pairs in enumerate(per_dpu)
        if pairs
    }


def assignment_from_lists(per_dpu: list[list[tuple[int, int]]]) -> Assignment:
    """The array plan holding exactly these per-DPU worklists."""
    flat = [pair for pairs in per_dpu for pair in pairs]
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
    counts = [len(p) for p in per_dpu]
    return Assignment(
        n_dpus=len(per_dpu),
        pair_query=pairs[:, 0].copy(),
        pair_cluster=pairs[:, 1].copy(),
        dpu_bounds=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        dpu_workload=np.zeros(len(per_dpu)),
    )
