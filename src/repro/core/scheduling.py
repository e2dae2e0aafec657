"""Opt1 online half: greedy query scheduling (paper Algorithm 2).

At runtime the host maps each query's filtered clusters to DPUs holding
a replica, balancing load dynamically:

* clusters with a single replica have no choice — assign them first and
  charge their size to the owning DPU (lines 4-7);
* clusters with multiple replicas are processed in descending size so
  the big items are balanced before the small ones fill gaps, each
  going to the currently least-loaded replica holder (lines 8-14).

The modeled machine makes O(|Q| x nprobe) decisions and the engines
charge them at the host's per-decision rate.  The simulator's own cost
is not negligible: a warm 100-query batch holds 6,400 pairs, so the
plan is built as flat pair arrays (:class:`Assignment`).  One sort
splits and orders both passes' pairs; pass 2 takes a few Python steps
per replicated cluster (63 on a warm ``fig16`` batch) plus one sort of
its picks; the refinement reuses pass 2's slots as its buckets and
takes one Python step per bucket of the source DPU per move (~120
moves).  On captured warm batches the whole plan takes ~1.3 ms on a
2-CPU VM, about a tenth of the batch's wall time.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchedulingError
from repro.core.placement import Placement
from repro.core.topk import stable_order


@dataclass
class Assignment:
    """Scheduling result: the batch's (query, cluster) pairs as flat arrays.

    Pairs are DPU-major: ``pair_query[dpu_bounds[d]:dpu_bounds[d + 1]]``
    (and the same slice of ``pair_cluster``) is DPU ``d``'s worklist in
    execution order.
    """

    n_dpus: int
    pair_query: np.ndarray  # (n_pairs,) int64
    pair_cluster: np.ndarray  # (n_pairs,) int64
    dpu_bounds: np.ndarray  # (n_dpus + 1,) int64 pair offsets
    dpu_workload: np.ndarray  # (n_dpus,) scheduled vector-scan counts
    #: (query_idx, cluster_id) pairs that could not be scheduled because
    #: the cluster had no live replica (``on_missing="drop"``).  Empty
    #: on the fault-free path.
    dropped: list[tuple[int, int]] = field(default_factory=list)
    # (order, bounds) of first_appearance_groups over the plan's pairs,
    # computed once (the plan's arrays are not changed after scheduling).
    _groups: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def empty(cls, n_dpus: int) -> "Assignment":
        """The plan of a batch with no pairs."""
        none = np.empty(0, dtype=np.int64)
        return cls(
            n_dpus, none, none, np.zeros(n_dpus + 1, dtype=np.int64), np.zeros(n_dpus)
        )

    def pair_counts(self) -> np.ndarray:
        """(n_dpus,) worklist length per DPU."""
        return np.diff(self.dpu_bounds)

    @property
    def pair_dpu(self) -> np.ndarray:
        """DPU of every pair."""
        return np.repeat(np.arange(self.n_dpus, dtype=np.int64), self.pair_counts())

    @property
    def per_dpu(self) -> list[list[tuple[int, int]]]:
        """Per-DPU ``(query, cluster)`` tuple lists, derived from the
        arrays: a read-only view for tests, reports and the looped
        reference kernel."""
        queries = self.pair_query.tolist()
        clusters = self.pair_cluster.tolist()
        b = self.dpu_bounds.tolist()
        return [
            list(zip(queries[b[d] : b[d + 1]], clusters[b[d] : b[d + 1]]))
            for d in range(self.n_dpus)
        ]

    def total_pairs(self) -> int:
        return int(self.pair_query.shape[0])

    def load_ratio(self) -> float:
        """max/mean scheduled workload across all DPUs.

        Matches Figure 11's "ratio of maximum process and average
        process": 1.0 means perfectly even work.
        """
        from repro.metrics.balance import max_mean_ratio

        return max_mean_ratio(self.dpu_workload)

    def query_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The plan's pairs grouped by (DPU, query):
        :func:`first_appearance_groups`, computed once per plan."""
        if self._groups is None:
            self._groups = first_appearance_groups(self.pair_dpu, self.pair_query)
        return self._groups

    def served_queries(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dpu, query)`` of each DPU's distinct queries: DPU-major,
        and within a DPU in the order each query first appears in its
        worklist."""
        order, bounds = self.query_groups()
        first = order[bounds[:-1]]
        return self.pair_dpu[first], self.pair_query[first]

    def queries_per_dpu(self) -> np.ndarray:
        """Distinct queries each DPU serves (LUT build cost driver)."""
        return np.bincount(self.served_queries()[0], minlength=self.n_dpus)


def first_appearance_groups(
    dpu: np.ndarray, query: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group DPU-major pairs by (DPU, query), in first-appearance order.

    Returns ``(order, bounds)``: ``order[bounds[g]:bounds[g + 1]]`` are
    the positions of group g's pairs, ascending, and groups are ordered
    by their first pair's position.  One sort of unique composite keys
    (key, position) gathers each group's pairs in position order; one
    sort of the groups' (first position, group) keys orders the groups.
    Both keys are packed into one int64 and sorted with ``np.sort``.
    """
    n = dpu.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    key = dpu * (int(query.max()) + 1) + query
    by_key = stable_order(key)
    sorted_key = key[by_key]
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    counts = np.diff(np.append(starts, n))
    groups = stable_order(by_key[starts])
    counts = counts[groups]
    bounds = np.zeros(groups.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    order = by_key[np.repeat(starts[groups] - bounds[:-1], counts) + np.arange(n)]
    return order, bounds


def _flat_probes(probes) -> tuple[np.ndarray, np.ndarray]:
    """(query, cluster) of every probe, query-major."""
    if not isinstance(probes, (list, tuple)):
        mat = np.atleast_2d(np.asarray(probes)).astype(np.int64, copy=False)
        nq, per = mat.shape
        return np.repeat(np.arange(nq, dtype=np.int64), per), mat.ravel()
    rows = [np.asarray(p, dtype=np.int64).ravel() for p in probes]
    counts = [r.size for r in rows]
    clusters = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return np.repeat(np.arange(len(rows), dtype=np.int64), counts), clusters


def schedule_batch(
    probes: np.ndarray,
    sizes: np.ndarray,
    placement: Placement,
    *,
    refine: bool = True,
    on_missing: str = "raise",
) -> Assignment:
    """Algorithm 2 over a batch.

    ``probes``: filtered cluster ids per query — an (nq, nprobe) matrix
    or a ragged list of per-query id arrays (multi-host shards send each
    host only its owned clusters); ``sizes``: s_i per cluster;
    ``placement``: Algorithm 1's replica map.

    ``refine`` adds a bounded local-search pass after the greedy
    assignment: pairs are moved off the most-loaded DPU onto less-loaded
    replica holders while that reduces the makespan.  Plain greedy over
    replica-restricted items stalls noticeably above the lower bound
    when hot clusters share holders; the refinement recovers the
    near-1.0 max/avg ratios the paper reports in Figure 11.

    ``on_missing`` controls what happens when a probed cluster has no
    replica: ``"raise"`` (default, fault-free invariant) raises
    :class:`~repro.errors.SchedulingError`; ``"drop"`` records the pair
    in :attr:`Assignment.dropped` and degrades gracefully — used when
    scheduling over a fault-restricted placement where a cluster may
    have lost every live holder.

    Each DPU's worklist holds its forced pairs in query order, then its
    replicated pairs in pass-2 order, then the pairs refinement moved
    onto it in move order.  Workloads are sums of integer sizes, exact
    in float64, so their bits do not depend on the summation order.
    """
    if on_missing not in ("raise", "drop"):
        raise SchedulingError(f"on_missing must be 'raise' or 'drop', got {on_missing!r}")
    sizes = np.asarray(sizes, dtype=np.int64)
    n_dpus = placement.n_dpus
    replicas = placement.replicas
    query, cluster = _flat_probes(probes)
    n_rep = np.fromiter(map(len, replicas), np.int64, len(replicas))[cluster]

    dropped: list[tuple[int, int]] = []
    missing = n_rep == 0
    if missing.any():
        if on_missing == "raise":
            raise SchedulingError(
                f"cluster {int(cluster[np.argmax(missing)])} has no replica"
            )
        dropped = list(zip(query[missing].tolist(), cluster[missing].tolist()))
        query, cluster, n_rep = query[~missing], cluster[~missing], n_rep[~missing]

    # Pass 1: single-replica clusters are forced moves (lines 4-7), in
    # query order.  Pass 2: replicated clusters, largest first, to the
    # least-loaded holder (lines 8-14), in (-size, cluster, query)
    # order.  One sort of packed keys lists the forced pairs by
    # position, then the replicated pairs in pass-2 order; (q, c) pairs
    # are unique up to repeats, which are interchangeable, so the keys
    # give both columns back.
    by_size = np.argsort(-sizes, kind="stable")
    cluster_rank = np.empty_like(by_size)
    cluster_rank[by_size] = np.arange(by_size.size)
    single = n_rep == 1
    n_pairs = query.size
    width = int(query.max(initial=0)) + 1
    key = np.sort(
        np.where(single, np.arange(n_pairs), n_pairs + cluster_rank[cluster] * width + query)
    )
    first = key[: np.count_nonzero(single)]
    q1, c1 = query[first], cluster[first]
    rank, q2 = np.divmod(key[first.size :] - n_pairs, width)
    c2 = by_size[rank]
    owner = np.fromiter((r[0] if r else -1 for r in replicas), np.int64, len(replicas))
    d1 = owner[c1]
    # Loads stay integer-valued, so float64 sums are exact in any order.
    load = np.bincount(d1, weights=sizes[c1], minlength=n_dpus).astype(np.int64).tolist()

    # Pairs of one pass-2 cluster form one run; _greedy_run splits a run
    # over its holders and _ordered_picks orders the picks.
    starts = np.flatnonzero(np.diff(c2, prepend=c2[:1] - 1)).tolist()
    runs = zip(starts, starts[1:] + [c2.size], c2[starts].tolist())
    slots: list[tuple[int, int, int, int, int]] = []  # see _ordered_picks
    base = 0
    size_of = sizes.tolist()
    for lo, hi, c in runs:
        # A repeated holder never wins: it ties its first occurrence.
        holders = list(dict.fromkeys(replicas[c]))
        loads = [load[d] for d in holders]
        size = size_of[c]
        n = hi - lo
        k = len(holders)
        # Slot (load, position i) sorts at base + (load - floor) * k + i;
        # a run of size 0 goes to one holder, its keys a step of k apart.
        floor = min(loads)
        step = (size or 1) * k
        for i, n_d in enumerate(_greedy_run(loads, size, n)):
            if n_d:
                d = holders[i]
                slots.append((d, n_d, base + (loads[i] - floor) * k + i, step, c))
                load[d] += n_d * size
        base += (n - 1) * step + k
    d2, rank = _ordered_picks(slots)

    # A pair's order key is its position here, which is also its place
    # in its DPU's worklist (forced pairs first, then pass 2).
    pair_query = np.concatenate([q1, q2])
    pair_cluster = np.concatenate([c1, c2])
    pair_dpu = np.concatenate([d1, d2])
    n = pair_dpu.size
    keys = np.arange(n, dtype=np.int64)
    pair_of_key = keys
    moved = []
    if refine:
        moved = _refine_assignment(pair_dpu, load, size_of, replicas, slots, rank + q1.size)
        if moved:
            pairs = np.array(moved, dtype=np.int64)
            pair_of_key = np.concatenate([keys, pairs])
            keys[pairs] = np.arange(n, n + pairs.size)
    # Keys are unique: one sort of packed (DPU, key) gives each DPU's
    # pairs in key order.
    width = n + len(moved)
    order = pair_of_key[np.sort(pair_dpu * width + keys) % width]
    bounds = np.zeros(n_dpus + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_dpu, minlength=n_dpus), out=bounds[1:])
    return Assignment(
        n_dpus=n_dpus,
        pair_query=pair_query[order],
        pair_cluster=pair_cluster[order],
        dpu_bounds=bounds,
        dpu_workload=np.array(load, dtype=np.float64),
        dropped=dropped,
    )


def _greedy_run(loads: list[int], size: int, n: int) -> list[int]:
    """Pick counts per holder when ``n`` pairs of one cluster go, one at
    a time, to the first least-loaded holder.

    Holder i's j-th pick happens at load ``loads[i] + j * size``, so the
    picks are the ``n`` smallest slots ``(loads[i] + j * size, i)``.
    With ``loads[i] = level[i] * size + resid[i]`` slots order by
    (level, resid, i): every holder fills up to the water line ``top``,
    the last level below which fewer than ``n`` slots lie, and the rest
    go to the holders open at ``top`` in (resid, i) order.  Integer
    arithmetic throughout, so the split is exact.
    """
    k = len(loads)
    counts = [0] * k
    if size == 0:
        counts[loads.index(min(loads))] = n
        return counts
    if k == 2:
        # Holder ``lo`` takes every slot up to the other's first, then
        # the two alternate, the other first.
        a, b = loads
        lo, m = (0, (b - a) // size + 1) if a <= b else (1, (a - b - 1) // size + 1)
        counts[lo] = min(n, m) + max(n - m, 0) // 2
        counts[1 - lo] = n - counts[lo]
        return counts
    level = [x // size for x in loads]
    by_level = sorted(level)
    below = 0
    for t, a in enumerate(by_level, 1):
        below += a
        top = (n - 1 + below) // t
        if t == k or top < by_level[t]:
            break
    counts = [top - a if a < top else 0 for a in level]
    at_top = sorted((loads[i] % size, i) for i in range(k) if level[i] <= top)
    for _, i in at_top[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _ordered_picks(
    slots: list[tuple[int, int, int, int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Holder of every pass-2 pair, in pass-2 order, and the pass-2
    position of every pick, slot by slot.

    ``slots`` holds per (run, holder) the holder, its pick count, the
    sort key of its first pick, the key step between its picks and the
    run's cluster; keys are unique across the batch and order each run
    by (load, holder position), the greedy's own order.  A slot's picks
    have ascending keys, so its positions ascend too.
    """
    if not slots:
        none = np.empty(0, dtype=np.int64)
        return none, none
    holder, count, key, step = (
        np.array(col, dtype=np.int64) for col in list(zip(*slots))[:4]
    )
    entry = np.repeat(np.arange(count.size), count)
    j = np.arange(entry.size) - np.repeat(np.cumsum(count) - count, count)
    order = np.argsort(key[entry] + j * step[entry])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return holder[entry][order], rank


def _refine_assignment(
    pair_dpu: np.ndarray,
    load: list[int],
    size_of: list[int],
    replicas: list[list[int]],
    slots: list[tuple[int, int, int, int, int]],
    position: np.ndarray,
    max_rounds: int | None = None,
) -> list[int]:
    """Local search: shed load from the most-loaded DPU onto other
    replica holders as long as the makespan shrinks.

    Updates ``pair_dpu`` and ``load`` in place.  A pair's order key is
    its position; a moved pair gets a fresh key above every other (it
    is appended to its new DPU's worklist).  Returns the moved pairs in
    move order: the i-th one's fresh key is ``pair_dpu.size + i``.

    Each round scans the source DPU's pairs by (-size, key) and moves
    the first one that has a holder the move helps.  Whether a pair can
    move depends only on its cluster, so the scan looks at one bucket
    per (DPU, replicated cluster) and moves the head of the movable
    bucket whose head sorts first.  Pass 2's slots are those buckets:
    slot e's pairs sit at ``position[lo:lo + count]``, ascending (pairs
    of single-replica clusters never move).
    """
    n_dpus = len(load)
    if max_rounds is None:
        max_rounds = 8 * n_dpus
    n = pair_dpu.size
    keys = position.tolist()
    # dpu -> cluster -> [next unmoved key in ``keys``, end, moved-in keys]
    buckets: list[dict[int, list]] = [{} for _ in range(n_dpus)]
    lo = 0
    for d, count, _key, _step, c in slots:
        buckets[d][c] = [lo, lo + count, None]
        lo += count
    # Ranks (-size, key) as one int: keys stay below n + max_rounds.
    span = n + max_rounds
    top = max(size_of, default=0)
    # A heap of (-load, dpu), stale entries skipped, finds the first
    # most-loaded DPU (np.argmax's pick).  Loads are integers, so the
    # test below the source's load is exact.
    heap = [(-x, d) for d, x in enumerate(load)]
    heapq.heapify(heap)
    moved: list[int] = []
    for _ in range(max_rounds):
        while -heap[0][0] != load[heap[0][1]]:
            heapq.heappop(heap)
        src = heap[0][1]
        limit = load[src]
        chosen = best_rank = -1
        for c, (lo, hi, extra) in buckets[src].items():
            s = size_of[c]
            # A move helps iff the destination ends up below the
            # source's current load (the global max); pick the
            # least-loaded such holder.
            best = -1
            for d in replicas[c]:
                if d != src and load[d] + s < limit:
                    if best < 0 or load[d] < load[best]:
                        best = d
            if best < 0:
                continue
            rank = (top - s) * span + (keys[lo] if lo < hi else extra[0])
            if chosen < 0 or rank < best_rank:
                chosen, best_rank, dest = c, rank, best
        if chosen < 0:
            break
        bucket = buckets[src][chosen]
        lo, hi, extra = bucket
        if lo < hi:
            k = keys[lo]
            bucket[0] = lo = lo + 1
        else:
            k = extra.popleft()
        if lo == hi and not extra:
            del buckets[src][chosen]
        into = buckets[dest].setdefault(chosen, [0, 0, None])
        if into[2] is None:
            into[2] = deque()
        into[2].append(n + len(moved))
        pair = k if k < n else moved[k - n]
        moved.append(pair)
        pair_dpu[pair] = dest
        s = size_of[chosen]
        load[src] -= s
        load[dest] += s
        heapq.heappush(heap, (-load[src], src))
        heapq.heappush(heap, (-load[dest], dest))
    return moved


@dataclass
class AdaptivePolicy:
    """Section 4.1.2's two-level response to query-pattern change.

    Minor drift (total variation below ``relocate_threshold``) only
    adjusts replica counts; beyond it, a full re-placement is requested.
    """

    replicate_threshold: float = 0.05
    relocate_threshold: float = 0.25
    _actions: list[str] = field(default_factory=list)

    def decide(self, drift: float) -> str:
        """'keep' | 'rereplicate' | 'relocate' for an observed drift."""
        if drift < self.replicate_threshold:
            action = "keep"
        elif drift < self.relocate_threshold:
            action = "rereplicate"
        else:
            action = "relocate"
        self._actions.append(action)
        return action

    def history(self) -> list[str]:
        return list(self._actions)
