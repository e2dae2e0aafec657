"""Opt4: top-k selection with thread-local heaps and pruning (section 4.4).

Each tasklet maintains a bounded *max*-heap of its local best k while
scanning distances.  At Barrier 3 the local heaps are merged into the
DPU-global top-k: each local heap is converted to a *min*-heap (i.e.
drained in ascending order) and its elements inserted under a semaphore
into the global max-heap — but as soon as a local heap's smallest
remaining value is no better than the global k-th best, the whole
remainder of that heap is pruned (Figure 9, grey nodes).

The paper reports this skips 68 % of redundant comparisons and speeds
the stage 3.1x.  All heaps count comparisons so benches can report the
same statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass
class HeapStats:
    """Work accounting for the top-k stage.

    ``merge_comparisons`` isolates the cross-tasklet merge's share of
    ``comparisons`` — the part Opt4's pruning reduces.
    """

    comparisons: int = 0
    insertions: int = 0
    pruned: int = 0
    merge_comparisons: int = 0

    def merge(self, other: "HeapStats") -> None:
        self.comparisons += other.comparisons
        self.insertions += other.insertions
        self.pruned += other.pruned
        self.merge_comparisons += other.merge_comparisons


class BoundedMaxHeap:
    """Array-based max-heap holding the k smallest values seen so far.

    The root is the *largest* retained value, so a new candidate only
    enters (evicting the root) when it beats the current k-th best —
    exactly the thread-local PQ of Figure 6.
    """

    __slots__ = ("k", "size", "values", "ids", "stats")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ConfigError("heap capacity must be >= 1")
        self.k = k
        self.size = 0
        self.values = np.empty(k, dtype=np.float32)
        self.ids = np.empty(k, dtype=np.int64)
        self.stats = HeapStats()

    @property
    def root(self) -> float:
        """Current k-th best (worst retained) value; inf when not full."""
        if self.size < self.k:
            return float("inf")
        return float(self.values[0])

    def push(self, value: float, ident: int) -> bool:
        """Offer a candidate; returns True if it was retained."""
        if self.size < self.k:
            i = self.size
            self.values[i] = value
            self.ids[i] = ident
            self.size += 1
            self._sift_up(i)
            self.stats.insertions += 1
            return True
        self.stats.comparisons += 1
        if value >= self.values[0]:
            return False
        self.values[0] = value
        self.ids[0] = ident
        self._sift_down(0)
        self.stats.insertions += 1
        return True

    def push_many(self, values: np.ndarray, ids: np.ndarray) -> None:
        """Bulk push preserving scan order (same result as a loop)."""
        for v, i in zip(values.tolist(), ids.tolist()):
            self.push(v, i)

    def _sift_up(self, i: int) -> None:
        values, ids = self.values, self.ids
        while i > 0:
            parent = (i - 1) >> 1
            self.stats.comparisons += 1
            if values[i] <= values[parent]:
                break
            values[i], values[parent] = values[parent], values[i]
            ids[i], ids[parent] = ids[parent], ids[i]
            i = parent

    def _sift_down(self, i: int) -> None:
        values, ids = self.values, self.ids
        n = self.size
        while True:
            left = 2 * i + 1
            right = left + 1
            largest = i
            if left < n:
                self.stats.comparisons += 1
                if values[left] > values[largest]:
                    largest = left
            if right < n:
                self.stats.comparisons += 1
                if values[right] > values[largest]:
                    largest = right
            if largest == i:
                return
            values[i], values[largest] = values[largest], values[i]
            ids[i], ids[largest] = ids[largest], ids[i]
            i = largest

    def sorted_ascending(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain as a min-heap: (values, ids) in ascending value order.

        This is the "convert the thread-local max heaps into min heaps"
        step of section 4.4 — ascending order is what enables pruning.
        """
        order = np.argsort(self.values[: self.size], kind="stable")
        return self.values[order].copy(), self.ids[order].copy()


def merge_heaps_pruned(
    local_heaps: list[BoundedMaxHeap], k: int
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Pruned merge of thread-local heaps into the DPU-global top-k.

    Local heaps are drained ascending (min-heap order); the first value
    of a heap that fails to beat the global root proves every later
    value fails too, so the rest is pruned (counted in ``stats.pruned``).
    Returns (values, ids) ascending plus merged work stats.
    """
    total = BoundedMaxHeap(k)
    stats = HeapStats()
    for heap in local_heaps:
        stats.merge(heap.stats)
        values, ids = heap.sorted_ascending()
        for pos, (v, i) in enumerate(zip(values.tolist(), ids.tolist())):
            stats.comparisons += 1
            if total.size >= k and v >= total.root:
                stats.pruned += values.shape[0] - pos
                break
            total.push(v, i)
    stats.merge(total.stats)
    out_v, out_i = total.sorted_ascending()
    return out_v, out_i, stats


def merge_heaps_naive(
    local_heaps: list[BoundedMaxHeap], k: int
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Baseline merge: every local element is offered to the global heap.

    This is what PIM-naive does, and what Figure 15 compares against.
    """
    total = BoundedMaxHeap(k)
    stats = HeapStats()
    for heap in local_heaps:
        stats.merge(heap.stats)
        values, ids = heap.sorted_ascending()
        for v, i in zip(values.tolist(), ids.tolist()):
            total.push(v, i)
    stats.merge(total.stats)
    out_v, out_i = total.sorted_ascending()
    return out_v, out_i, stats


def scan_topk_fast(
    distances: np.ndarray,
    ids: np.ndarray,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Vectorized equivalent of :func:`scan_topk_threaded`.

    The thread strides are packed into one padded (tasklets, stride)
    matrix so the per-stride local top-k is a single row-wise stable
    argsort — no Python-level per-tasklet loop on the kernel hot path.
    Work statistics are analytic (a bounded max-heap scanning n
    random-order elements performs ~n root comparisons plus
    ~k(1 + ln(n/k)) successful insertions costing log2(k) sift
    comparisons each), computed with the exact same float64 expression
    per stride as the scalar form so the charged cycles they feed are
    reproduced bit-for-bit.

    Ties are broken stably by scan position: the result is always
    identical to ``np.argsort(distances, kind="stable")[:k]``, for any
    tasklet count — a uniquely defined output, so the vectorized and
    reference paths cannot drift apart on duplicate distances.
    """
    if n_tasklets < 1:
        raise ConfigError("need at least one tasklet")
    distances = np.asarray(distances, dtype=np.float32)
    ids = np.asarray(ids, dtype=np.int64)
    stats = HeapStats()
    n = distances.shape[0]
    if n == 0:
        return distances[:0], ids[:0], stats
    t = n_tasklets
    stride = -(-n // t)  # ceil: max elements any tasklet scans
    # Column j of the (stride, t) layout is tasklet j's stride; pad with
    # +inf so short strides sort their live prefix first (stable sort
    # keeps any real +inf ahead of padding — padding sits at larger
    # scan positions).
    pad = stride * t - n
    mat_v = np.concatenate(
        [distances, np.full(pad, np.inf, dtype=np.float32)]
    ).reshape(stride, t).T  # (t, stride): row i = distances[i::t]
    mat_p = np.arange(stride * t, dtype=np.int64).reshape(stride, t).T
    stride_len = np.full(t, n // t, dtype=np.int64)
    stride_len[: n % t] += 1
    k_local = np.minimum(k, stride_len)  # per-stride retained count

    kk = min(k, stride)
    order = np.argsort(mat_v, axis=1, kind="stable")[:, :kk]
    top_v = np.take_along_axis(mat_v, order, axis=1)
    top_p = np.take_along_axis(mat_p, order, axis=1)
    valid = np.arange(kk, dtype=np.int64)[None, :] < k_local[:, None]

    # Analytic local-scan work, per stride (same float64 chain as the
    # scalar formula; int truncation per stride, then summed).
    live = stride_len > 0
    n_f = stride_len.astype(np.float64)
    k_f = k_local.astype(np.float64)
    ratio = np.divide(n_f, k_f, out=np.ones_like(n_f), where=live)
    exp_ins = k_f * (1.0 + np.maximum(0.0, np.log(ratio, where=live, out=np.zeros_like(ratio))))
    comps = (
        n_f + exp_ins * np.maximum(1.0, np.log2(np.maximum(k_f, 2.0)))
    ).astype(np.int64)
    stats.comparisons += int(comps[live].sum())
    stats.insertions += int(k_local.sum())

    # Global merge: concatenate the ascending local lists in tasklet
    # order (the order the semaphore-guarded merge of section 4.4
    # consumes them), then select the k best by (value, scan position).
    flat_valid = valid.ravel()
    cat_v = top_v.ravel()[flat_valid]
    cat_p = top_p.ravel()[flat_valid]
    k_eff = min(k, cat_v.shape[0])
    if k_eff == 0:
        return cat_v[:0], ids[:0], stats
    sel = np.lexsort((cat_p, cat_v))[:k_eff]
    out_v = cat_v[sel].copy()
    out_i = ids[cat_p[sel]]
    threshold = out_v[-1]

    # Pruning statistic, recovered exactly from each ascending local
    # list: once a value fails against the final k-th best, everything
    # after it would have been pruned (Figure 9, grey nodes).
    merge_log_k = max(1.0, np.log2(max(k_eff, 2)))
    accepted = ((top_v < threshold) & valid).sum(axis=1)
    if prune:
        offered = np.minimum(accepted + 1, k_local)  # +1 failing probe
        stats.pruned += int((k_local - offered).sum())
    else:
        offered = k_local
    merge_work = int(
        (offered + (accepted * merge_log_k).astype(np.int64)).sum()
    )
    stats.comparisons += merge_work
    stats.merge_comparisons += merge_work
    stats.insertions += int(accepted.sum())
    return out_v, out_i, stats


def _sortable_u32(values: np.ndarray) -> np.ndarray:
    """Order-preserving float32 -> uint32 bijection (IEEE-754 trick).

    Lets a plain integer sort implement the exact (value, position)
    lexicographic order without a slow ``np.lexsort`` per group.
    """
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    neg = (u & np.uint32(0x80000000)) != 0
    return np.where(neg, ~u, u | np.uint32(0x80000000))


def segment_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i] + counts[i])``."""
    total = int(counts.sum())
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(
        total, dtype=np.int64
    )


@dataclass
class GroupTopK:
    """Top-k selections of many independent candidate groups, flat.

    Group ``g``'s ascending selection is ``values[offsets[g]:offsets[g +
    1]]`` (ids alike); ``sizes[g]`` is how many candidates the group
    scanned and ``stats[g]`` its (comparisons, insertions, pruned,
    merge_comparisons) work counts.  Indexing yields the per-group
    ``(values, ids, HeapStats)`` triple of :func:`scan_topk_fast`.
    """

    values: np.ndarray  # float32
    ids: np.ndarray  # int64
    offsets: np.ndarray  # (n_groups + 1,) int64
    sizes: np.ndarray  # (n_groups,) int64
    stats: np.ndarray  # (n_groups, 4) int64

    def __len__(self) -> int:
        return int(self.sizes.shape[0])

    def __getitem__(self, g: int) -> tuple[np.ndarray, np.ndarray, HeapStats]:
        o0, o1 = int(self.offsets[g]), int(self.offsets[g + 1])
        return (
            self.values[o0:o1],
            self.ids[o0:o1],
            HeapStats(*(int(x) for x in self.stats[g])),
        )

    def __iter__(self):
        return (self[g] for g in range(len(self)))

    def total_stats(self) -> HeapStats:
        return HeapStats(*(int(x) for x in self.stats.sum(axis=0)))

    @property
    def counts(self) -> np.ndarray:
        """Selected entries per group (``min(k, size)``)."""
        return np.diff(self.offsets)

    def take(self, groups: np.ndarray) -> "GroupTopK":
        """The selections of ``groups``, in that order."""
        counts = self.counts[groups]
        src = segment_indices(self.offsets[:-1][groups], counts)
        return GroupTopK(
            self.values[src],
            self.ids[src],
            np.concatenate([[0], np.cumsum(counts)]),
            self.sizes[groups],
            self.stats[groups],
        )

    @classmethod
    def concat(cls, parts: "list[GroupTopK]") -> "GroupTopK":
        """The groups of ``parts``, one after another."""
        counts = np.concatenate([p.counts for p in parts])
        return cls(
            np.concatenate([p.values for p in parts]),
            np.concatenate([p.ids for p in parts]),
            np.concatenate([[0], np.cumsum(counts)]),
            np.concatenate([p.sizes for p in parts]),
            np.concatenate([p.stats for p in parts]),
        )


def scan_topk_fast_batch(
    values_list: list[np.ndarray],
    ids_list: list[np.ndarray],
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> list[tuple[np.ndarray, np.ndarray, HeapStats]]:
    """:func:`scan_topk_fast` over many independent candidate groups.

    Guaranteed result- and stats-identical to calling
    :func:`scan_topk_fast` per group (see
    :func:`scan_topk_fast_batch_flat`, which does the work).
    """
    if len(values_list) == 0:
        return []
    n_arr = np.array([v.shape[0] for v in values_list], dtype=np.int64)
    if int(n_arr.sum()) == 0:
        flat_v = np.empty(0, dtype=np.float32)
        flat_i = np.empty(0, dtype=np.int64)
    else:
        flat_v = np.concatenate(
            [np.asarray(v, dtype=np.float32) for v in values_list]
        )
        flat_i = np.concatenate([np.asarray(i, dtype=np.int64) for i in ids_list])
    return list(
        scan_topk_fast_batch_flat(flat_v, flat_i, n_arr, k, n_tasklets, prune=prune)
    )


def row_survivors(dists: np.ndarray, k: int) -> np.ndarray:
    """Flat (row-major) indices of every entry no larger than its row's
    k-th smallest value — a superset of each row's top-k under any
    tie-break.

    First stage of the two-stage batch selection: one row-wise
    ``np.partition`` per candidate block shrinks each (query, cluster)
    scan to about k survivors before the group-wide sort.
    """
    n_rows, width = dists.shape
    if width <= k:
        return np.arange(n_rows * width, dtype=np.int64)
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
    return np.flatnonzero(dists <= kth[:, None])


def _group_order(group: np.ndarray, values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Indices sorting the candidates by (group, value, position).

    Packs the three keys into one uint64 when their bit widths fit
    (always, at simulator scale) and falls back to ``np.lexsort``
    otherwise; the keys are unique, so both orders are the same.
    """
    u = _sortable_u32(values).astype(np.uint64)
    pos_bits = int(pos.max()).bit_length() if pos.size else 0
    group_bits = int(group.max()).bit_length() if group.size else 0
    if 32 + pos_bits + group_bits > 64:
        return np.lexsort((pos, u, group))
    key = (group.astype(np.uint64) << np.uint64(32 + pos_bits)) | (
        u << np.uint64(pos_bits)
    ) | pos.astype(np.uint64)
    return np.argsort(key)


def scan_topk_fast_batch_flat(
    flat_v: np.ndarray,
    flat_i: np.ndarray,
    n_arr: np.ndarray,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
    group: np.ndarray | None = None,
    pos: np.ndarray | None = None,
) -> GroupTopK:
    """Per-group :func:`scan_topk_fast` over flat candidate arrays.

    By default ``flat_v`` / ``flat_i`` hold every group's candidates
    back to back and ``n_arr`` gives the per-group lengths.  With
    ``group`` / ``pos`` the candidates are instead labelled explicitly
    (group index, scan position within the group) and need only be a
    *superset* of each group's top-k — the grouped kernel passes the
    :func:`row_survivors` of its per-cluster scans — while ``n_arr``
    still gives each group's full scanned length.

    One (group, value, position) sort picks every group's top-k, so the
    selection equals ``np.argsort(group_values, kind="stable")[:k]``
    per group.  The work statistics need nothing else: the per-stride
    local-scan terms are the same float64 chain as
    :func:`scan_topk_fast` over the true lengths, and every candidate
    strictly below a group's threshold (its k-th value) is among the
    selected ones, so each stride's merge ``accepted`` count is read off
    the selection alone.
    """
    if n_tasklets < 1:
        raise ConfigError("need at least one tasklet")
    t = n_tasklets
    n_arr = np.asarray(n_arr, dtype=np.int64)
    n_groups = int(n_arr.shape[0])
    flat_v = np.ascontiguousarray(flat_v, dtype=np.float32)
    flat_i = np.asarray(flat_i, dtype=np.int64)
    if group is None or pos is None:
        starts = np.cumsum(n_arr) - n_arr
        group = np.repeat(np.arange(n_groups, dtype=np.int64), n_arr)
        pos = np.arange(flat_v.shape[0], dtype=np.int64) - starts[group]
    k_eff = np.minimum(k, n_arr)
    offs = np.concatenate([[0], np.cumsum(k_eff)])
    sel_group = np.repeat(np.arange(n_groups, dtype=np.int64), k_eff)

    # Each group's supplied candidates form one contiguous run of the
    # sorted order; its top-k is that run's first k_eff entries.
    order = _group_order(group, flat_v, pos)
    supplied = np.bincount(group, minlength=n_groups)
    sel = order[segment_indices(np.cumsum(supplied) - supplied, k_eff)]
    out_v = flat_v[sel]
    out_i = flat_i[sel]
    # Per-group selection threshold = last (largest) selected value.
    th_v = np.full(n_groups, np.inf, dtype=np.float32)
    live_g = k_eff > 0
    th_v[live_g] = out_v[offs[1:][live_g] - 1]

    # Analytic local-scan work — the same per-stride float64 chain as
    # scan_topk_fast, truncated per stride before summing.
    stride_len = (n_arr[:, None] // t) + (
        np.arange(t, dtype=np.int64)[None, :] < (n_arr[:, None] % t)
    )
    k_local = np.minimum(k, stride_len)
    live = stride_len > 0
    n_f = stride_len.astype(np.float64)
    k_f = k_local.astype(np.float64)
    ratio = np.divide(n_f, k_f, out=np.ones_like(n_f), where=live)
    logr = np.log(ratio, out=np.zeros_like(ratio), where=live)
    exp_ins = k_f * (1.0 + np.maximum(0.0, logr))
    comps = (
        n_f + exp_ins * np.maximum(1.0, np.log2(np.maximum(k_f, 2.0)))
    ).astype(np.int64)
    comps_g = np.where(live, comps, 0).sum(axis=1)
    ins_local_g = k_local.sum(axis=1)

    # Merge statistics.  A stride's accepted count — how many of its
    # ascending local list beat the final threshold — equals its count
    # of elements strictly below the threshold: at most min(k, n) - 1
    # elements lie below it globally, so no stride can hold more than
    # its own local-top capacity of them, and all of them are selected.
    below = out_v < th_v[sel_group]
    accepted = np.bincount(
        (sel_group * t + pos[sel] % t)[below], minlength=n_groups * t
    ).reshape(n_groups, t)
    merge_log_k = np.maximum(1.0, np.log2(np.maximum(k_eff, 2)))
    if prune:
        offered = np.minimum(accepted + 1, k_local)
        pruned_g = (k_local - offered).sum(axis=1)
    else:
        offered = k_local
        pruned_g = np.zeros(n_groups, dtype=np.int64)
    merge_g = (
        offered + (accepted * merge_log_k[:, None]).astype(np.int64)
    ).sum(axis=1)
    stats = np.stack(
        [comps_g + merge_g, ins_local_g + accepted.sum(axis=1), pruned_g, merge_g],
        axis=1,
    ).astype(np.int64)
    return GroupTopK(out_v, out_i, offs, n_arr, stats)


def estimate_scan_stats(n_points: float, k: int, n_tasklets: int) -> tuple[float, float]:
    """Analytic (comparisons, insertions) for a thread-striped scan.

    Used by the DPU charge model when the simulated list stands in for a
    ``workload_scale``-times longer one: a bounded heap's insertion count
    grows only logarithmically with the list length, so simulated counts
    cannot simply be multiplied by the scale factor.
    """
    if n_points <= 0:
        return 0.0, 0.0
    per_stride = max(1.0, n_points / n_tasklets)
    k_eff = min(k, per_stride)
    insertions_per_stride = k_eff * (1.0 + max(0.0, np.log(per_stride / k_eff)))
    insertions = n_tasklets * insertions_per_stride
    comparisons = n_points + insertions * max(1.0, np.log2(max(k_eff, 2)))
    return comparisons, insertions


def scan_topk_threaded(
    distances: np.ndarray,
    ids: np.ndarray,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Full Opt4 pipeline over one cluster's distances.

    Points are strided across ``n_tasklets`` thread-local heaps exactly
    as the DPU kernel distributes read chunks, then merged (pruned or
    naive).  Functionally equivalent to an exact top-k.
    """
    if n_tasklets < 1:
        raise ConfigError("need at least one tasklet")
    distances = np.asarray(distances, dtype=np.float32)
    ids = np.asarray(ids, dtype=np.int64)
    heaps = [BoundedMaxHeap(k) for _ in range(n_tasklets)]
    for t in range(n_tasklets):
        heaps[t].push_many(distances[t::n_tasklets], ids[t::n_tasklets])
    if prune:
        return merge_heaps_pruned(heaps, k)
    return merge_heaps_naive(heaps, k)
