"""Opt4: top-k selection with thread-local heaps and pruning (section 4.4).

Each tasklet maintains a bounded *max*-heap of its local best k while
scanning distances.  At Barrier 3 the local heaps are merged into the
DPU-global top-k: each local heap is converted to a *min*-heap (i.e.
drained in ascending order) and its elements inserted under a semaphore
into the global max-heap — but as soon as a local heap's smallest
remaining value is no better than the global k-th best, the whole
remainder of that heap is pruned (Figure 9, grey nodes).

The paper reports this skips 68 % of redundant comparisons and speeds
the stage 3.1x.  The selections here are vectorized and count the same
work statistics; the heaps they stand in for are a test reference
(``tests/core/heap_refs.py``).
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


def scan_topk_fast(
    distances: np.ndarray,
    ids: np.ndarray,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Vectorized equivalent of the thread-local heap scan and merge
    (kept as a test reference, ``tests/core/heap_refs.py``).

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
    ``-0.0`` maps where ``+0.0`` does (adding ``+0.0`` turns it into
    ``+0.0``), so zeros tie as they do under ``<``.  A negative value's
    bits are inverted, a positive one's sign bit set.
    """
    u = (np.asarray(values, dtype=np.float32) + np.float32(0.0)).view(np.uint32)
    flip = (u.view(np.int32) >> 31).view(np.uint32)  # all ones when negative
    flip |= np.uint32(0x80000000)
    u ^= flip
    return u


def segment_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i] + counts[i])``."""
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(out.shape[0], dtype=np.int64)
    return out


def stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative integer keys,
    as one ``np.sort`` of (key, index) packed into one int64; keys too
    wide for the bits the index leaves take the argsort itself."""
    bits = max(key.shape[0] - 1, 0).bit_length()
    if int(key.max(initial=0)).bit_length() + bits > 63:
        return np.argsort(key, kind="stable")
    packed = key.astype(np.int64) << bits
    packed |= np.arange(key.shape[0], dtype=np.int64)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


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
            np.take(self.stats, groups, axis=0),
        )


def row_topk(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first ``min(k, width)`` entries in (value, column)
    order, as (values float32, columns int32) of shape
    (rows, min(k, width)), each row's entries in column order.

    Row r's columns are ``np.sort(np.argsort(block[r], kind="stable")[:k])``.
    One row-wise ``np.sort`` finds each row's k-th smallest value (NumPy
    sorts float32 rows with SIMD code, faster here than ``np.partition``);
    every entry below it is kept and, of the entries equal to it, the
    first ones by column, so only the survivors of the cut are looked
    at twice.  ``-0.0`` equals ``+0.0`` here, as in ``np.argsort``.
    Rows must hold no NaN.
    """
    n_rows, width = block.shape
    if width <= k:
        cols = np.broadcast_to(np.arange(width, dtype=np.int32), block.shape)
        return block, cols
    kth = np.sort(block, axis=1)[:, k - 1 : k]
    flat = np.flatnonzero(block <= kth)
    if flat.shape[0] > n_rows * k:
        # Ties at some row's k-th value: sort the survivors by (row,
        # value, column) and keep each row's first k, in column order.
        n = np.bincount(flat // width, minlength=n_rows)
        flat = flat[np.sort(_segment_topk(block.reshape(-1)[flat], n, np.full(n_rows, k)))]
    values = block.reshape(-1)[flat].reshape(n_rows, k)
    cols = (flat % width).astype(np.int32).reshape(n_rows, k)
    return values, cols


def _segment_topk(values: np.ndarray, counts: np.ndarray, take: np.ndarray) -> np.ndarray:
    """Indices of each segment's first ``take[s]`` entries in (value,
    index) order, segment after segment.

    Segment s is the next ``counts[s]`` entries of ``values``.  One
    ``np.sort`` of uint64 keys packing (segment, :func:`_sortable_u32`
    value, rank in the segment) orders every segment at once, and the
    selection is read straight off the sorted keys' low bits.  The key
    fits while the segment count and the longest segment take at most
    32 bits together (a batch of 1,000 queries at nprobe 64 and k = 100
    takes 16 + 13); wider keys fall back to a stable ``np.lexsort``.
    The keys are unique, so both orders are the same.
    """
    n_seg = counts.shape[0]
    starts = np.cumsum(counts) - counts
    at = segment_indices(starts, take)
    rank_bits = max(int(counts.max(initial=0)) - 1, 0).bit_length()
    if max(n_seg - 1, 0).bit_length() + 32 + rank_bits > 64:
        return _segment_topk_lexsort(values, counts, at)
    key = _sortable_u32(values).astype(np.uint64)
    key <<= np.uint64(rank_bits)
    key += np.arange(values.shape[0], dtype=np.uint64)
    # Plus the segment, minus its start (exact modulo 2**64).
    key += np.repeat(
        (np.arange(n_seg, dtype=np.uint64) << np.uint64(32 + rank_bits))
        - starts.astype(np.uint64),
        counts,
    )
    key.sort()
    key = key[at]
    key &= np.uint64((1 << rank_bits) - 1)
    sel = key.astype(np.intp)
    sel += np.repeat(starts, take)
    return sel


def _segment_topk_lexsort(
    values: np.ndarray, counts: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """:func:`_segment_topk`'s order by one stable ``np.lexsort`` on
    (segment, value); ``at`` indexes the sorted order."""
    seg = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    return np.lexsort((_sortable_u32(values), seg))[at]


def _stride_terms(length: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(comparisons, retained count) of one tasklet's local scan over
    ``length`` elements: :func:`scan_topk_fast`'s per-stride float64
    chain, element for element (0 for an empty stride)."""
    live = length > 0
    k_local = np.minimum(k, length)
    n_f = length.astype(np.float64)
    k_f = k_local.astype(np.float64)
    ratio = np.divide(n_f, k_f, out=np.ones_like(n_f), where=live)
    logr = np.log(ratio, out=np.zeros_like(ratio), where=live)
    exp_ins = k_f * (1.0 + np.maximum(0.0, logr))
    comps = (
        n_f + exp_ins * np.maximum(1.0, np.log2(np.maximum(k_f, 2.0)))
    ).astype(np.int64)
    return np.where(live, comps, 0), k_local


def scan_topk_fast_batch_flat(
    flat_v: np.ndarray,
    flat_i: np.ndarray | None,
    n_arr: np.ndarray,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
    supplied: np.ndarray | None = None,
    pos: np.ndarray | None = None,
) -> GroupTopK:
    """Per-group :func:`scan_topk_fast` over flat candidate arrays.

    ``flat_v`` / ``flat_i`` hold every group's candidates back to back
    and ``n_arr`` gives each group's scanned length.  By default a
    group's candidates are its whole scan, in scan order.  With
    ``supplied`` / ``pos`` (both or neither) group g's candidates are
    instead the next ``supplied[g]`` entries, at scan positions ``pos``
    (ascending within the group), and need only be a *superset* of the
    group's top-k — the grouped kernel passes each (query, cluster)
    scan's own :func:`row_topk`, which is one: a group's top-k point has
    fewer than k points of its own scan ahead of it.  Labelled input
    that breaks this layout raises :class:`~repro.errors.ConfigError`.
    A ``flat_i`` of None returns the selected candidates' indices as
    ids.

    Within a group, index order is scan-position order, so one sort of
    packed (group, value, rank) keys (:func:`_segment_topk`) picks
    every group's top-k: the selection equals
    ``np.argsort(group_values, kind="stable")[:k]`` per group.  Values,
    ids and positions are read for the selected entries only.  The
    work statistics need nothing else.  A stride holds ``n // t`` or
    ``n // t + 1`` elements, so the local-scan terms are
    :func:`scan_topk_fast`'s float64 chain at those two lengths, looked
    up in one table by stride length.  Every candidate strictly below a
    group's threshold (its k-th value) is among the selected ones, so
    each stride's merge ``accepted`` count is read off the selection
    alone.
    """
    if n_tasklets < 1:
        raise ConfigError("need at least one tasklet")
    if (supplied is None) != (pos is None):
        raise ConfigError("supplied and pos label the candidates together")
    t = n_tasklets
    n_arr = np.asarray(n_arr, dtype=np.int64)
    n_groups = int(n_arr.shape[0])
    flat_v = np.ascontiguousarray(flat_v, dtype=np.float32)
    k_eff = np.minimum(k, n_arr)
    if supplied is None:
        supplied = n_arr
    else:
        supplied = np.asarray(supplied, dtype=np.int64)
        pos = np.asarray(pos)
        _check_layout(supplied, pos, k_eff, flat_v.shape[0])
    offs = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(k_eff, out=offs[1:])
    sel = _segment_topk(flat_v, supplied, k_eff)
    out_v = flat_v[sel]
    out_i = sel if flat_i is None else np.asarray(flat_i, dtype=np.int64)[sel]
    sel_group = np.repeat(np.arange(n_groups, dtype=np.int64), k_eff)
    if pos is None:
        sel_pos = sel - (np.cumsum(n_arr) - n_arr)[sel_group]
    else:
        sel_pos = pos[sel]

    # Analytic local-scan work, truncated per stride before summing: r
    # strides of q + 1 elements and t - r of q.  The terms depend on a
    # stride's length alone: one table over every length up to the
    # longest.
    q = n_arr // t
    r = n_arr - q * t
    comps_len, k_len = _stride_terms(np.arange(int(q.max(initial=0)) + 2), k)
    k_hi, k_lo = k_len[q + 1], k_len[q]
    comps_g = r * comps_len[q + 1] + (t - r) * comps_len[q]
    ins_local_g = r * k_hi + (t - r) * k_lo

    # Merge statistics.  A stride's accepted count — how many of its
    # ascending local list beat the final threshold — equals its count
    # of elements strictly below the threshold (the group's last
    # selected value): at most min(k, n) - 1 elements lie below it
    # globally, so no stride can hold more than its own local-top
    # capacity of them, and all of them are selected.  Counted into a
    # (strides, groups) matrix, so per-group sums run down its rows.
    th_v = np.full(n_groups, np.inf, dtype=np.float32)
    live_g = k_eff > 0
    th_v[live_g] = out_v[offs[1:][live_g] - 1]
    cell = np.multiply(sel_pos - (sel_pos // t) * t, n_groups, dtype=np.int64)
    cell += sel_group  # (stride, group)
    accepted = np.bincount(
        cell[out_v < th_v[sel_group]], minlength=t * n_groups
    ).reshape(t, n_groups)
    accepted_g = accepted.sum(axis=0)
    if prune:
        # A stride offers its accepted entries plus one failing probe,
        # unless it has none left: it is exhausted (accepted equals its
        # retained count), which takes a stride shorter than k.
        offered_g = accepted_g + t
        short = np.flatnonzero(q < k)
        k_local = np.where(
            np.arange(t)[:, None] < r[short], k_hi[short], k_lo[short]
        )
        offered_g[short] -= (accepted[:, short] == k_local).sum(axis=0)
        pruned_g = ins_local_g - offered_g
    else:
        offered_g = ins_local_g
        pruned_g = np.zeros(n_groups, dtype=np.int64)
    merge_log_k = np.maximum(1.0, np.log2(np.maximum(k_eff, 2)))
    merge_g = offered_g + (accepted * merge_log_k).astype(np.int64).sum(axis=0)
    stats = np.empty((n_groups, 4), dtype=np.int64)
    stats[:, 0] = comps_g + merge_g
    stats[:, 1] = ins_local_g + accepted_g
    stats[:, 2] = pruned_g
    stats[:, 3] = merge_g
    return GroupTopK(out_v, out_i, offs, n_arr, stats)


def _check_layout(
    supplied: np.ndarray, pos: np.ndarray, k_eff: np.ndarray, n: int
) -> None:
    """Labelled candidates' layout: ``supplied`` splits all ``n`` of
    them into groups of at least ``k_eff`` each, and every group's
    scan positions ``pos`` ascend."""
    if pos.shape != (n,) or supplied.shape != k_eff.shape or int(supplied.sum()) != n:
        raise ConfigError(
            f"supplied / pos label {int(supplied.sum())} / {pos.shape} "
            f"candidates of {n}, in {k_eff.shape[0]} groups"
        )
    if (supplied < k_eff).any():
        raise ConfigError("a group was supplied fewer than min(k, n) candidates")
    # Positions may fall only where a group starts.
    starts = np.zeros(n + 1, dtype=bool)
    starts[np.cumsum(supplied) - supplied] = True
    if not starts[np.flatnonzero(pos[1:] <= pos[:-1]) + 1].all():
        raise ConfigError(
            "labelled candidates must come group by group, each group's in "
            "ascending scan position"
        )
