"""The Opt4 heaps as the DPU kernel runs them, kept as a test reference.

Each tasklet keeps a bounded max-heap of its local best k; at Barrier 3
the local heaps drain ascending into the DPU-global heap, pruned (a
heap's first value that fails to beat the global root proves the rest
fail too) or naive.  The engines charge this work analytically
(:func:`repro.core.topk.scan_topk_fast`); ``test_topk.py`` pins the
fast selection to these heaps.  Test-only, like ``list_scheduler.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.topk import HeapStats
from repro.errors import ConfigError


def add_stats(total: HeapStats, other: HeapStats) -> None:
    """Add ``other``'s work counts into ``total``, field by field."""
    total.comparisons += other.comparisons
    total.insertions += other.insertions
    total.pruned += other.pruned
    total.merge_comparisons += other.merge_comparisons


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
        add_stats(stats, heap.stats)
        values, ids = heap.sorted_ascending()
        for pos, (v, i) in enumerate(zip(values.tolist(), ids.tolist())):
            stats.comparisons += 1
            if total.size >= k and v >= total.root:
                stats.pruned += values.shape[0] - pos
                break
            total.push(v, i)
    add_stats(stats, total.stats)
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
        add_stats(stats, heap.stats)
        values, ids = heap.sorted_ascending()
        for v, i in zip(values.tolist(), ids.tolist()):
            total.push(v, i)
    add_stats(stats, total.stats)
    out_v, out_i = total.sorted_ascending()
    return out_v, out_i, stats


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
