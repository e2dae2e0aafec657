"""Cross-batch LUT cache for the online pipeline (functional-path only).

Steady-state service traffic repeats queries and hot clusters, yet the
engine used to rebuild every (query, cluster) lookup table from scratch
each batch.  This byte-bounded LRU keeps, across batches, what the
grouped kernel reads of each (query, cluster) pair: its *ADC distance
row*, the float32 distance of every point of the cluster in scan
order, keyed by

    (query digest, cluster id, codebook version)

so a repeated query skips the residual/LUT/partial-sum build and the
ADC gather entirely.  The tables themselves (the (m, ksub) LUT of a
plain cluster, the flat [LUT | partial sums] table of a CAE cluster)
never leave the engine's table pass.  The cache never touches modeled
time: each DPU is still charged the full LUT-construction and scan cost
on every visit (the golden-timing contract), exactly as the real
hardware would rebuild its WRAM copy and rescan its points.

Storage follows the paper's per-cluster layout (Sec 4.3, Fig 8): each
cluster owns one float32 slab whose rows are distance rows of that
cluster's points.  A cache entry is a row of its cluster's slab, so a
batch's missed rows land in their slabs in bulk and the grouped kernel
reads a cluster's rows with one row copy (:class:`BatchDistances`).

Invalidation: the engine bumps its codebook version (making every old
key unreachable) and calls :meth:`LutCache.clear` whenever the index or
the placement changes — ``build()`` and ``refresh_placement()``.

Hit/miss totals are exposed through :mod:`repro.telemetry` as
``repro_lut_cache_hits_total`` / ``repro_lut_cache_misses_total``.
"""

from __future__ import annotations

import hashlib
import mmap
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Cache key: (query digest, cluster id, codebook version).
CacheKey = tuple[bytes, int, int]


def query_digest(query: np.ndarray) -> bytes:
    """Stable 16-byte digest of a query vector's float32 contents."""
    data = np.ascontiguousarray(query, dtype=np.float32)
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


def _mapped(rows: int, width: int) -> np.ndarray:
    """A zeroed float32 (rows, width) array in its own anonymous memory
    map: a page holds memory only once written, and dropping the array
    returns its pages to the OS.  (Heap blocks that slabs freed as they
    grew stayed resident: about 21 MiB after ``warm_bs100``'s warm-up.)"""
    if rows * width == 0:
        return np.zeros((rows, width), dtype=np.float32)
    buf = mmap.mmap(-1, rows * width * np.dtype(np.float32).itemsize)
    return np.frombuffer(buf, dtype=np.float32).reshape(rows, width)


class _Slab:
    """One cluster's distance rows: row r of ``rows`` holds ``length``
    floats, one per point of the cluster.

    Row ids are handed out from the free list, else past the last one
    (``len(stamp)`` ids so far); ``stamp[r]`` is the batch that last
    handed out row r, and ``keys[r]`` the entry that owns it (None
    when no entry does).  A row evicted in that batch waits in ``held``
    for the batch to settle, since the batch may still read it.
    """

    __slots__ = (
        "length", "nbytes", "rows", "ready", "stamp", "keys", "free", "held", "hint",
    )

    def __init__(self, length: int, hint: int = 0):
        self.length = length
        self.nbytes = 4 * length  # one row's
        self.hint = hint  # rows to map at the first growth
        self.rows = _mapped(0, length)
        self.ready = 0  # row ids handed out when ``rows`` was last read
        self.stamp: list[int] = []
        self.keys: list[CacheKey | None] = []
        self.free: list[int] = []
        self.held: list[int] = []

    def release(self, row: int, batch: int) -> None:
        """Row ``row`` no longer holds an entry."""
        self.keys[row] = None
        (self.held if self.stamp[row] == batch else self.free).append(row)

    def array(self) -> np.ndarray:
        """``rows``, with a row for every id handed out.  It doubles
        (or first takes ``hint`` rows) when it grows, and the rows past
        the ids handed out are never written, so they hold no memory."""
        need = len(self.stamp)
        if self.rows.shape[0] < need:
            rows = max(need, 2 * self.rows.shape[0], self.hint)
            grown = _mapped(rows, self.length)
            grown[: self.ready] = self.rows[: self.ready]
            self.rows = grown
        self.ready = need
        return self.rows

    def compact(self) -> list[CacheKey]:
        """Move the entries' rows to the front, in row order; returns
        the keys of the new rows 0, 1, ..."""
        live = [row for row, key in enumerate(self.keys) if key is not None]
        keys = [key for key in self.keys if key is not None]
        kept = _mapped(len(live), self.length)
        np.take(self.array(), live, axis=0, out=kept)
        self.rows = kept
        self.ready = len(live)
        self.stamp = [-1] * len(live)
        self.keys = list(keys)
        self.free = []
        return keys


class LutCache:
    """Byte-capacity LRU over per-(query, cluster) distance rows.

    Each entry is a handle: the key's cluster names a slab, the stored
    value is the entry's row in it.  Eviction is by total row bytes
    (:attr:`nbytes`), least-recently-used first, and returns the row to
    its slab's free list.  A row handed out since the last
    :meth:`settle` (by a lookup or a reservation) is not reused before
    the next one, so a batch reads its rows intact even when they are
    evicted mid-batch.  :meth:`settle` also compacts every slab with
    fewer live rows than half the rows it has handed out, so between
    batches the slabs hold at most twice the live rows (``held_bytes``
    in :meth:`stats`).  A capacity of 0 (or less) disables the cache:
    every lookup misses and nothing is retained past :meth:`settle`.
    """

    def __init__(
        self, capacity_bytes: int, *, registry: MetricsRegistry | None = None
    ):
        self.capacity_bytes = int(capacity_bytes)
        self._registry = registry
        self._entries: OrderedDict[CacheKey, int] = OrderedDict()
        self._bytes = 0
        self._slabs: dict[int, _Slab] = {}
        # Rows each dropped slab had mapped: a slab made again for the
        # cluster maps as many at once instead of doubling up to them.
        self._hints: dict[int, int] = {}
        self._batch = 0
        # Cost-aware admission (off by default): per-cluster access
        # frequencies and the floor below which puts are skipped.
        self._admission_freq: np.ndarray | None = None
        self._admission_floor = 0.0
        self._admission_skips = 0

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def nbytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def _counters(self):
        reg = self._registry if self._registry is not None else get_registry()
        return reg.cached(
            "lut_cache_counters",
            lambda: (
                reg.counter(
                    "repro_lut_cache_hits_total",
                    "cross-batch LUT cache hits",
                ),
                reg.counter(
                    "repro_lut_cache_misses_total",
                    "cross-batch LUT cache misses",
                ),
            ),
        )

    def get(self, key: CacheKey) -> int | None:
        """The key's row in its cluster's slab, refreshed as
        most-recently-used; None on miss."""
        return self.get_many([key])[0]

    def get_many(self, keys: list[CacheKey]) -> list[int | None]:
        """Batched :meth:`get`: one slab row per key, None on miss.

        Counter updates are coalesced into a single hit and a single
        miss increment, which keeps the per-(query, cluster) lookup cost
        out of the grouped engine's hot path.
        """
        hits, misses = self._counters()
        entries = self._entries
        slabs = self._slabs
        batch = self._batch
        out: list[int | None] = []
        n_hits = 0
        for key in keys:
            row = entries.get(key)
            if row is not None:
                entries.move_to_end(key)
                slabs[key[1]].stamp[row] = batch
                n_hits += 1
            out.append(row)
        if n_hits:
            hits.inc(n_hits)
        if len(out) > n_hits:
            misses.inc(len(out) - n_hits)
        return out

    def set_admission(
        self, frequencies: np.ndarray | None, floor: float = 0.0
    ) -> None:
        """Arm (or disarm) frequency-floor admission.

        ``frequencies`` is the per-cluster access distribution (summing
        to 1, e.g. :meth:`repro.workload.trace.AccessTrace.frequencies`);
        a :meth:`put` for a cluster whose frequency is below ``floor``
        is silently skipped, so one-shot tail clusters never evict the
        warm working set.  ``None`` or a floor of 0 admits everything.
        Functional no-op either way: admission only changes what is
        *retained*, never any computed value.
        """
        if frequencies is None or floor <= 0.0:
            self._admission_freq = None
            self._admission_floor = 0.0
            return
        self._admission_freq = np.asarray(frequencies, dtype=np.float64)
        self._admission_floor = float(floor)

    def put(self, key: CacheKey, row: np.ndarray) -> None:
        """Insert (or refresh) one distance row: :meth:`put_many` of one."""
        self.put_many([key], [row])

    def put_many(self, keys: list[CacheKey], rows: list[np.ndarray]) -> None:
        """Copy distance rows into the slab rows :meth:`reserve_many`
        hands out, in order."""
        at = self.reserve_many(keys, [row.size for row in rows])
        for key, row, r in zip(keys, rows, at):
            self.slab(key[1])[r] = row

    def reserve_many(self, keys: list[CacheKey], lengths: list[int]) -> list[int]:
        """A slab row for each key's distance row of ``lengths[i]``
        floats, to be written by the caller before the batch reads it;
        the keys are inserted (or refreshed) in order, evicting LRU
        entries to fit.

        Every key gets a row, but only the retained ones become entries:
        one :meth:`put` per key, in order, leaves the same entries, key
        order, byte total and counters.  A row larger than the whole
        capacity is not retained.  With admission armed, rows of
        below-floor clusters are skipped and counted in
        ``repro_lut_cache_admission_skips_total``.  Rows not retained
        (or evicted in this batch) are released at :meth:`settle`.
        """
        capacity = self.capacity_bytes
        enabled = self.enabled
        freq = self._admission_freq
        admitted = None
        if freq is not None and enabled:
            # Clusters outside the frequency view are always admitted.
            cluster = np.array([key[1] for key in keys], dtype=np.int64)
            inside = (cluster >= 0) & (cluster < freq.shape[0])
            above = freq[cluster * inside] >= self._admission_floor
            admitted = (above | ~inside).tolist()
        entries = self._entries
        popitem = entries.popitem
        slabs = self._slabs
        batch = self._batch
        nbytes = self._bytes
        skips = 0
        rows: list[int] = []
        try:
            for i, (key, length) in enumerate(zip(keys, lengths)):
                slab = slabs.get(key[1])
                if slab is None:
                    hint = self._hints.get(key[1], 0)
                    slab = slabs[key[1]] = _Slab(length, hint)
                elif slab.length != length:
                    raise ConfigError(
                        f"cluster {key[1]} holds rows of {slab.length} "
                        f"floats, not {length}"
                    )
                free = slab.free
                if free:
                    row = free.pop()
                    slab.stamp[row] = batch
                else:
                    row = len(slab.stamp)
                    slab.stamp.append(batch)
                    slab.keys.append(None)
                rows.append(row)
                size = slab.nbytes
                if not enabled or size > capacity:
                    slab.held.append(row)
                    continue
                if admitted is not None and not admitted[i]:
                    skips += 1
                    slab.held.append(row)
                    continue
                old = entries.pop(key, None)
                if old is not None:
                    nbytes -= size
                    slab.release(old, batch)
                entries[key] = row
                slab.keys[row] = key
                nbytes += size
                while nbytes > capacity:
                    (_, cluster, _), evicted = popitem(last=False)
                    owner = slabs[cluster]
                    nbytes -= owner.nbytes
                    owner.release(evicted, batch)
        finally:
            self._bytes = nbytes
            if skips:
                self._admission_skips += skips
                reg = self._registry if self._registry is not None else get_registry()
                reg.counter(
                    "repro_lut_cache_admission_skips_total",
                    "LUT-cache puts skipped by the frequency-floor admission policy",
                ).inc(skips)
        return rows

    def discard(self, key: CacheKey) -> None:
        """Evict the key's entry, if cached, as the LRU would."""
        row = self._entries.pop(key, None)
        if row is not None:
            slab = self._slabs[key[1]]
            self._bytes -= slab.nbytes
            slab.release(row, self._batch)

    def slab(self, cluster: int) -> np.ndarray:
        """Cluster's slab, one row of its points' distances per row id
        handed out.  Valid until the next :meth:`settle`."""
        return self._slabs[cluster].array()

    def distances(self, key: CacheKey) -> np.ndarray | None:
        """A copy of the key's cached distance row (no recency refresh,
        no counters); None when it is not cached."""
        row = self._entries.get(key)
        if row is None:
            return None
        return self._slabs[key[1]].array()[row].copy()

    def settle(self) -> None:
        """End the current batch: rows it held return to their free
        lists, and each slab with fewer live rows than half the rows it
        has handed out is compacted (an empty one is dropped).  A slab
        knows the key of each of its rows, so compaction touches only
        that slab's rows and entries."""
        self._batch += 1
        entries = self._entries
        for cluster, slab in list(self._slabs.items()):
            slab.free += slab.held
            slab.held = []
            live = len(slab.stamp) - len(slab.free)
            if live == 0:
                self._hints[cluster] = slab.rows.shape[0]
                del self._slabs[cluster]
            elif 2 * live < len(slab.stamp):
                for row, key in enumerate(slab.compact()):
                    entries[key] = row

    def clear(self) -> None:
        """Drop every entry and release every slab (codebook or
        placement changed)."""
        self._entries.clear()
        self._bytes = 0
        for cluster, slab in self._slabs.items():
            self._hints[cluster] = slab.rows.shape[0]
        self._slabs.clear()

    def stats(self) -> dict[str, int]:
        """Current occupancy (counts are in the telemetry registry);
        ``held_bytes`` is the memory the slabs' rows handed out hold,
        free rows included."""
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "capacity_bytes": self.capacity_bytes,
            "admission_skips": self._admission_skips,
            "held_bytes": sum(
                slab.nbytes * len(slab.stamp) for slab in self._slabs.values()
            ),
        }


@dataclass(frozen=True)
class BatchDistances:
    """Where one batch's (query, cluster) distance rows live.

    Pair i, query row ``query[i]`` against cluster ``cluster[i]``, has
    its distance row (one float per point of the cluster, in scan
    order) in row ``row[i]`` of ``slabs[cluster[i]]``.  Valid until the
    cache that handed the rows out settles.
    """

    slabs: dict[int, np.ndarray]
    query: np.ndarray  # (pairs,) int64
    cluster: np.ndarray  # (pairs,) int64
    row: np.ndarray  # (pairs,) intp

    @cached_property
    def _lookup(self) -> tuple[int, np.ndarray, np.ndarray]:
        span = int(self.cluster.max(initial=-1)) + 1
        key = self.query * span + self.cluster
        order = np.argsort(key)
        return span, key[order], self.row[order]

    def rows(self, query: np.ndarray, cluster: np.ndarray | int) -> np.ndarray:
        """Slab row of each (query, cluster) pair, the two broadcast
        together (every pair must be one of this batch's)."""
        span, keys, rows = self._lookup
        return rows[np.searchsorted(keys, query * span + cluster)]

    def distances(self, query: int, cluster: int) -> np.ndarray:
        """One pair's distance row, a view of its slab row."""
        (row,) = self.rows(np.array([query]), cluster)
        return self.slabs[cluster][row]


def check_capacity(capacity_bytes: int) -> int:
    """Validate a configured capacity (negative = configuration error)."""
    if capacity_bytes < 0:
        raise ConfigError(
            f"lut_cache_bytes must be >= 0 (0 disables), got {capacity_bytes}"
        )
    return capacity_bytes
