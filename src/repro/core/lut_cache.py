"""Cross-batch LUT cache for the online pipeline (functional-path only).

Steady-state service traffic repeats queries and hot clusters, yet the
engine used to rebuild every (query, cluster) lookup table from scratch
each batch.  This byte-bounded LRU keeps, across batches, all the
grouped kernel reads of each (query, cluster) pair: its *top-k
candidates*, the first ``min(k, P_c)`` points of its ADC distance row in
(value, column) order, as float32 distances plus int32 columns (scan
positions in the cluster), keyed by

    (query digest, cluster id, codebook version, k)

so a repeated query skips the residual/LUT/partial-sum build, the ADC
gather and the per-row cut.  A scan adds at most its own k best points
to a query's result (Opt4, Sec 4.4), so nothing else of a row is ever
read; a search with another k misses, its key differs.  The cache never
touches modeled time: each DPU is still charged the full
LUT-construction and scan cost on every visit (the golden-timing
contract), exactly as the real hardware would rebuild its WRAM copy and
rescan its points.

The entries of one k are rows of one (rows, k) slab pair, float32 values
and int32 columns, so a batch's missed entries land in it in bulk and
the grouped kernel reads every pair's candidates with one row copy
(:class:`BatchCandidates`).

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

#: Cache key: (query digest, cluster id, codebook version, k).
CacheKey = tuple[bytes, int, int, int]


def query_digest(query: np.ndarray) -> bytes:
    """Stable 16-byte digest of a query vector's float32 contents."""
    data = np.ascontiguousarray(query, dtype=np.float32)
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


def _mapped(rows: int, width: int, dtype: type) -> np.ndarray:
    """A zeroed (rows, width) array in its own anonymous memory map: a
    page holds memory only once written, and dropping the array returns
    its pages to the OS.  (Heap blocks that slabs freed as they grew
    stayed resident.)"""
    if rows * width == 0:
        return np.zeros((rows, width), dtype=dtype)
    buf = mmap.mmap(-1, rows * width * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype).reshape(rows, width)


class _Slab:
    """The entries of one k: row r of ``values`` / ``cols`` holds an
    entry's candidates, its first ``min(k, P_c)`` columns valid.

    Row ids are handed out from the free list, else past the last one
    (``len(stamp)`` ids so far); ``stamp[r]`` is the batch that last
    handed out row r, and ``keys[r]`` the entry that owns it (None
    when no entry does).  A row evicted in that batch waits in ``held``
    for the batch to settle, since the batch may still read it.
    """

    __slots__ = ("k", "nbytes", "values", "cols", "ready", "stamp", "keys", "free", "held")

    def __init__(self, k: int):
        self.k = k
        self.nbytes = 8 * k  # one row's: a float32 value and an int32 column each
        self.values = _mapped(0, k, np.float32)
        self.cols = _mapped(0, k, np.int32)
        self.ready = 0  # row ids handed out when the rows were last read
        self.stamp: list[int] = []
        self.keys: list[CacheKey | None] = []
        self.free: list[int] = []
        self.held: list[int] = []

    def release(self, row: int, batch: int) -> None:
        """Row ``row`` no longer holds an entry."""
        self.keys[row] = None
        (self.held if self.stamp[row] == batch else self.free).append(row)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, cols), with a row for every id handed out.  They
        double when they grow, and the rows past the ids handed out are
        never written, so they hold no memory."""
        need = len(self.stamp)
        if self.values.shape[0] < need:
            rows = max(need, 2 * self.values.shape[0])
            values = _mapped(rows, self.k, np.float32)
            cols = _mapped(rows, self.k, np.int32)
            values[: self.ready] = self.values[: self.ready]
            cols[: self.ready] = self.cols[: self.ready]
            self.values, self.cols = values, cols
        self.ready = need
        return self.values, self.cols

    def compact(self) -> list[CacheKey]:
        """Move the entries' rows to the front, in row order; returns
        the keys of the new rows 0, 1, ..."""
        live = [row for row, key in enumerate(self.keys) if key is not None]
        keys = [key for key in self.keys if key is not None]
        values, cols = self.arrays()
        n = len(live)
        self.values = np.take(values, live, axis=0, out=_mapped(n, self.k, np.float32))
        self.cols = np.take(cols, live, axis=0, out=_mapped(n, self.k, np.int32))
        self.ready = n
        self.stamp = [-1] * n
        self.keys = list(keys)
        self.free = []
        return keys


class LutCache:
    """Byte-capacity LRU over per-(query, cluster) top-k candidates.

    Each entry is a handle: the key's k names a slab, the stored value
    is the entry's row in it, and it counts ``8 * k`` bytes.  Eviction
    is by total bytes (:attr:`nbytes`), least-recently-used first, and
    returns the row to its slab's free list.  A row handed out since the
    last :meth:`settle` (by a lookup or a reservation) is not reused
    before the next one, so a batch reads its rows intact even when they
    are evicted mid-batch.  :meth:`settle` also compacts every slab with
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
        """The key's row in its k's slab, refreshed as
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
                slabs[key[3]].stamp[row] = batch
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

    def put(self, key: CacheKey, values: np.ndarray, cols: np.ndarray) -> None:
        """Insert (or refresh) one entry: :meth:`put_many` of one."""
        self.put_many([key], [values], [cols])

    def put_many(
        self, keys: list[CacheKey], values: list[np.ndarray], cols: list[np.ndarray]
    ) -> None:
        """Copy each key's candidates (at most k values and their
        columns) into the slab rows :meth:`reserve_many` hands out, in
        order.  A key with more than k of them raises ConfigError
        before anything is inserted."""
        for key, v, c in zip(keys, values, cols):
            if max(v.shape[0], c.shape[0]) > key[3]:
                raise ConfigError(f"key {key[1:]} holds at most {key[3]} candidates")
        for key, v, c, r in zip(keys, values, cols, self.reserve_many(keys)):
            slab_v, slab_c = self.slab(key[3])
            slab_v[r, : v.shape[0]] = v
            slab_c[r, : c.shape[0]] = c

    def reserve_many(self, keys: list[CacheKey]) -> list[int]:
        """A row of its k's slab for each key, to be written by the
        caller before the batch reads it; the keys are inserted (or
        refreshed) in order, evicting LRU entries to fit.

        Every key gets a row, but only the retained ones become entries:
        one :meth:`put` per key, in order, leaves the same entries, key
        order, byte total and counters.  An entry larger than the whole
        capacity is not retained.  With admission armed, entries of
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
            for i, key in enumerate(keys):
                slab = slabs.get(key[3])
                if slab is None:
                    slab = slabs[key[3]] = _Slab(key[3])
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
                    evicted_key, evicted = popitem(last=False)
                    owner = slabs[evicted_key[3]]
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
            slab = self._slabs[key[3]]
            self._bytes -= slab.nbytes
            slab.release(row, self._batch)

    def slab(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The (values, cols) slab of k, one row per row id handed out
        (empty when none was).  Valid until the next :meth:`settle`."""
        slab = self._slabs.get(k)
        return (slab if slab is not None else _Slab(k)).arrays()

    def candidates(self, key: CacheKey) -> tuple[np.ndarray, np.ndarray] | None:
        """Copies of the key's cached (values, cols) row, all k columns
        (no recency refresh, no counters); None when it is not cached."""
        row = self._entries.get(key)
        if row is None:
            return None
        values, cols = self._slabs[key[3]].arrays()
        return values[row].copy(), cols[row].copy()

    def settle(self) -> None:
        """End the current batch: rows it held return to their free
        lists, and each slab with fewer live rows than half the rows it
        has handed out is compacted (an empty one is dropped)."""
        self._batch += 1
        entries = self._entries
        for k, slab in list(self._slabs.items()):
            slab.free += slab.held
            slab.held = []
            live = len(slab.stamp) - len(slab.free)
            if live == 0:
                del self._slabs[k]
            elif 2 * live < len(slab.stamp):
                for row, key in enumerate(slab.compact()):
                    entries[key] = row

    def clear(self) -> None:
        """Drop every entry and release every slab (codebook or
        placement changed)."""
        self._entries.clear()
        self._bytes = 0
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
class BatchCandidates:
    """Where one batch's (query, cluster) candidates live.

    Pair i, query row ``query[i]`` against cluster ``cluster[i]``, has
    its top-k candidates in row ``row[i]`` of ``values`` / ``cols``:
    the first ``min(k, P_c)`` points of its distance row in (value,
    column) order, in column order.  Valid until the cache that handed
    the rows out settles.
    """

    values: np.ndarray  # (rows, k) float32
    cols: np.ndarray  # (rows, k) int32
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


def check_capacity(capacity_bytes: int) -> int:
    """Validate a configured capacity (negative = configuration error)."""
    if capacity_bytes < 0:
        raise ConfigError(
            f"lut_cache_bytes must be >= 0 (0 disables), got {capacity_bytes}"
        )
    return capacity_bytes
