"""Cross-batch LUT cache for the online pipeline (functional-path only).

A byte-bounded LRU over each (query, cluster) pair's *top-k candidates*:
the first ``min(k, P_c)`` points of its ADC distance row in (value,
column) order, as float32 distances plus int32 columns.  A repeated
query skips the LUT/partial-sum build, the ADC gather and the per-row
cut; a scan adds at most its own k best points to a query's result
(Opt4, Sec 4.4), so nothing else of a row is read.  Modeled time is
untouched: each DPU is still charged full LUT construction and a full
scan on every visit (the golden-timing contract).

Bookkeeping is array-native, one table per k:

* **Slots.**  Each batch interns each query digest once, into a slot
  (a dict lookup per query, not per pair); a slot is reclaimed once its
  last entry is evicted.
* **Row matrix.**  ``matrix[slot, cluster]`` is the slab row of the
  pair's entry, -1 when absent, so a batch's lookup is one gather.
* **Slab.**  Row r of the ``(rows, k)`` ``values`` / ``cols`` holds an
  entry's candidates; ``stamp[r]`` is its last use and ``owner[r]`` its
  matrix cell (both -1 when row r holds no entry).
* **Recency.**  Stamps come from one clock, written in bulk in the
  order a per-key LRU touches keys (per query, its hits in probe order,
  then its misses), so LRU order is exact.

A batch runs at once, duplicates included, when its inserts fit the cap
or when the entries it evicts (smallest stamps: one ``argpartition``,
then a walk) share no slot with its queries; otherwise query by query,
so an entry evicted by query i's inserts misses for a later query j.

The cap counts what the cache holds: ``8k + 16`` bytes per entry
(candidates, stamp, owner) and ``4 * n_clusters + 256`` per live slot
(matrix row, count, digest, dict entry).  A lookup under a new codebook
version clears the cache.  Hit/miss totals are the telemetry counters
``repro_lut_cache_hits_total`` / ``repro_lut_cache_misses_total``.
"""

from __future__ import annotations

import hashlib
import mmap
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Bytes an entry holds beyond its candidates: int64 stamp and owner.
ROW_OVERHEAD = 16
#: Bytes a slot holds beyond its matrix row: its int32 entry count, its
#: digest, its dict entry and its slot id (measured 170-210 B, as the
#: dict's slack varies while it grows).
SLOT_OVERHEAD = 256


def query_digest(query: np.ndarray) -> bytes:
    """Stable 16-byte digest of a query vector's float32 contents."""
    data = np.ascontiguousarray(query, dtype=np.float32)
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


def _mapped(shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """A zeroed array in its own anonymous memory map: a page holds
    memory only once written, and dropping the array returns its pages
    to the OS.  (Heap blocks that slabs freed as they grew stayed
    resident.)"""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if size == 0:
        return np.zeros(shape, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, size), dtype=dtype).reshape(shape)


def _grown(arrays: list[np.ndarray], used: int, need: int) -> list[np.ndarray]:
    """``arrays`` with room for ``need`` rows (doubling), their first
    ``used`` rows copied."""
    have = arrays[0].shape[0]
    if need <= have:
        return arrays
    rows = max(need, 2 * have)
    out = []
    for old in arrays:
        new = _mapped((rows,) + old.shape[1:], old.dtype)
        new[:used] = old[:used]
        out.append(new)
    return out


class _Table:
    """The entries of one k (see the module docstring)."""

    def __init__(self, k: int, n_clusters: int):
        self.k = k
        self.n_clusters = n_clusters
        self.entry_bytes = 8 * k + ROW_OVERHEAD
        self.slot_bytes = 4 * n_clusters + SLOT_OVERHEAD
        self.slots: dict[bytes, int] = {}
        self.digests: list[bytes | None] = []  # slot -> digest
        self.free_slots: list[int] = []
        self.matrix = _mapped((0, n_clusters), np.int32)
        self.counts = _mapped((0,), np.int32)  # entries per slot
        self.values = _mapped((0, k), np.float32)
        self.cols = _mapped((0, k), np.int32)
        self.stamp = _mapped((0,), np.int64)
        self.owner = _mapped((0,), np.int64)
        self.n_rows = 0  # row ids handed out
        self.free = np.empty(0, dtype=np.intp)
        self.held: list[np.ndarray] = []  # evicted this batch: still read
        self.live = 0

    def take_rows(self, n: int) -> np.ndarray:
        """n row ids holding no entry: free ones first, then new ones."""
        kept = max(0, self.free.shape[0] - n)
        new = n - (self.free.shape[0] - kept)
        rows = np.concatenate([self.free[kept:], np.arange(self.n_rows, self.n_rows + new)])
        self.free = self.free[:kept]
        self.values, self.cols, self.stamp, self.owner = _grown(
            [self.values, self.cols, self.stamp, self.owner], self.n_rows, self.n_rows + new
        )
        self.n_rows += new
        self.stamp[rows] = -1
        return rows

    def new_slot(self, digest: bytes) -> int:
        if self.free_slots:
            slot = self.free_slots.pop()  # its matrix row is all -1
            self.digests[slot] = digest
        else:
            slot = len(self.digests)
            self.digests.append(digest)
            self.matrix, self.counts = _grown(
                [self.matrix, self.counts], slot, slot + 1
            )
            self.matrix[slot] = -1
        self.slots[digest] = slot
        return slot

    def evict(self, rows: np.ndarray) -> None:
        """Drop the entries of ``rows`` (their slots too once empty)."""
        cell = self.owner[rows]
        self.matrix.reshape(-1)[cell] = -1
        self.stamp[rows] = -1
        slot = cell // self.n_clusters
        np.subtract.at(self.counts, slot, 1)
        emptied = np.unique(slot[self.counts[slot] == 0]).tolist()
        for s in emptied:
            del self.slots[self.digests[s]]
            self.digests[s] = None
        self.free_slots += emptied
        self.held.append(rows)
        self.live -= rows.shape[0]

    def settle(self) -> None:
        """Held rows become free; fewer live rows than half those
        handed out moves the live ones to the front, in row order."""
        self.free = np.concatenate([self.free, *self.held])
        self.held = []
        if 2 * self.live >= self.n_rows:
            return
        live = np.flatnonzero(self.stamp[: self.n_rows] >= 0)
        n = live.shape[0]
        arrays = [self.values, self.cols, self.stamp, self.owner]
        self.values, self.cols, self.stamp, self.owner = [
            np.take(a, live, axis=0, out=_mapped((n,) + a.shape[1:], a.dtype))
            for a in arrays
        ]
        self.matrix.reshape(-1)[self.owner] = np.arange(n, dtype=np.int32)
        self.n_rows = n
        self.free = np.empty(0, dtype=np.intp)


class LutCache:
    """Byte-capacity LRU over per-(query, cluster) top-k candidates.

    A row a batch reads is not handed out again before :meth:`settle`,
    which also compacts slabs under half live and drops empty tables.
    A capacity of 0 (or less) disables the cache: every lookup misses,
    uncounted, and nothing is retained.
    """

    def __init__(
        self, capacity_bytes: int, *, registry: MetricsRegistry | None = None
    ):
        self.capacity_bytes = int(capacity_bytes)
        self._registry = registry
        self._tables: dict[int, _Table] = {}
        self._bytes = 0
        self._clock = 0
        self._version: int | None = None
        self._queue = np.empty((0, 3), dtype=np.int64)  # (stamp, k, row)

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def nbytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return sum(t.live for t in self._tables.values())

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

    def get_many(
        self,
        queries: np.ndarray,
        pair_q: np.ndarray,
        pair_c: np.ndarray,
        version: int,
        k: int,
        n_clusters: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Slab rows of one batch's pairs, query row ``pair_q[i]``
        against cluster ``pair_c[i]`` (query-major, each query's probes
        in order), searched with k under codebook ``version``.

        Returns (row per pair, the missed pairs' indices): the caller
        writes each missed pair's candidates to its row before reading
        it.  Hits, misses, insertions and evictions are those of a
        per-key LRU that looks each query's pairs up, then inserts its
        misses in probe order, before the next query.
        """
        if version != self._version:
            self.clear()
            self._version = version
        table = self._tables.get(k) or self._tables.setdefault(k, _Table(k, n_clusters))
        n = pair_q.shape[0]
        if not self.enabled or table.entry_bytes + table.slot_bytes > self.capacity_bytes:
            rows = table.take_rows(n)
            table.held.append(rows)
            if self.enabled:
                self._counters()[1].inc(n)
            return rows, np.arange(n)
        digests = [query_digest(q) for q in queries]
        out = self._lookup(table, digests, pair_q, pair_c)
        if out is None:  # query by query
            at = np.searchsorted(pair_q, np.arange(len(digests) + 1)).tolist()
            parts = [
                self._lookup(table, [d], pair_q[a:b] - q, pair_c[a:b], at_once=False)
                for q, (d, a, b) in enumerate(zip(digests, at, at[1:]))
            ]
            out = tuple(
                np.concatenate([np.empty(0, dtype=np.intp), *arrays])
                for arrays in ([r for r, _ in parts], [m + a for (_, m), a in zip(parts, at)])
            )
        hits, misses = self._counters()
        if n > out[1].shape[0]:
            hits.inc(n - out[1].shape[0])
        if out[1].shape[0]:
            misses.inc(out[1].shape[0])
        return out

    def put(self, k: int, rows: np.ndarray, values: np.ndarray, cols: np.ndarray) -> None:
        """Write candidates to slab rows of k that :meth:`get_many`
        handed out: row ``rows[i]`` gets ``values[i]`` and ``cols[i]``
        (at most k of each; a cluster smaller than k fills fewer)."""
        table = self._tables[k]
        table.values[rows, : values.shape[1]] = values
        table.cols[rows, : cols.shape[1]] = cols

    def _lookup(
        self,
        table: _Table,
        digests: list[bytes],
        pair_q: np.ndarray,
        pair_c: np.ndarray,
        at_once: bool = True,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(rows, missed pairs) of ``digests``' queries, evicting after
        their inserts; None when the batch must run query by query (never
        without ``at_once``, a one-query batch)."""
        first: dict[bytes, int] = {}
        lead = np.array([first.setdefault(d, i) for i, d in enumerate(digests)], dtype=np.intp)
        slot = np.array([table.slots.get(d, -1) for d in digests], dtype=np.intp)
        pair_s = slot[pair_q]
        rows = np.full(pair_q.shape[0], -1, dtype=np.intp)
        known = np.flatnonzero(pair_s >= 0)
        rows[known] = table.matrix[pair_s[known], pair_c[known]]
        absent = np.flatnonzero(rows < 0)
        # Each absent key's first pair misses; its later copies hit.
        key = lead[pair_q[absent]] * table.n_clusters + pair_c[absent]
        _, at, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(at)
        missed = absent[at[order]]  # in pair order
        new_lead = np.unique(lead[pair_q[missed]])
        new_lead = new_lead[slot[new_lead] < 0]
        cost = missed.shape[0] * table.entry_bytes + new_lead.shape[0] * table.slot_bytes
        need = self._bytes + cost - self.capacity_bytes
        if need > 0 and at_once:
            # Evicting after the batch equals evicting after each query
            # when no victim shares a slot with the batch's queries: the
            # batch then never reads a victim.
            victims, freed = self._victims(need, pair_q.shape[0], walk=False)
            mine = victims[:, 0] == table.k
            if freed < need or np.isin(victims[mine, 2], slot[slot >= 0]).any():
                return None
        for q in new_lead.tolist():
            slot[q] = table.new_slot(digests[q])
        new_rows = table.take_rows(missed.shape[0])
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        rows[absent] = new_rows[rank[inverse]]
        cell = slot[lead[pair_q[missed]]] * table.n_clusters + pair_c[missed]
        table.matrix.reshape(-1)[cell] = new_rows
        table.owner[new_rows] = cell
        np.add.at(table.counts, cell // table.n_clusters, 1)
        table.live += missed.shape[0]
        self._bytes += cost
        # Touch per query its hits, then its misses; a repeated row keeps
        # its last touch.  With no misses that is pair order: pairs come
        # query by query.
        touched = rows
        if missed.shape[0]:
            miss = np.zeros(rows.shape[0], dtype=np.intp)
            miss[missed] = 1
            touched = rows[np.argsort(2 * pair_q + miss, kind="stable")]
        np.maximum.at(table.stamp, touched, self._clock + np.arange(touched.shape[0]))
        self._clock += touched.shape[0]
        if need > 0:
            victims, freed = self._victims(need, pair_q.shape[0])
            for k in np.unique(victims[:, 0]).tolist():
                self._tables[k].evict(victims[victims[:, 0] == k, 1].astype(np.intp))
            self._bytes -= freed
        return rows, missed

    def _victims(self, need: int, batch: int, walk: bool = True) -> tuple[np.ndarray, int]:
        """The least-recently-used entries whose eviction frees at least
        ``need`` bytes, oldest first, as (k, row, slot) rows, and the
        bytes they free.  The oldest live entries are found with one
        ``argpartition`` and walked in stamp order (``walk``: past the
        victims); an entry touched since is newer than the rest and
        skipped."""
        count = -(-need // min(t.entry_bytes for t in self._tables.values()))
        width, built = count, False  # each victim frees at least its entry
        while True:
            window = self._queue[:width]
            stamp, ks, row = window.T
            live = np.zeros(window.shape[0], dtype=bool)
            slot, left, cost, slot_cost = (np.zeros_like(row) for _ in range(4))
            for k in np.unique(ks).tolist():
                t = self._tables[k]
                at = np.flatnonzero(ks == k)
                at = at[t.stamp[row[at]] == stamp[at]]
                live[at] = True
                slot[at] = t.owner[row[at]] // t.n_clusters
                left[at] = t.counts[slot[at]]
                cost[at] = t.entry_bytes
                slot_cost[at] = t.slot_bytes
            v = np.flatnonzero(live)[:count]
            if v.shape[0] == count or built:  # a new queue has every entry it can
                break
            if width < self._queue.shape[0]:
                width *= 2
            else:
                self._queue = self._oldest(max(batch, 2 * count))
                width, built = count, True
        if not v.shape[0]:
            return np.empty((0, 3), dtype=np.int64), 0
        # A victim frees its slot too when it is the slot's last entry.
        group = ks[v] * (int(slot.max(initial=0)) + 1) + slot[v]
        order = np.argsort(group, kind="stable")
        sorted_group = group[order]
        start = np.flatnonzero(np.r_[True, sorted_group[1:] != sorted_group[:-1]])
        nth = np.empty_like(order)
        nth[order] = np.arange(v.shape[0]) - np.repeat(start, np.diff(np.r_[start, v.shape[0]]))
        freed = np.cumsum(cost[v] + slot_cost[v] * (nth + 1 == left[v]))
        take = min(int(np.searchsorted(freed, need)) + 1, v.shape[0])
        if walk:
            self._queue = self._queue[v[take - 1] + 1 :]
        v = v[:take]
        return np.stack([ks[v], row[v], slot[v]], axis=1), int(freed[take - 1])

    def _oldest(self, n: int) -> np.ndarray:
        """(stamp, k, row) of the n oldest live entries, oldest first."""
        parts = []
        for k, t in self._tables.items():
            row = np.flatnonzero(t.stamp[: t.n_rows] >= 0)
            parts.append(np.stack([t.stamp[row], np.full(row.shape[0], k), row], axis=1))
        live = np.concatenate(parts)
        if live.shape[0] > n:
            live = live[np.argpartition(live[:, 0], n - 1)[:n]]
        return live[np.argsort(live[:, 0])]

    def slab(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The (values, cols) slab of k, one row per row id handed out
        (empty when none was).  Valid until the next :meth:`settle`."""
        table = self._tables.get(k) or _Table(k, 0)
        return table.values, table.cols

    def entries(self) -> list[tuple[bytes, int, int, int]]:
        """(digest, cluster, k, slab row) of every entry, least recently
        used first."""
        out = []
        for k, t in self._tables.items():
            rows = np.flatnonzero(t.stamp[: t.n_rows] >= 0)
            slot, cluster = np.divmod(t.owner[rows], t.n_clusters)
            out += zip(
                t.stamp[rows].tolist(),
                [t.digests[s] for s in slot.tolist()],
                cluster.tolist(),
                [k] * rows.shape[0],
                rows.tolist(),
            )
        return [entry[1:] for entry in sorted(out)]

    def settle(self) -> None:
        """End the current batch: rows it held return to their free
        lists, sparse slabs are compacted and empty tables dropped."""
        self._queue = self._queue[:0]
        for k, table in list(self._tables.items()):
            table.settle()
            if table.n_rows == 0:
                del self._tables[k]

    def clear(self) -> None:
        """Drop every entry and release every table (codebook or
        placement changed)."""
        self._tables.clear()
        self._bytes = 0
        self._queue = self._queue[:0]

    def stats(self) -> dict[str, int]:
        """Current occupancy (counts are in the telemetry registry):
        live entries and slots, and the row and slot ids handed out,
        free ones included (their arrays' extent)."""
        tables = self._tables.values()
        return {
            "entries": len(self),
            "slots": sum(len(t.slots) for t in tables),
            "rows": sum(t.n_rows for t in tables),
            "slot_ids": sum(len(t.digests) for t in tables),
            "bytes": self._bytes,
            "capacity_bytes": self.capacity_bytes,
        }


@dataclass(frozen=True)
class BatchCandidates:
    """Where one batch's (query, cluster) candidates live.

    The pair of query row q and cluster c has its top-k candidates in
    row ``row[q, c]`` of ``values`` / ``cols`` (-1: not a pair of this
    batch): the first ``min(k, P_c)`` points of its distance row in
    (value, column) order, in column order.  Valid until the cache that
    handed the rows out settles.
    """

    values: np.ndarray  # (rows, k) float32
    cols: np.ndarray  # (rows, k) int32
    row: np.ndarray  # (queries, clusters) intp


def check_capacity(capacity_bytes: int) -> int:
    """Validate a configured capacity (negative = configuration error)."""
    if capacity_bytes < 0:
        raise ConfigError(
            f"lut_cache_bytes must be >= 0 (0 disables), got {capacity_bytes}"
        )
    return capacity_bytes
