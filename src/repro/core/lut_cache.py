"""Cross-batch LUT cache for the online pipeline (functional-path only).

Steady-state service traffic repeats queries and hot clusters, yet the
engine used to rebuild every (query, cluster) lookup table from scratch
each batch.  This byte-bounded LRU keeps the *functional* tables — the
(m, ksub) LUT for plain clusters, the flat [LUT | partial sums] table
for CAE clusters — across batches, keyed by

    (query digest, cluster id, codebook version)

so a repeated query skips the residual/LUT/partial-sum recomputation
entirely.  The cache never touches modeled time: each DPU is still
charged the full LUT-construction cost on every visit (the golden-timing
contract), exactly as the real hardware would rebuild its WRAM copy.

Invalidation: the engine bumps its codebook version (making every old
key unreachable) and calls :meth:`LutCache.clear` whenever the index or
the placement changes — ``build()`` and ``refresh_placement()``.

Hit/miss totals are exposed through :mod:`repro.telemetry` as
``repro_lut_cache_hits_total`` / ``repro_lut_cache_misses_total``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Cache key: (query digest, cluster id, codebook version).
CacheKey = tuple[bytes, int, int]


def query_digest(query: np.ndarray) -> bytes:
    """Stable 16-byte digest of a query vector's float32 contents."""
    data = np.ascontiguousarray(query, dtype=np.float32)
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


class LutCache:
    """Byte-capacity LRU over per-(query, cluster) lookup tables.

    Entries are immutable NumPy arrays; eviction is by total stored
    bytes, least-recently-used first.  A capacity of 0 (or less)
    disables the cache: every lookup misses and nothing is retained.
    """

    def __init__(
        self, capacity_bytes: int, *, registry: MetricsRegistry | None = None
    ):
        self.capacity_bytes = int(capacity_bytes)
        self._registry = registry
        self._entries: OrderedDict[CacheKey, np.ndarray] = OrderedDict()
        self._bytes = 0
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

    def get(self, key: CacheKey) -> np.ndarray | None:
        """The cached table, refreshed as most-recently-used; None on miss."""
        hits, misses = self._counters()
        entry = self._entries.get(key)
        if entry is None:
            misses.inc()
            return None
        self._entries.move_to_end(key)
        hits.inc()
        return entry

    def get_many(self, keys: list[CacheKey]) -> list[np.ndarray | None]:
        """Batched :meth:`get`: one entry per key, None on miss.

        Counter updates are coalesced into a single hit and a single
        miss increment, which keeps the per-(query, cluster) lookup cost
        out of the grouped engine's hot path.
        """
        hits, misses = self._counters()
        entries = self._entries
        out: list[np.ndarray | None] = []
        n_hits = 0
        for key in keys:
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                n_hits += 1
            out.append(entry)
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

    def put(self, key: CacheKey, table: np.ndarray) -> None:
        """Insert (or refresh) one table: :meth:`put_many` of one."""
        self.put_many([key], [table])

    def put_many(self, keys: list[CacheKey], tables: list[np.ndarray]) -> None:
        """Insert (or refresh) tables in order, evicting LRU entries to fit.

        Equivalent to one :meth:`put` per (key, table), in order: the
        same entries, key order, byte total and counters.  A table
        larger than the whole capacity is simply not retained — the
        caller keeps its own reference for the current batch.  With
        admission armed, tables of below-floor clusters are skipped and
        counted in ``repro_lut_cache_admission_skips_total``.
        """
        if not self.enabled:
            return
        capacity = self.capacity_bytes
        freq = self._admission_freq
        admitted = None
        if freq is not None:
            # Clusters outside the frequency view are always admitted.
            cluster = np.array([key[1] for key in keys], dtype=np.int64)
            inside = (cluster >= 0) & (cluster < freq.shape[0])
            above = freq[cluster * inside] >= self._admission_floor
            admitted = (above | ~inside).tolist()
        entries = self._entries
        nbytes = self._bytes
        skips = 0
        for i, (key, table) in enumerate(zip(keys, tables)):
            size = table.nbytes
            if size > capacity:
                continue
            if admitted is not None and not admitted[i]:
                skips += 1
                continue
            old = entries.pop(key, None)
            if old is not None:
                nbytes -= old.nbytes
            entries[key] = table
            nbytes += size
            while nbytes > capacity:
                _, evicted = entries.popitem(last=False)
                nbytes -= evicted.nbytes
        self._bytes = nbytes
        if skips:
            self._admission_skips += skips
            reg = self._registry if self._registry is not None else get_registry()
            reg.counter(
                "repro_lut_cache_admission_skips_total",
                "LUT-cache puts skipped by the frequency-floor admission policy",
            ).inc(skips)

    def clear(self) -> None:
        """Drop every entry (codebook or placement changed)."""
        self._entries.clear()
        self._bytes = 0

    def stats(self) -> dict[str, int]:
        """Current occupancy (counts are in the telemetry registry)."""
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "capacity_bytes": self.capacity_bytes,
            "admission_skips": self._admission_skips,
        }


def check_capacity(capacity_bytes: int) -> int:
    """Validate a configured capacity (negative = configuration error)."""
    if capacity_bytes < 0:
        raise ConfigError(
            f"lut_cache_bytes must be >= 0 (0 disables), got {capacity_bytes}"
        )
    return capacity_bytes
