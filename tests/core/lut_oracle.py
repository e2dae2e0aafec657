"""The per-key LRU that :class:`repro.core.lut_cache.LutCache` replaced,
kept as an oracle for its bookkeeping.

One ``OrderedDict`` entry per (query digest, cluster, k) key, refreshed
with ``move_to_end`` on a hit and evicted from the front while the byte
total passes the capacity.  Bytes follow the array cache's model: an
entry of k counts ``8k + ROW_OVERHEAD``; a (digest, k) slot counts
``4 * n_clusters + SLOT_OVERHEAD`` while it holds an entry.  An entry
that would not fit an empty cache is not retained.  A new codebook
version clears everything.
"""

from __future__ import annotations

from collections import Counter, OrderedDict

from repro.core.lut_cache import ROW_OVERHEAD, SLOT_OVERHEAD, query_digest

#: Cache key: (query digest, cluster id, k).
Key = tuple[bytes, int, int]


class OracleLutCache:
    def __init__(self, capacity_bytes: int, n_clusters: int):
        self.capacity_bytes = capacity_bytes
        self.slot_bytes = 4 * n_clusters + SLOT_OVERHEAD
        self.entries: OrderedDict[Key, object] = OrderedDict()
        self.slot_entries: Counter[tuple[bytes, int]] = Counter()
        self.nbytes = 0
        self.version: int | None = None
        self.hits = self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    def begin(self, version: int) -> None:
        """Start a batch under codebook ``version``."""
        if version != self.version:
            self.entries.clear()
            self.slot_entries.clear()
            self.nbytes = 0
            self.version = version

    def get_many(self, keys: list[Key]) -> list[bool]:
        """Whether each key is cached, refreshing each hit in order."""
        found = []
        for key in keys:
            hit = key in self.entries
            if hit:
                self.entries.move_to_end(key)
            found.append(hit)
        if self.enabled:
            self.hits += sum(found)
            self.misses += len(found) - sum(found)
        return found

    def put(self, key: Key, payload: object = None) -> list[Key]:
        """Insert a missed key; returns the keys it evicted, oldest
        first."""
        assert key not in self.entries
        slot = (key[0], key[2])
        entry = 8 * key[2] + ROW_OVERHEAD
        size = entry + (0 if self.slot_entries[slot] else self.slot_bytes)
        if not self.enabled or size > self.capacity_bytes:
            return []
        self.entries[key] = payload
        self.slot_entries[slot] += 1
        self.nbytes += size
        evicted = []
        while self.nbytes > self.capacity_bytes:
            old, _ = self.entries.popitem(last=False)
            evicted.append(old)
            old_slot = (old[0], old[2])
            self.nbytes -= 8 * old[2] + ROW_OVERHEAD
            self.slot_entries[old_slot] -= 1
            if not self.slot_entries[old_slot]:
                del self.slot_entries[old_slot]
                self.nbytes -= self.slot_bytes
        return evicted

    def lookup(self, queries, probes, version: int, k: int) -> tuple[list[bool], list[Key]]:
        """One batch as the engine runs it: per query, look its pairs up,
        then insert its misses in probe order.  Returns whether each pair
        (query-major) hit, and the keys evicted, in order."""
        self.begin(version)
        hits, evicted = [], []
        for query, probe in zip(queries, probes):
            digest = query_digest(query) if self.enabled else b""
            keys = [(digest, int(c), k) for c in probe]
            found = self.get_many(keys)
            hits += found
            for key, hit in zip(keys, found):
                if not hit:
                    evicted += self.put(key)
        return hits, evicted
