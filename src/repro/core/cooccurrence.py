"""Opt3, offline half: mining co-occurring code combinations (section 4.3).

Encoded points are codebook indices in [0, 255], so real datasets repeat
element combinations — the paper observes the triplet (1, 15, 26) in
5.7 % of SIFT1B vectors.  UpANNS mines, per cluster, the top-m most
frequent *position-anchored* combinations of length 3 (positions matter:
the cached partial sum of (1, 15, 26) at columns (0, 1, 2) is only valid
there).  Each selected combination is assigned a cache slot whose
partial sum is computed once per (query, cluster) after LUT
construction and reused by every vector containing the combination.

The paper describes the mining through an Element Co-occurrence Graph
(ECG): nodes are (position, code) elements, edge weights count
co-occurrences.  :func:`build_ecg` constructs that graph (via networkx)
for analysis; the production miner :func:`mine_combinations` counts
contiguous position-anchored triples directly with vectorized hashing,
which finds exactly the frequent length-3 paths of the ECG restricted to
adjacent positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Combination:
    """One mined combination: codes anchored at consecutive positions."""

    start_pos: int
    codes: tuple[int, ...]
    count: int
    slot: int  # cache-slot index assigned by the miner

    @property
    def length(self) -> int:
        return len(self.codes)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(range(self.start_pos, self.start_pos + len(self.codes)))


@dataclass
class CooccurrenceModel:
    """The mined combinations of one cluster, slot-indexed."""

    m: int  # sub-quantizer count of the underlying PQ
    combos: list[Combination]
    # Lazily built slot lanes for the vectorized partial-sum gather;
    # rebuilt only if combos change.
    _lanes: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_slots(self) -> int:
        return len(self.combos)

    @property
    def combo_length(self) -> int:
        """Uniform length of the mined combinations (0 if none)."""
        if not self.combos:
            return 0
        lengths = {c.length for c in self.combos}
        if len(lengths) != 1:
            raise ConfigError("mixed combination lengths in one model")
        return next(iter(lengths))

    def slot_lanes(self) -> np.ndarray:
        """(combo_length, n_slots) int32 offsets into a flattened
        (m, 256) LUT: lane i, column j is ``pos * 256 + code`` of slot
        j's i-th element.

        Slots number the combinations 0 .. n_slots - 1 (they are the
        direct addresses past the LUT block), so columns are in slot
        order and the sums need no scatter.
        """
        if self._lanes is None:
            length = self.combo_length
            lanes = np.empty((length, self.n_slots), dtype=np.int32)
            for combo in self.combos:
                pos = np.arange(combo.start_pos, combo.start_pos + length)
                lanes[:, combo.slot] = pos * 256 + np.asarray(combo.codes)
            self._lanes = lanes
        return self._lanes

    def partial_sums(self, lut: np.ndarray) -> np.ndarray:
        """Per-slot partial sums from a freshly built LUT (online step).

        ``lut`` is the (m, ksub) table; slot j caches
        ``sum_i lut[pos_i, code_i]`` for combination j — what the DPU
        stores in its reserved WRAM buffer after Barrier 1.

        Vectorized as one fancy-index gather plus a row sum in float64
        (bit-identical to the scalar loop it replaced: Python-float
        accumulation over <= MAX_COMBO_LENGTH float32 values is the same
        left-to-right float64 chain NumPy uses for short rows).  The
        batch form of :func:`repro.core.encoding.build_flat_table` adds
        the same values lane by lane into float64 zeros, in that order.
        """
        if lut.shape[0] != self.m:
            raise ConfigError(f"LUT rows {lut.shape[0]} != m {self.m}")
        if not self.combos:
            return np.zeros(0, dtype=np.float32)
        rows = self.slot_lanes().T.astype(np.int64)
        vals = lut[rows // 256, rows % 256]
        return vals.sum(axis=1, dtype=np.float64).astype(np.float32)


MAX_COMBO_LENGTH = 7  # packing limit: 7 uint8 codes per int64 key


def _pack_run(codes: np.ndarray, p: int, length: int) -> np.ndarray:
    """Pack codes[:, p:p+length] into one int64 key per row."""
    c = codes.astype(np.int64)
    key = c[:, p]
    for offset in range(1, length):
        key = (key << 8) | c[:, p + offset]
    return key


def _unpack_run(packed: int, length: int) -> tuple[int, ...]:
    return tuple((packed >> (8 * (length - 1 - i))) & 0xFF for i in range(length))


def mine_combinations(
    codes: np.ndarray,
    *,
    top_m: int = 256,
    combo_length: int = 3,
    min_count: int = 2,
) -> CooccurrenceModel:
    """Select the top-m most frequent contiguous code runs in a cluster.

    Counting is fully vectorized: for each anchor position the run is
    packed into one integer and tallied with ``np.unique``.  The paper's
    default is length 3; longer combinations trade more WRAM cache per
    slot for a larger per-hit reduction ("longer combinations can be
    selected if a larger cache size is available", section 4.3).
    """
    if not 2 <= combo_length <= MAX_COMBO_LENGTH:
        raise ConfigError(
            f"combo_length must be in [2, {MAX_COMBO_LENGTH}], got {combo_length}"
        )
    codes = np.atleast_2d(codes)
    n, m = codes.shape
    if m < combo_length or n == 0:
        return CooccurrenceModel(m=m, combos=[])

    candidates: list[tuple[int, int, int]] = []  # (count, start_pos, packed)
    for p in range(m - combo_length + 1):
        packed = _pack_run(codes, p, combo_length)
        values, counts = np.unique(packed, return_counts=True)
        keep = counts >= min_count
        for v, c in zip(values[keep], counts[keep]):
            candidates.append((int(c), p, int(v)))

    # Highest count first; deterministic tie-break on (pos, packed).
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    combos: list[Combination] = []
    for slot, (count, p, packed) in enumerate(candidates[:top_m]):
        combos.append(
            Combination(
                start_pos=p,
                codes=_unpack_run(packed, combo_length),
                count=count,
                slot=slot,
            )
        )
    return CooccurrenceModel(m=m, combos=combos)


def build_ecg(codes: np.ndarray):
    """Element Co-occurrence Graph over (position, code) nodes.

    Edges connect elements at adjacent positions with co-occurrence
    counts as weights — the paper's Figure 8 (top).  Returned as a
    ``networkx.Graph`` for inspection; used by tests to cross-validate
    the fast miner.
    """
    import networkx as nx

    codes = np.atleast_2d(codes)
    _, m = codes.shape
    graph = nx.Graph()
    for p in range(m - 1):
        pairs = codes[:, p].astype(np.int64) * 256 + codes[:, p + 1].astype(np.int64)
        values, counts = np.unique(pairs, return_counts=True)
        for v, c in zip(values, counts):
            a = (p, int(v) // 256)
            b = (p + 1, int(v) % 256)
            if graph.has_edge(a, b):
                graph[a][b]["weight"] += int(c)
            else:
                graph.add_edge(a, b, weight=int(c))
    return graph


def combination_coverage(codes: np.ndarray, model: CooccurrenceModel) -> float:
    """Fraction of vectors containing at least one mined combination."""
    codes = np.atleast_2d(codes)
    n = codes.shape[0]
    if n == 0 or not model.combos:
        return 0.0
    length = model.combo_length
    covered = np.zeros(n, dtype=bool)
    by_pos: dict[int, set[int]] = {}
    for combo in model.combos:
        packed = 0
        for code in combo.codes:
            packed = (packed << 8) | code
        by_pos.setdefault(combo.start_pos, set()).add(packed)
    for p, packs in by_pos.items():
        packed = _pack_run(codes, p, length)
        covered |= np.isin(packed, np.fromiter(packs, dtype=np.int64))
    return float(covered.mean())
