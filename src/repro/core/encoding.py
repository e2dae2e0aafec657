"""Opt3, encoding half: direct-address re-encoding (section 4.3, Figure 8).

After mining, every vector in a cluster is re-encoded as a sequence of
*direct addresses* into a flat runtime table laid out as::

    [ LUT entries, row-major: pos * 256 + code | cached partial sums ]
      addresses 0 .. 256*M-1                     addresses 256*M ..

* an original code ``c`` at position ``p`` becomes address ``256*p + c``
  (pre-multiplied offline — the paper does this to avoid the DPU's slow
  multiply);
* a mined combination becomes a single address ``256*M + slot`` pointing
  at its cached partial sum.

The re-encoded vector is therefore *shorter* wherever combinations hit:
the paper's example compresses 16 codes to 12 tokens (25 % reduction),
and Figure 14 correlates this length-reduction rate with speedup.

The on-device format additionally stores the shortened length in-band in
the second digit (kept <= 255 to be distinguishable from direct
addresses, which are >= 256 from position 1 onward); helpers
:func:`pack_device_rows` / :func:`unpack_device_rows` implement that
wire format faithfully, while the simulator's hot path uses the
equivalent padded (addresses, lengths) arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from repro.errors import ConfigError
from repro.core.cooccurrence import CooccurrenceModel


@dataclass
class EncodedCluster:
    """CAE output for one cluster."""

    addresses: np.ndarray  # (s, m) int32, -1 padded past each row's length
    lengths: np.ndarray  # (s,) int16 live prefix lengths
    m: int  # original code length
    n_slots: int  # combination slots used by this cluster

    @property
    def size(self) -> int:
        return int(self.addresses.shape[0])

    @property
    def table_size(self) -> int:
        """Entries in the runtime flat table: LUT block + combo slots."""
        return 256 * self.m + self.n_slots

    def length_reduction_rate(self) -> float:
        """1 - mean(encoded length) / m — the Figure 14 x-axis."""
        if self.size == 0:
            return 0.0
        return float(1.0 - self.lengths.mean() / self.m)

    @property
    def nbytes(self) -> int:
        """MRAM footprint: 2 bytes per token plus a 2-byte length."""
        return int(2 * self.lengths.sum() + 2 * self.size)


def encode_cluster(codes: np.ndarray, model: CooccurrenceModel) -> EncodedCluster:
    """Greedy left-to-right re-encoding of a cluster's PQ codes.

    At each position, if the upcoming run is a mined combination we emit
    its combo address and skip the combination's length, else we emit
    the original code's direct address and advance 1.  Vectorized across
    rows: a per-row cursor advances through at most M iterations.
    Supports any (uniform) mined combination length.
    """
    codes = np.atleast_2d(codes)
    n, m = codes.shape
    if n == 0:
        return EncodedCluster(
            addresses=np.empty((0, m), dtype=np.int32),
            lengths=np.empty(0, dtype=np.int16),
            m=m,
            n_slots=model.n_slots,
        )
    if model.m != m:
        raise ConfigError(f"model covers m={model.m}, codes have m={m}")

    lut_block = 256 * m
    combo_len = model.combo_length

    # Per anchor position: sorted packed runs and their slots.
    n_anchors = max(m - combo_len + 1, 0) if combo_len else 0
    match_slot = np.full((n, max(n_anchors, 1)), -1, dtype=np.int32)
    if combo_len:
        from repro.core.cooccurrence import _pack_run

        by_pos: dict[int, list[tuple[int, int]]] = {}
        for combo in model.combos:
            packed = 0
            for code in combo.codes:
                packed = (packed << 8) | code
            by_pos.setdefault(combo.start_pos, []).append((packed, combo.slot))
        for p, entries in by_pos.items():
            entries.sort()
            keys = np.array([e[0] for e in entries], dtype=np.int64)
            slots = np.array([e[1] for e in entries], dtype=np.int32)
            packed = _pack_run(codes, p, combo_len)
            pos_idx = np.searchsorted(keys, packed)
            pos_idx = np.clip(pos_idx, 0, keys.size - 1)
            hit = keys[pos_idx] == packed
            match_slot[hit, p] = slots[pos_idx[hit]]

    addresses = np.full((n, m), -1, dtype=np.int32)
    lengths = np.zeros(n, dtype=np.int64)
    cursor = np.zeros(n, dtype=np.int64)  # next input position per row
    rows = np.arange(n)
    for p in range(m):
        at_p = cursor == p
        if not at_p.any():
            continue
        if combo_len and p <= m - combo_len:
            slot_here = match_slot[:, p]
            combo_rows = at_p & (slot_here >= 0)
        else:
            combo_rows = np.zeros(n, dtype=bool)
        plain_rows = at_p & ~combo_rows

        if combo_rows.any():
            r = rows[combo_rows]
            addresses[r, lengths[r]] = lut_block + slot_here[combo_rows]
            lengths[r] += 1
            cursor[r] += combo_len
        if plain_rows.any():
            r = rows[plain_rows]
            addresses[r, lengths[r]] = 256 * p + codes[plain_rows, p].astype(np.int32)
            lengths[r] += 1
            cursor[r] += 1

    return EncodedCluster(
        addresses=addresses,
        lengths=lengths.astype(np.int16),
        m=m,
        n_slots=model.n_slots,
    )


#: One CAE cluster's rows in a batch table buffer: ``(start, stop,
#: slot lanes)``, the lanes from :meth:`CooccurrenceModel.slot_lanes`.
TableSegment = tuple[int, int, np.ndarray]


@overload
def build_flat_table(lut: np.ndarray, model: CooccurrenceModel) -> np.ndarray:
    ...


@overload
def build_flat_table(
    lut: np.ndarray, model: Sequence[TableSegment], m: int
) -> np.ndarray:
    ...


def build_flat_table(
    lut: np.ndarray,
    model: CooccurrenceModel | Sequence[TableSegment],
    m: int | None = None,
) -> np.ndarray:
    """Runtime flat table = flattened LUT ++ cached partial sums.

    Built per (query, cluster) after LUT construction; the direct
    addresses of :func:`encode_cluster` index straight into it.  Given
    one (m, ksub) ``lut`` and its cluster's ``model``, returns the flat
    table.

    Batch form, in place: ``lut`` is a C-contiguous (rows, width)
    float32 buffer whose first ``m`` * 256 columns hold one flattened
    (m, 256) LUT per row, and ``model`` lists the CAE clusters' row
    segments.  Each row of a segment gets its cluster's partial sums
    right after its LUT, then a 0.0 sentinel (the address a fused
    gather's dead slots point at); rows outside every segment are left
    as they are.  A segment's sums take one gather per combination
    element over all its rows, added in float64 in the order the
    one-LUT form's row sum adds, so every table is bit-identical to the
    one-LUT form.  Returns ``lut``.
    """
    if isinstance(model, CooccurrenceModel):
        if lut.shape[-1] != 256:
            raise ConfigError("direct addressing assumes 256-entry codebooks")
        sums = model.partial_sums(lut)
        return np.concatenate([lut.reshape(-1).astype(np.float32), sums])
    if m is None:
        raise ConfigError("the batch form needs the LUTs' row count m")
    if lut.ndim != 2 or lut.dtype != np.float32 or not lut.flags.c_contiguous:
        raise ConfigError("batch tables must be a C-contiguous 2-D float32 buffer")
    n_rows, width = lut.shape
    size = 256 * m
    for start, stop, lanes in model:
        n_slots = lanes.shape[1]
        if not 0 <= start <= stop <= n_rows:
            raise ConfigError(f"table rows [{start}, {stop}) outside the buffer")
        if size + n_slots >= width:
            raise ConfigError("buffer too narrow for the partial sums and sentinel")
        rows = lut[start:stop]
        if n_slots:
            # A row sum over <= MAX_COMBO_LENGTH (< 8) values is NumPy's
            # sequential one from 0.0, so adding lane by lane into float64
            # zeros matches the one-LUT form's ``sum(axis=1, dtype=float64)``.
            sums = np.zeros((stop - start, n_slots))
            for lane in lanes:
                sums += np.take(rows, lane, axis=1)
            rows[:, size : size + n_slots] = sums
        rows[:, size + n_slots] = 0.0
    return lut


def decode_distances(encoded: EncodedCluster, flat_table: np.ndarray) -> np.ndarray:
    """ADC distances from the re-encoded form (must equal plain ADC)."""
    from repro.ivfpq.adc import adc_distances_direct

    if flat_table.shape[0] != encoded.table_size:
        raise ConfigError(
            f"flat table has {flat_table.shape[0]} entries, "
            f"expected {encoded.table_size}"
        )
    return adc_distances_direct(
        encoded.addresses, flat_table, encoded.lengths.astype(np.int64)
    )


# --- In-band wire format (paper Figure 8, bottom) --------------------------


def pack_device_rows(encoded: EncodedCluster) -> list[np.ndarray]:
    """Pack rows into the paper's on-device layout.

    Rows that contain at least one combination store their shortened
    length in the *second* slot (a value < 256, distinguishable because
    every direct address from position 1 onward is >= 256); full-length
    rows are stored verbatim.  Position-0 addresses are < 256 too, so the
    first token is always unambiguous.
    """
    out: list[np.ndarray] = []
    for row, length in zip(encoded.addresses, encoded.lengths):
        live = row[: int(length)].astype(np.int32)
        if int(length) == encoded.m:
            out.append(live)
        else:
            packed = np.empty(int(length) + 1, dtype=np.int32)
            packed[0] = live[0]
            packed[1] = int(length)
            packed[2:] = live[1:]
            out.append(packed)
    return out


def unpack_device_rows(rows: list[np.ndarray], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_device_rows` -> padded (addresses, lengths)."""
    n = len(rows)
    addresses = np.full((n, m), -1, dtype=np.int32)
    lengths = np.zeros(n, dtype=np.int16)
    for i, packed in enumerate(rows):
        if packed.shape[0] >= 2 and 0 <= int(packed[1]) < 256:
            length = int(packed[1])
            addresses[i, 0] = packed[0]
            addresses[i, 1:length] = packed[2:]
            lengths[i] = length
        else:
            length = packed.shape[0]
            addresses[i, :length] = packed
            lengths[i] = length
    return addresses, lengths
