"""Asymmetric distance computation (paper stage c).

The approximate distance between a query and an encoded point is the sum
of M lookup-table entries selected by the point's codes.  This is the
memory-bound stage that dominates billion-scale CPU runtime (99.5 % in
Figure 19) and that UpANNS moves into the DPUs.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import ConfigError


def adc_distances(codes: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Sum LUT entries per encoded point: (s, m) codes x (m, ksub) LUT -> (s,).

    Vectorized as a take-along-axis gather; the simulator charges the DPU
    cost model separately (one WRAM load + add per element on-device).
    """
    codes = np.atleast_2d(codes)
    if codes.shape[1] != lut.shape[0]:
        raise ConfigError(
            f"codes have {codes.shape[1]} sub-codes but LUT has {lut.shape[0]} rows"
        )
    # lut.T[codes[:, m], m] gathered per column then summed: implement as
    # flat gather, which is a single indexed read.
    ksub = lut.shape[1]
    flat = lut.reshape(-1)  # row-major: sub * ksub + code
    offsets = np.arange(codes.shape[1], dtype=np.int64) * ksub
    idx = codes.astype(np.int64) + offsets[None, :]
    return flat[idx].sum(axis=1, dtype=np.float32)


def adc_distances_direct(addresses: np.ndarray, flat_table: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """ADC over *direct-address* encodings (paper section 4.3).

    Co-occurrence-aware encoding stores, per vector, a variable-length
    list of direct addresses into a flat table = [LUT entries | cached
    partial sums].  ``addresses`` is (s, max_len) int32 padded with -1;
    ``lengths`` gives the live prefix per row.
    """
    addresses = np.atleast_2d(addresses)
    mask = np.arange(addresses.shape[1])[None, :] < lengths[:, None]
    safe = np.where(mask, addresses, 0)
    vals = flat_table[safe]
    vals = np.where(mask, vals, 0.0)
    return vals.sum(axis=1, dtype=np.float32)


# NumPy's float pairwise summation (``pairwise_sum`` in its loops):
# rows shorter than 8 add left to right, rows up to 128 keep eight
# strided accumulators, longer rows split recursively.
_PAIRWISE_BLOCK = 128


def lane_sum(lane: Callable[[int], np.ndarray], width: int) -> np.ndarray:
    """Sum ``lane(0) .. lane(width - 1)`` in ``np.add.reduce``'s order.

    ``lane(w)`` returns a fresh float array holding element w of every
    row, all lanes of one dtype.  The result equals
    ``np.add.reduce(rows, axis=-1, dtype=<that dtype>)`` bit for bit:
    the same pairwise tree, then the reduction's 0.0 initial value
    added last (it turns an all-(-0.0) sum into +0.0).  Summing whole
    lanes instead of W-wide rows spares the reduction loop's per-row
    overhead.  Lanes are produced on demand, so at most nine are alive
    at once (four when ``width`` < 16).
    """
    res = _pairwise(lane, 0, width)
    res += 0.0
    return res


def _pairwise(lane: Callable[[int], np.ndarray], lo: int, n: int) -> np.ndarray:
    if n < 8:
        res = lane(lo)
        for i in range(lo + 1, lo + n):
            res += lane(i)
        return res
    if n <= _PAIRWISE_BLOCK:
        full = n - n % 8
        if full == 8:
            res = _octet(lane, lo)
        else:
            acc = [lane(lo + j) for j in range(8)]
            for i in range(lo + 8, lo + full, 8):
                for j in range(8):
                    acc[j] += lane(i + j)
            res = _octet(acc.__getitem__, 0)
        for i in range(lo + full, lo + n):
            res += lane(i)
        return res
    n2 = n // 2
    n2 -= n2 % 8
    res = _pairwise(lane, lo, n2)
    res += _pairwise(lane, lo + n2, n - n2)
    return res


def _octet(lane: Callable[[int], np.ndarray], lo: int) -> np.ndarray:
    """``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` over
    ``r_j = lane(lo + j)``, accumulated in place."""
    a = lane(lo)
    a += lane(lo + 1)
    b = lane(lo + 2)
    b += lane(lo + 3)
    a += b
    b = lane(lo + 4)
    b += lane(lo + 5)
    c = lane(lo + 6)
    c += lane(lo + 7)
    b += c
    a += b
    return a


def topk_from_distances(
    ids: np.ndarray, distances: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact smallest-k selection -> (ids, distances) sorted ascending."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    n = distances.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    k_eff = min(k, n)
    part = np.argpartition(distances, k_eff - 1)[:k_eff]
    order = part[np.argsort(distances[part], kind="stable")]
    return ids[order], distances[order]
