"""Per-pair reference distance rows and the full-row kernel path, as
oracles for the grouped kernel's top-k candidates.

Oracles compute one array per (query, cluster) distance row; the
grouped kernel reads each pair's top-k candidates from rows of a k-wide
slab (:class:`BatchCandidates`).
"""

from __future__ import annotations

import numpy as np

from repro.core.lut_cache import BatchCandidates
from repro.core.topk import scan_topk_fast_batch_flat
from repro.ivfpq.adc import adc_distances, adc_distances_direct


def oracle_distances(payload, table: np.ndarray) -> np.ndarray:
    """One pair's distance row by the per-pair ADC scan of ``payload``
    against its table (a CAE table without its sentinel)."""
    if payload.is_cae:
        enc = payload.encoded
        return adc_distances_direct(enc.addresses, table, enc.lengths.astype(np.int64))
    return adc_distances(payload.codes, table)


def oracle_row_topk(row: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One row's candidates: its first k entries in (value, column)
    order, as values and int32 columns, in column order."""
    top = np.sort(np.argsort(row, kind="stable")[:k])
    return row[top], top.astype(np.int32)


def as_batch_candidates(
    rows: dict[int, dict[int, np.ndarray]], k: int, cut=oracle_row_topk
) -> BatchCandidates:
    """``rows[q][c]`` cut to their candidates by ``cut(row, k)`` as rows
    of one k-wide slab, one row per pair (padding past a short row is
    NaN and column -1, which the kernel must never read)."""
    pairs = [(q, c) for q, per_q in rows.items() for c in per_q]
    values = np.full((len(pairs), k), np.nan, dtype=np.float32)
    cols = np.full((len(pairs), k), -1, dtype=np.int32)
    for i, (q, c) in enumerate(pairs):
        v, col = cut(rows[q][c], k)
        values[i, : v.shape[0]] = v
        cols[i, : col.shape[0]] = col
    q_max, c_max = np.max(np.array(pairs, dtype=np.intp).reshape(-1, 2), axis=0, initial=-1)
    row = np.full((q_max + 1, c_max + 1), -1, dtype=np.intp)
    for i, (q, c) in enumerate(pairs):
        row[q, c] = i
    return BatchCandidates(values=values, cols=cols, row=row)


def row_survivors(dists: np.ndarray, k: int) -> np.ndarray:
    """Flat (row-major) indices of every entry no larger than its row's
    k-th smallest value — a superset of each row's top-k under any
    tie-break."""
    n_rows, width = dists.shape
    if width <= k:
        return np.arange(n_rows * width, dtype=np.int64)
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
    return np.flatnonzero(dists <= kth[:, None])


def full_row_groups(worklist, payloads, rows, k, n_tasklets, *, prune=True):
    """The grouped kernel over whole distance rows, as it ran before
    entries became top-k candidates: per cluster, its pairs' rows taken
    from a stack of every query's row with one ``np.take``, cut to their
    :func:`row_survivors`, laid out group by group, then one
    :func:`scan_topk_fast_batch_flat`.
    ``rows[q][c]`` is a pair's distance row, ``payloads[c]`` cluster c's
    payload."""
    pair_group = worklist.pair_group
    pair_query = worklist.group_query[pair_group]
    clusters, inverse = np.unique(worklist.pair_cluster, return_inverse=True)
    sizes = np.array([payloads[c].size for c in clusters.tolist()], dtype=np.int64)
    sizes = sizes[inverse]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    pair_offset = starts - starts[worklist.group_bounds[:-1]][pair_group]
    group_sizes = ends[worklist.group_bounds[1:] - 1] - starts[worklist.group_bounds[:-1]]
    cand_v, cand_i = [np.empty(0, dtype=np.float32)], [np.empty(0, dtype=np.int64)]
    cand_g, cand_p = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for j, c in enumerate(clusters.tolist()):
        pairs = np.flatnonzero(inverse == j)
        queries = sorted(q for q in rows if c in rows[q])
        stack = np.stack([rows[q][c] for q in queries])
        block = np.take(stack, np.searchsorted(queries, pair_query[pairs]), axis=0)
        flat = row_survivors(block, k)
        r, cols = np.divmod(flat, block.shape[1])
        pair = pairs[r]
        cand_v.append(block.reshape(-1)[flat])
        cand_i.append(payloads[c].ids[cols])
        cand_g.append(pair_group[pair])
        cand_p.append(pair_offset[pair] + cols)
    group, pos = np.concatenate(cand_g), np.concatenate(cand_p)
    # Labelled input comes group by group, in scan position order.
    layout = np.lexsort((pos, group))
    return scan_topk_fast_batch_flat(
        np.concatenate(cand_v)[layout],
        np.concatenate(cand_i)[layout],
        group_sizes,
        k,
        n_tasklets,
        prune=prune,
        supplied=np.bincount(group, minlength=group_sizes.shape[0]),
        pos=pos[layout],
    )
