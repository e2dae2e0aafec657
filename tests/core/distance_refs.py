"""Per-pair reference distance rows laid out as the grouped kernel reads
them.

Oracles compute one array per (query, cluster) distance row; the
grouped kernel reads rows of per-cluster slabs (:class:`BatchDistances`).
"""

from __future__ import annotations

import numpy as np

from repro.core.lut_cache import BatchDistances
from repro.ivfpq.adc import adc_distances, adc_distances_direct


def oracle_distances(payload, table: np.ndarray) -> np.ndarray:
    """One pair's distance row by the per-pair ADC scan of ``payload``
    against its table (a CAE table without its sentinel)."""
    if payload.is_cae:
        enc = payload.encoded
        return adc_distances_direct(enc.addresses, table, enc.lengths.astype(np.int64))
    return adc_distances(payload.codes, table)


def as_batch_distances(rows: dict[int, dict[int, np.ndarray]]) -> BatchDistances:
    """``rows[q][c]`` as slab rows: per cluster, one row per query."""
    query, cluster, row = [], [], []
    by_cluster: dict[int, list[np.ndarray]] = {}
    for q, per_q in rows.items():
        for c, distances in per_q.items():
            slab = by_cluster.setdefault(c, [])
            query.append(q)
            cluster.append(c)
            row.append(len(slab))
            slab.append(distances)
    return BatchDistances(
        slabs={c: np.stack(slab) for c, slab in by_cluster.items()},
        query=np.array(query, dtype=np.int64),
        cluster=np.array(cluster, dtype=np.int64),
        row=np.array(row, dtype=np.intp),
    )
