"""Per-table reference tables laid out as the grouped kernel reads them.

Oracles build one array per (query, cluster) table; the grouped kernel
reads tables as rows of per-cluster slabs (:class:`BatchTables`).
"""

from __future__ import annotations

import numpy as np

from repro.core.lut_cache import BatchTables


def as_batch_tables(tables: dict[int, dict[int, np.ndarray]]) -> BatchTables:
    """``tables[q][c]`` as slab rows: per cluster, one row per query,
    the flattened table followed by a 0.0 sentinel."""
    query, cluster, row = [], [], []
    by_cluster: dict[int, list[np.ndarray]] = {}
    for q, per_q in tables.items():
        for c, table in per_q.items():
            rows = by_cluster.setdefault(c, [])
            query.append(q)
            cluster.append(c)
            row.append(len(rows))
            rows.append(np.append(table.reshape(-1), np.float32(0.0)))
    return BatchTables(
        slabs={c: np.stack(rows) for c, rows in by_cluster.items()},
        query=np.array(query, dtype=np.int64),
        cluster=np.array(cluster, dtype=np.int64),
        row=np.array(row, dtype=np.intp),
    )
