"""Worker-process entry points for the parallel DPU-group executor.

Each pool worker is initialized once with read-only shared-memory views
of the index (codebooks, centroids, every cluster payload array) and
then serves tasks that carry only *small* per-batch data: query rows and
a :class:`~repro.core.kernel.BatchWorklist` over a chunk of DPUs.  The worker rebuilds the functional
tables locally — LUT values are pure functions of (codebooks, query,
centroid), so they are bit-identical to the parent's — and runs the pure
half of the grouped kernel (:func:`~repro.core.kernel.
compute_groups_functional`).  Charges never happen here: the parent
replays them from the returned top-k and group sizes.

Module state is a single ``_STATE`` slot assigned by :func:`init_worker`
(simlint rule PAR001 bans any other module-level mutable state on the
paths reachable from :func:`run_task`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.cooccurrence import partial_sums_from_packed
from repro.core.encoding import EncodedCluster
from repro.core.kernel import BatchWorklist, ClusterPayload, compute_groups_functional
from repro.core.lut_cache import LutCache, query_digest
from repro.errors import ConfigError
from repro.ivfpq.lut import build_luts_for_probes
from repro.ivfpq.pq import ProductQuantizer
from repro.telemetry.registry import MetricsRegistry

#: Sentinel task that kills the worker process mid-pool — the crash-path
#: test uses it to assert the executor surfaces a clean ExecutorError.
CRASH_TASK = "__crash_worker__"

#: One task: (epoch, version, k, n_tasklets, prune, worklist, queries,
#: probes) with the worklist's queries renumbered to slots into
#: ``queries`` (the (n, dim) float32 rows) and probes the per-slot
#: *full* probed-cluster list of each query in this batch.
Task = tuple[int, int, int, int, bool, BatchWorklist, np.ndarray, list]


@dataclass
class _WorkerState:
    """Everything a worker keeps between tasks."""

    shm: object  # keeps the attached segment (and every view) alive
    pq: ProductQuantizer
    centroids: np.ndarray
    payloads: dict[int, ClusterPayload]
    # cluster id -> (pos, codes, slots, n_slots) for CAE flat tables.
    combos: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, int]]
    # Private LUT cache: same keying as the engine's, but counting into
    # a detached registry so worker-side hits never skew the parent's
    # repro_lut_cache_* telemetry (bit-identical counters across
    # backends are part of the equivalence contract).
    tables: LutCache
    epoch: int = -1


_STATE = None  # per-process singleton, assigned once by init_worker


def init_worker(shm_name: str, manifest: dict, meta: dict) -> None:
    """Pool initializer: attach shared memory and rebuild the index view."""
    from repro.parallel.shm import attach_arrays

    global _STATE
    shm, views = attach_arrays(shm_name, manifest)
    pq_meta = meta["pq"]
    pq = ProductQuantizer(
        dim=pq_meta["dim"], m=pq_meta["m"], nbits=pq_meta["nbits"]
    )
    pq.codebooks = views["codebooks"]
    payloads: dict[int, ClusterPayload] = {}
    combos: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, int]] = {}
    for p in meta["payloads"]:
        c = p["cluster_id"]
        if p["kind"] == "plain":
            payloads[c] = ClusterPayload(
                cluster_id=c, ids=views[f"c{c}:ids"], codes=views[f"c{c}:codes"]
            )
        else:
            payloads[c] = ClusterPayload(
                cluster_id=c,
                ids=views[f"c{c}:ids"],
                encoded=EncodedCluster(
                    addresses=views[f"c{c}:addr"],
                    lengths=views[f"c{c}:len"],
                    m=p["m"],
                    n_slots=p["n_slots"],
                ),
            )
            combos[c] = (
                views[f"c{c}:cpos"],
                views[f"c{c}:ccodes"],
                views[f"c{c}:cslots"],
                p["n_slots"],
            )
    _STATE = _WorkerState(
        shm=shm,
        pq=pq,
        centroids=views["centroids"],
        payloads=payloads,
        combos=combos,
        tables=LutCache(meta["lut_cache_bytes"], registry=MetricsRegistry()),
    )


def _build_table(state: _WorkerState, c: int, lut: np.ndarray) -> np.ndarray:
    """The functional table for cluster ``c``, in its own allocation (the
    cache's byte cap must bound what it keeps alive): a copy of the LUT
    for a plain cluster, flat [LUT | partial sums] for a CAE cluster —
    the exact operation sequence of
    :func:`repro.core.encoding.build_flat_table`."""
    combo = state.combos.get(c)
    if combo is None:
        return lut.copy()
    pos, codes, slots, n_slots = combo
    sums = partial_sums_from_packed(lut, pos, codes, slots, n_slots)
    return np.concatenate([lut.reshape(-1).astype(np.float32), sums])


def _tables_for_task(
    state: _WorkerState,
    slots: list[int],
    queries: np.ndarray,
    probes: list,
    version: int,
) -> dict[int, dict[int, np.ndarray]]:
    """Per-(query slot, cluster) tables, via the worker's private cache.

    A query's cache misses are rebuilt in one vectorized LUT call.  A
    LUT's bits do not depend on which other rows share its stack
    (:meth:`~repro.ivfpq.pq.ProductQuantizer.compute_luts`), so the
    rebuilt tables equal the parent's whatever the worker has cached.
    """
    tables: dict[int, dict[int, np.ndarray]] = {}
    for qloc in slots:
        digest = query_digest(queries[qloc])
        cluster_ids = [int(c) for c in probes[qloc]]
        per_q: dict[int, np.ndarray] = {}
        tables[qloc] = per_q
        cached = state.tables.get_many([(digest, c, version) for c in cluster_ids])
        missing = []
        for c, hit in zip(cluster_ids, cached):
            if hit is None:
                missing.append(c)
            else:
                per_q[c] = hit
        if not missing:
            continue
        luts = build_luts_for_probes(
            state.pq,
            queries[qloc],
            state.centroids,
            np.asarray(missing, dtype=np.int64),
        )
        for j, c in enumerate(missing):
            table = _build_table(state, c, luts[j])
            per_q[c] = table
            state.tables.put((digest, c, version), table)
    return tables


def run_task(task):
    """Execute one chunk of DPU worklists; return its
    :class:`~repro.core.topk.GroupTopK` (plain arrays, cheap to pickle).
    """
    if task == CRASH_TASK:
        os._exit(13)
    state = _STATE
    if state is None:  # pragma: no cover - init_worker always ran
        raise ConfigError("worker used before init_worker")
    epoch, version, k, n_tasklets, prune, worklist, queries, probes = task
    if state.epoch != epoch:
        # The parent cleared its cross-batch caches (or this is the
        # first task after a rebuild): drop ours so cold stays cold.
        state.tables.clear()
        state.epoch = epoch
    tables = _tables_for_task(
        state, np.unique(worklist.group_query).tolist(), queries, probes, version
    )
    return compute_groups_functional(
        worklist, state.payloads, tables, k, n_tasklets, prune=prune
    )
