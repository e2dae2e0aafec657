"""Worker-process entry points for the parallel DPU-group executor.

Each pool worker is initialized once with read-only shared-memory views
of the index (codebooks, centroids, every cluster payload array) and
then serves tasks that carry only *small* per-batch data: query rows and
a :class:`~repro.core.kernel.BatchWorklist` over a chunk of DPUs.  The
worker builds the functional tables locally with the engine's own table
pass (:func:`~repro.core.engine.build_batch_tables`) over a private
cache — LUT values are pure functions of (codebooks, query, centroid),
so they are bit-identical to the parent's — and runs the pure half of
the grouped kernel (:func:`~repro.core.kernel.compute_groups_functional`).
Charges never happen here: the parent replays them from the returned
top-k and group sizes.

Module state is a single ``_STATE`` slot assigned by :func:`init_worker`
(simlint rule PAR001 bans any other module-level mutable state on the
paths reachable from :func:`run_task`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.encoding import EncodedCluster
from repro.core.engine import build_batch_tables
from repro.core.kernel import BatchWorklist, ClusterPayload, compute_groups_functional
from repro.core.lut_cache import LutCache
from repro.errors import ConfigError
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
    # cluster id -> slot lanes of every CAE cluster's flat tables.
    slot_lanes: dict[int, np.ndarray]
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
    slot_lanes: dict[int, np.ndarray] = {}
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
            if f"c{c}:lanes" in views:
                slot_lanes[c] = views[f"c{c}:lanes"]
    _STATE = _WorkerState(
        shm=shm,
        pq=pq,
        centroids=views["centroids"],
        payloads=payloads,
        slot_lanes=slot_lanes,
        tables=LutCache(meta["lut_cache_bytes"], registry=MetricsRegistry()),
    )


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
    tables, distances = build_batch_tables(
        state.pq,
        state.centroids,
        queries,
        probes,
        state.slot_lanes,
        state.tables,
        version,
        worklist=worklist,
        payloads=state.payloads,
    )
    return compute_groups_functional(
        worklist,
        state.payloads,
        tables,
        k,
        n_tasklets,
        prune=prune,
        distances=distances,
    )
