"""Pluggable executor backends for the grouped batch kernel.

``parse_executor_spec`` turns the user-facing spec string — ``serial``,
``process``, ``process:N`` — into an :class:`ExecutorSpec`; the engine
runs inline for ``serial`` and drives a :class:`ProcessExecutor` for the
process backends.

The process backend starts a ``ProcessPoolExecutor`` whose workers
attach read-only shared-memory views of the index
(:mod:`repro.parallel.shm`), then fans each batch's worklist out as
at most ``n_workers`` chunk tasks of whole DPUs.  Only query rows and
worklist arrays cross the pipe outbound; only top-k candidate arrays and
heap statistics return.  Results are reassembled into the batch's group
order, so the parent's charge replay — and therefore every ledger,
timing and telemetry byte — is the serial one.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro.core.kernel import BatchWorklist, ClusterPayload
from repro.core.topk import GroupTopK
from repro.errors import ConfigError, ExecutorError
from repro.ivfpq.pq import ProductQuantizer
from repro.parallel.shm import SharedArrayStore
from repro.parallel.worker import CRASH_TASK, init_worker, run_task
from repro.telemetry.pipeline import observe_executor


@dataclass(frozen=True)
class ExecutorSpec:
    """Parsed executor selection: backend kind + worker count."""

    kind: str  # "serial" | "process"
    workers: int = 0


def parse_executor_spec(spec: str | None) -> ExecutorSpec:
    """Parse ``serial`` / ``process`` / ``process:N`` (case-insensitive).

    Bare ``process`` sizes the pool to the host's CPU count; ``None`` or
    an empty string mean serial.
    """
    s = (spec or "serial").strip().lower()
    if s in ("", "serial"):
        return ExecutorSpec(kind="serial")
    if s == "process":
        return ExecutorSpec(kind="process", workers=os.cpu_count() or 1)
    if s.startswith("process:"):
        try:
            workers = int(s.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"invalid executor spec {spec!r}") from None
        if workers < 1:
            raise ConfigError(f"executor needs >= 1 worker, got {workers}")
        return ExecutorSpec(kind="process", workers=workers)
    raise ConfigError(
        f"unknown executor {spec!r}: expected 'serial', 'process' or 'process:N'"
    )


def _pack_index(
    payloads: list[ClusterPayload],
    pq: ProductQuantizer,
    centroids: np.ndarray,
    lut_cache_bytes: int,
) -> tuple[dict[str, np.ndarray], dict]:
    """(shared arrays, picklable meta) describing the whole index."""
    if pq.codebooks is None:
        raise ConfigError("cannot start executor before the PQ is trained")
    arrays: dict[str, np.ndarray] = {
        "codebooks": pq.codebooks,
        "centroids": np.ascontiguousarray(centroids, dtype=np.float32),
    }
    plist = []
    for p in payloads:
        if p.size == 0:
            continue  # never scheduled; don't ship
        c = p.cluster_id
        arrays[f"c{c}:ids"] = p.ids
        if p.codes is not None:
            arrays[f"c{c}:codes"] = p.codes
            plist.append({"cluster_id": c, "kind": "plain"})
            continue
        assert p.encoded is not None
        enc = p.encoded
        arrays[f"c{c}:addr"] = enc.addresses
        arrays[f"c{c}:len"] = enc.lengths
        if p.cooc is not None and p.cooc.n_slots > 0:
            pos, codes, slots = p.cooc._packed_indices()
        else:
            pos = np.empty((0, 0), dtype=np.int64)
            codes = np.empty((0, 0), dtype=np.int64)
            slots = np.empty(0, dtype=np.int64)
        arrays[f"c{c}:cpos"] = pos
        arrays[f"c{c}:ccodes"] = codes
        arrays[f"c{c}:cslots"] = slots
        plist.append(
            {
                "cluster_id": c,
                "kind": "cae",
                "m": enc.m,
                "n_slots": enc.n_slots if p.cooc is not None else 0,
            }
        )
    meta = {
        "pq": {"dim": pq.dim, "m": pq.m, "nbits": pq.nbits},
        "payloads": plist,
        "lut_cache_bytes": int(lut_cache_bytes),
    }
    return arrays, meta


def _chunk_indices(pair_counts: list[int], n_chunks: int) -> list[list[int]]:
    """Deterministic greedy partition: heaviest group first, onto the
    least-loaded chunk (ties: lowest chunk index).  Members are then
    sorted so each task walks its DPUs in ascending order."""
    order = sorted(range(len(pair_counts)), key=lambda i: (-pair_counts[i], i))
    loads = [0] * n_chunks
    chunks: list[list[int]] = [[] for _ in range(n_chunks)]
    for i in order:
        j = loads.index(min(loads))
        chunks[j].append(i)
        loads[j] += pair_counts[i]
    return [sorted(chunk) for chunk in chunks if chunk]


class ProcessExecutor:
    """Process-pool runtime over shared-memory index views."""

    backend = "process"

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ConfigError(f"executor needs >= 1 worker, got {n_workers}")
        self.n_workers = int(n_workers)
        self._store: SharedArrayStore | None = None
        self._pool: ProcessPoolExecutor | None = None

    def start(
        self,
        payloads: list[ClusterPayload],
        pq: ProductQuantizer,
        centroids: np.ndarray,
        *,
        lut_cache_bytes: int = 0,
    ) -> None:
        """Pack the index into shared memory and spin up the pool."""
        if self._pool is not None:
            raise ConfigError("executor already started")
        arrays, meta = _pack_index(payloads, pq, centroids, lut_cache_bytes)
        self._store = SharedArrayStore.create(arrays)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=ctx,
            initializer=init_worker,
            initargs=(self._store.name, self._store.manifest, meta),
        )

    def shutdown(self) -> None:
        """Tear down workers and release the shared segment. Idempotent."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        store = self._store
        self._store = None
        if store is not None:
            store.close()
            store.unlink()

    def compute(
        self,
        worklist: BatchWorklist,
        queries: np.ndarray,
        probes,
        *,
        k: int,
        n_tasklets: int,
        prune: bool,
        version: int,
        epoch: int,
    ) -> GroupTopK:
        """Fan the batch's worklist out by DPU and reassemble it.

        ``probes`` is the batch's per-query live probe list (matrix or
        ragged list, indexable by query index): each shipped query
        carries its *full* ordered probe list so workers rebuild LUTs
        with the exact call composition of the parent's cold build —
        the guarantee that keeps table values bit-identical.

        Returns exactly what
        :func:`~repro.core.kernel.compute_groups_functional` would have
        produced inline, so the caller's charge replay is
        backend-independent.  A dead worker raises
        :class:`~repro.errors.ExecutorError`; the pool is broken
        afterwards and must be shut down by the caller.
        """
        if self._pool is None:
            raise ConfigError("executor not started")
        dpus, dpu_first = np.unique(worklist.group_dpu, return_index=True)
        pair_first = worklist.group_bounds[dpu_first]
        pair_counts = np.diff(
            np.append(pair_first, worklist.group_bounds[-1])
        ).tolist()
        chunks = _chunk_indices(pair_counts, min(self.n_workers, len(dpus)))
        tasks = []
        placed = []
        queries_shipped = 0
        for chunk in chunks:
            sub, groups = worklist.select(dpus[chunk])
            qids, slots = np.unique(sub.group_query, return_inverse=True)
            sub = BatchWorklist(sub.group_dpu, slots, sub.group_bounds, sub.pair_cluster)
            sub_probes = [np.asarray(probes[qi], dtype=np.int64) for qi in qids.tolist()]
            queries_shipped += qids.shape[0]
            placed.append(groups)
            tasks.append(
                (
                    epoch,
                    version,
                    k,
                    n_tasklets,
                    prune,
                    sub,
                    np.ascontiguousarray(queries[qids]),
                    sub_probes,
                )
            )
        try:
            futures = [self._pool.submit(run_task, task) for task in tasks]
            parts = [f.result() for f in futures]
        except BrokenProcessPool as exc:
            raise ExecutorError(
                f"a worker process died mid-batch ({exc}); the pool is "
                "broken and will be rebuilt on the next batch"
            ) from exc
        observe_executor(
            self.backend,
            workers=self.n_workers,
            tasks=len(tasks),
            dpu_groups=len(dpus),
            queries_shipped=queries_shipped,
            max_chunk_pairs=max(
                (sum(pair_counts[i] for i in chunk) for chunk in chunks),
                default=0,
            ),
        )
        return GroupTopK.concat(parts).take(np.argsort(np.concatenate(placed)))

    def inject_crash(self) -> None:
        """Kill one worker mid-pool (test hook for the crash path).

        Submits the crash sentinel and waits; the resulting
        :class:`ExecutorError` propagates to the caller and leaves the
        pool broken, exactly like an organic worker death.
        """
        if self._pool is None:
            raise ConfigError("executor not started")
        try:
            self._pool.submit(run_task, CRASH_TASK).result()
        except BrokenProcessPool as exc:
            raise ExecutorError(f"worker crashed ({exc})") from exc
