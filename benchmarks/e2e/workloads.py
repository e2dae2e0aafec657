"""The three workloads, driven from outside the program.

Each workload builds its engine from generated inputs, serves an untimed
warm-up and then repeats a timed *unit* — one ``search_batch`` call or
one ``ServingFrontend.run`` round — until the timed calls add up to the
requested seconds.  Only vectors and queries reach the program; every
call goes through a public API.

The corpus, the index build, the serving capacity calibration and the
warm-up streams use fixed seeds, so every ``--seed`` measures the same
warmed index; the seed varies the timed query and arrival streams.
Run-to-run spread across seeds then comes from the timed streams, not
from a different corpus shape.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.service import OnlineService
from repro.data.skew import zipf_weights
from repro.data.synthetic import SIFT1B, make_dataset, make_queries
from repro.hardware.specs import PimSystemSpec
from repro.sanitize import sanitize_schedule
from repro.serving import (
    STATUS_COMPLETED,
    AdmissionPolicy,
    ArrivalGenerator,
    ServingFrontend,
    TenantConfig,
)
from repro.sim import STAGE_AGGREGATE
from repro.telemetry import get_registry
from repro.workload.batch import BatchGenerator

from .tracer import SETUP_TARGETS, TIMED_TARGETS, Tracer

CORPUS_SEED = 0
#: Seed of the warm-up streams: caches fill the same way for every
#: ``--seed`` (which only seeds the timed streams, never this one).
WARMUP_SEED = 1 << 20
#: Timed engine builds per run (``setup_s`` is their median), after one
#: untimed warm-up build.
SETUP_BUILDS = 3
#: Every this many timed batches one is checked against IVFPQIndex.search.
CHECK_EVERY = 10
#: Tolerance of the engine-vs-reference check (tests/core/test_engine.py).
TOLERANCE = 1e-4


@dataclass(frozen=True)
class Shape:
    """Corpus and engine geometry."""

    n_vectors: int
    dim: int
    n_clusters: int
    nprobe: int
    k: int
    chips_per_dimm: int  # x 8 DPUs per chip
    n_components: int
    correlated_subspaces: int
    history: int
    m: int = 8


#: The Figure-16 corpus (repro.perf's fig16 cases): 64 DPUs, nprobe 64.
FIG16 = Shape(40_000, 64, 128, 64, 10, 8, 32, 4, 500)
#: The ``repro.cli serve`` tiny deployment: 16 DPUs, nprobe 8.
TINY = Shape(4_000, 32, 32, 8, 5, 2, 16, 2, 300)


@dataclass
class Unit:
    """What one timed unit produced."""

    wall_s: float
    ops: int
    #: Queries that reached ``search_batch`` (serving sheds the rest).
    searched: int
    failed: int
    results: list  # BatchResult per search_batch call inside the unit
    modeled: dict = field(default_factory=dict)
    serving: dict = field(default_factory=dict)


Timed = Callable[[Callable[[], object]], tuple[object, float]]


def make_corpus(shape: Shape):
    """(dataset, Zipf popularity, history queries) from the fixed seed."""
    rng = np.random.default_rng(CORPUS_SEED)
    spec = replace(SIFT1B, dim=shape.dim, pq_m=shape.m)
    dataset = make_dataset(
        spec,
        shape.n_vectors,
        n_components=shape.n_components,
        correlated_subspaces=shape.correlated_subspaces,
        rng=rng,
    )
    popularity = zipf_weights(shape.n_components, 0.6)
    history = make_queries(dataset, shape.history, popularity=popularity, rng=rng)
    return dataset, popularity, history


def build_engine(
    shape: Shape,
    dataset,
    history: np.ndarray,
    *,
    batch_size: int,
    lut_cache_bytes: int,
) -> UpANNSEngine:
    cfg = SystemConfig(
        index=IndexConfig(
            dim=shape.dim, n_clusters=shape.n_clusters, m=shape.m, train_iters=4
        ),
        query=QueryConfig(nprobe=shape.nprobe, k=shape.k, batch_size=batch_size),
        upanns=UpANNSConfig(lut_cache_bytes=lut_cache_bytes),
        pim=PimSystemSpec(
            n_dimms=1, chips_per_dimm=shape.chips_per_dimm, dpus_per_chip=8
        ),
    )
    engine = UpANNSEngine(cfg)
    engine.build(
        dataset.vectors,
        history_queries=history,
        rng=np.random.default_rng(CORPUS_SEED),
    )
    return engine


def mismatched_rows(engine, queries, distances, nprobe: int) -> int:
    """Rows whose distances disagree with ``IVFPQIndex.search``."""
    ref = engine.index.search(queries, engine.config.query.k, nprobe)
    got = np.where(np.isfinite(distances), distances, -1)
    want = np.where(np.isfinite(ref.distances), ref.distances, -1)
    ok = np.isclose(got, want, rtol=TOLERANCE, atol=TOLERANCE).all(axis=1)
    return int((~ok).sum())


# --- Closed-loop batch workloads --------------------------------------------


class BatchWorkload:
    """One client calling ``search_batch`` with 100-query batches."""

    lut_cache_bytes = UpANNSConfig().lut_cache_bytes

    def __init__(self, seed: int, smoke: bool):
        self.smoke = smoke
        self.shape = TINY if smoke else FIG16
        self.batch_size = 20 if smoke else 100
        self.min_units = 3 if smoke else 8
        self.dataset, self.popularity, self.history = make_corpus(self.shape)
        self.rng = np.random.default_rng([seed, 1])
        self.warm_rng = np.random.default_rng([WARMUP_SEED, 1])
        self.digest = hashlib.blake2b(digest_size=16)

    def build(self) -> UpANNSEngine:
        return build_engine(
            self.shape,
            self.dataset,
            self.history,
            batch_size=self.batch_size,
            lut_cache_bytes=self.lut_cache_bytes,
        )

    def fresh_queries(self, rng: np.random.Generator) -> np.ndarray:
        return make_queries(
            self.dataset, self.batch_size, popularity=self.popularity, rng=rng
        )

    def unit(self, engine: UpANNSEngine, i: int, timed: Timed) -> Unit:
        queries = self.next_queries()
        result, wall = timed(lambda: engine.search_batch(queries))
        failed = 0
        if i % CHECK_EVERY == 0:
            failed = mismatched_rows(
                engine, queries, result.distances, engine.config.query.nprobe
            )
        if i < self.min_units:
            self.digest.update(float.hex(result.timing.total_s).encode())
            self.digest.update(result.ids.astype("<i8").tobytes())
        return Unit(
            wall_s=wall,
            ops=len(queries),
            searched=len(queries),
            failed=failed,
            results=[result],
            modeled={"queries": len(queries), "total_s": result.timing.total_s},
        )


class WarmBatches(BatchWorkload):
    """Repeat traffic: batches drawn with replacement from a served pool,
    with a LUT cache large enough to hold the pool's tables."""

    lut_cache_bytes = 1 << 30

    def warm_up(self, engine: UpANNSEngine) -> None:
        n = 3 * self.batch_size if self.smoke else 500
        self.pool = make_queries(
            self.dataset, n, popularity=self.popularity, rng=self.warm_rng
        )
        for start in range(0, n, self.batch_size):
            engine.search_batch(self.pool[start : start + self.batch_size])
        # Draws from the pool keep filling the charge memo (keyed by each
        # query's per-DPU cluster group, which depends on the batch it
        # lands in); batch time settles after about 15 draws.
        for _ in range(3 if self.smoke else 15):
            engine.search_batch(self.draw(self.warm_rng))

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.pool[rng.integers(0, len(self.pool), self.batch_size)]

    def next_queries(self) -> np.ndarray:
        return self.draw(self.rng)


class ColdBatches(BatchWorkload):
    """Fresh queries only, default 64 MiB LUT cache: every table is built."""

    def warm_up(self, engine: UpANNSEngine) -> None:
        # Fills the query-independent caches (pair charges, gather
        # plans); the LUT cache keeps missing on the fresh queries.
        for _ in range(2):
            engine.search_batch(self.fresh_queries(self.warm_rng))

    def next_queries(self) -> np.ndarray:
        return self.fresh_queries(self.rng)


# --- Open-loop serving at twice the calibrated capacity ---------------------


class ServeOverload:
    """Two tenants offering 2x capacity through the shedding frontend.

    The ``repro.cli serve`` deployment and tenant mix, rebuilt from
    public APIs.  A unit is one ``ServingFrontend.run`` round over a
    short simulated horizon with its own arrival stream; the engine (its
    access trace, placement and caches) carries over between rounds.
    """

    max_batch = 24
    load = 2.0

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.shape = TINY
        self.horizon_s = 0.01 if smoke else 0.1
        self.min_units = 2
        self.dataset, _popularity, self.history = make_corpus(self.shape)
        self.digest = hashlib.blake2b(digest_size=16)
        self.batches_seen = 0

    def build(self) -> UpANNSEngine:
        engine = build_engine(
            self.shape,
            self.dataset,
            self.history,
            batch_size=self.max_batch,
            lut_cache_bytes=UpANNSConfig().lut_cache_bytes,
        )
        # As repro.cli serve: batches run on the event core that the
        # frontend's stream re-simulation always uses.
        engine.sim_engine = "event"
        return engine

    def warm_up(self, engine: UpANNSEngine) -> None:
        # Capacity from four closed-loop batches on a fixed stream, then
        # one untimed round (round 0) at the offered load.
        service = OnlineService(engine, overlap="sequential")
        calibration = BatchGenerator(
            self.dataset,
            batch_size=self.max_batch,
            rng=np.random.default_rng(CORPUS_SEED),
        )
        totals = [
            service.submit(calibration.next_batch().queries).result.timing.total_s
            for _ in range(4)
        ]
        capacity_qps = self.max_batch / (sum(totals) / len(totals))
        self.tenants = tuple(
            t.scaled(self.load)
            for t in (
                TenantConfig(
                    name="interactive", rate_qps=capacity_qps * 2 / 3, slo_ms=20.0
                ),
                TenantConfig(
                    name="batchy",
                    rate_qps=capacity_qps / 3,
                    burst_factor=4.0,
                    burst_period_s=0.05,
                    burst_duty=0.25,
                ),
            )
        )
        self._frontend(engine).run(self._requests(WARMUP_SEED, 0))

    def _requests(self, seed: int, round_: int):
        generator = ArrivalGenerator(
            tenants=self.tenants,
            seed=seed * 100_000 + round_,
            horizon_s=self.horizon_s,
        )
        query_gens = {
            t.name: BatchGenerator(
                self.dataset,
                batch_size=self.max_batch,
                zipf_alpha=t.zipf_alpha,
                drift_per_batch=t.drift_per_batch,
                rng=np.random.default_rng([seed, round_, i]),
            )
            for i, t in enumerate(self.tenants)
        }
        return generator.generate(query_gens)

    def _frontend(self, engine: UpANNSEngine) -> ServingFrontend:
        service = OnlineService(engine, overlap="sequential")
        return ServingFrontend(
            service,
            self.tenants,
            policy=AdmissionPolicy(shedding=True, max_queue_depth=48),
            max_batch=self.max_batch,
            max_delay_s=0.003,
        )

    def unit(self, engine: UpANNSEngine, i: int, timed: Timed) -> Unit:
        requests = self._requests(self.seed, i + 1)
        frontend = self._frontend(engine)
        result, wall = timed(lambda: frontend.run(requests))
        failed = self._check(engine, result)
        if i < self.min_units:
            for req in result.requests:
                self.digest.update(
                    f"{req.status}|{req.batch}|{req.nprobe}|"
                    f"{float.hex(req.latency_s)}\n".encode()
                )
        totals = result.ledger()["totals"]
        configured = engine.config.query.nprobe
        degraded = {
            r.batch
            for r in result.requests
            if r.status == STATUS_COMPLETED and r.nprobe < configured
        }
        return Unit(
            wall_s=wall,
            ops=len(requests),
            searched=totals["admitted"],
            failed=failed,
            results=[rep.result for rep in result.reports],
            modeled={
                "totals": totals,
                "latencies_ms": result.latencies_ms().tolist(),
            },
            serving={
                "batches": len(result.reports),
                "offered": totals["offered"],
                "admitted": totals["admitted"],
                "shed": totals["shed"],
                "degraded_batches": len(degraded),
                "refreshes": frontend.service.refresh_count,
            },
        )

    def _check(self, engine: UpANNSEngine, result) -> int:
        """Failed requests of one round: all of them when the ledger does
        not conserve or the stream does not sanitize, else the rows of
        every 10th batch that disagree with the reference index."""
        totals = result.ledger()["totals"]
        offered = len(result.requests)
        if offered != totals["offered"] or offered != (
            totals["admitted"] + totals["shed"] + totals["timed_out"]
        ):
            return offered
        if sanitize_schedule(result.schedule):
            return offered
        by_id = {r.trace_id: r for r in result.requests}
        failed = 0
        for report in result.reports:
            due = self.batches_seen % CHECK_EVERY == 0
            self.batches_seen += 1
            if not due:
                continue
            batch = report.result
            agg = [it for it in batch.work.items if it.stage == STAGE_AGGREGATE]
            reqs = [by_id[t] for t in agg[0].trace_ids]
            queries = np.stack([r.query for r in reqs])
            failed += mismatched_rows(
                engine, queries, batch.distances, reqs[0].nprobe
            )
        return failed


WORKLOADS = {
    "warm_bs100": WarmBatches,
    "cold_bs100": ColdBatches,
    "serve_2x": ServeOverload,
}


# --- The run -----------------------------------------------------------------


def _lut_counts() -> tuple[float, float]:
    reg = get_registry()
    out = []
    for name in ("repro_lut_cache_hits_total", "repro_lut_cache_misses_total"):
        family = reg.get(name)
        out.append(sum(c.value for c in family.children()) if family else 0.0)
    return out[0], out[1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """One run of one workload; returns its record (see README.md)."""
    wl = WORKLOADS[name](seed, smoke)
    setup_tracer = Tracer(SETUP_TARGETS) if trace else None
    engine, builds = _set_up(wl, setup_tracer)
    wl.warm_up(engine)
    # Read before the timed phase, whose length depends on the program's
    # speed; set-up and warm-up are the same work for every seed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sizes = engine.index.ivf.cluster_sizes()

    # Timed phase.  A traced run alternates untraced and traced units so
    # the overhead is measured on the same stream under the same load.
    tracer = Tracer(TIMED_TARGETS) if trace else None
    walls = {False: [], True: []}
    ops = {False: 0, True: 0}
    searched = {False: 0, True: 0}
    batch_ms: list[float] = []
    failed = 0
    counts = dict.fromkeys(
        ("pairs", "candidates", "lut_hits", "lut_misses", "batches", "offered",
         "admitted", "shed", "degraded_batches", "refreshes"),
        0,
    )
    modeled: list[dict] = []
    i = 0
    while i < wl.min_units or sum(walls[False]) + sum(walls[True]) < seconds:
        traced = tracer is not None and i % 2 == 1

        def timed(call, traced=traced):
            with tracer.installed() if traced else nullcontext():
                t0 = time.perf_counter()
                return call(), time.perf_counter() - t0

        lut_before = _lut_counts()
        unit = wl.unit(engine, i, timed)
        walls[traced].append(unit.wall_s)
        ops[traced] += unit.ops
        searched[traced] += unit.searched
        failed += unit.failed
        modeled.append(unit.modeled)
        if not traced:
            batch_ms.append(unit.wall_s * 1e3 / len(unit.results))
        else:
            lut_after = _lut_counts()
            counts["lut_hits"] += lut_after[0] - lut_before[0]
            counts["lut_misses"] += lut_after[1] - lut_before[1]
            for result in unit.results:
                for pairs in result.assignment.per_dpu:
                    counts["pairs"] += len(pairs)
                    counts["candidates"] += int(sum(sizes[c] for _q, c in pairs))
            for key, value in unit.serving.items():
                counts[key] += value
        i += 1

    plain_s = sum(walls[False])
    e2e = {
        "qps": _metric(searched[False] / plain_s, "1/s"),
        "batch_ms_p50": _metric(statistics.median(batch_ms), "ms"),
        "setup_s": _metric(statistics.median(builds), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "ops": ops[False] + ops[True],
        "failed_ops": failed,
        "units": i,
        "digest": {"units": wl.min_units, "value": wl.digest.hexdigest()},
        "modeled": _modeled_summary(modeled),
        "metrics": e2e,
        "diagnostics": {
            "batch_ms_p90": {
                "value": float(np.percentile(batch_ms, 90)),
                "unit": "ms",
                "samples": len(batch_ms),
            },
            "requests_per_s": ops[False] / plain_s,
            "setup_builds_s": builds,
        },
        "warnings": [],
    }
    if tracer is None:
        return record
    # Per searched query: serving rounds differ in how many requests they
    # shed, and shed requests cost next to nothing.
    overhead = (sum(walls[True]) / searched[True]) / (plain_s / searched[False]) - 1
    code_bytes = engine.index.m * engine.index.nbits // 8
    record["diagnostics"]["untraced"] = e2e
    record["metrics"] = _per_layer(
        tracer, setup_tracer, sum(walls[True]), sum(builds), counts, code_bytes,
        overhead,
    )
    record["warnings"] = tracer.warnings() + setup_tracer.warnings()
    return record


def _set_up(wl, setup_tracer: Tracer | None) -> tuple[UpANNSEngine, list[float]]:
    """One untimed warm-up build, then timed builds on identical inputs;
    the last engine built is the one served."""
    builds: list[float] = []
    engine = None
    for b in range(1 + SETUP_BUILDS):
        engine = None  # release the previous engine before the next build
        with setup_tracer.installed() if setup_tracer and b else nullcontext():
            t0 = time.perf_counter()
            engine = wl.build()
            builds.append(time.perf_counter() - t0)
    return engine, builds[1:]


def _per_layer(
    tracer: Tracer,
    setup_tracer: Tracer,
    traced_s: float,
    setup_s: float,
    counts: dict,
    code_bytes: int,
    overhead: float,
) -> dict:
    """Layer rows of both tracers plus the work counts of the traced units."""
    metrics = tracer.layer_metrics(traced_s)
    metrics.update(setup_tracer.layer_metrics(setup_s))
    dead = set(tracer.unresolved_layers())

    def work(*layers: str):
        if dead.intersection(layers):
            return None
        return sum(tracer.stats[layer].work for layer in layers)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lut_total = counts["lut_hits"] + counts["lut_misses"]
    metrics.update(
        {
            "core.scheduling.pairs": _metric(counts["pairs"], "count"),
            "core.kernel.candidates": _metric(counts["candidates"], "count"),
            "core.kernel.bytes": _metric(counts["candidates"] * code_bytes, "bytes"),
            "ivfpq.lut.tables": _metric(work("ivfpq.lut"), "count"),
            "core.lut_cache.hit_ratio": _metric(
                ratio(counts["lut_hits"], lut_total), "fraction"
            ),
            "sim.events.spans": _metric(
                work("sim.events.execute", "sim.events.stream"), "count"
            ),
            "serving.batches": _metric(counts["batches"], "count"),
            "serving.batch_size_mean": _metric(
                ratio(counts["admitted"], counts["batches"]), "queries"
            ),
            "serving.shed_ratio": _metric(
                ratio(counts["shed"], counts["offered"]), "fraction"
            ),
            "serving.degraded_batches": _metric(counts["degraded_batches"], "count"),
            "core.service.refreshes": _metric(counts["refreshes"], "count"),
            "trace.overhead": _metric(overhead, "fraction"),
            "trace.coverage": _metric(ratio(tracer.root_s, traced_s), "fraction"),
            "trace.named_share": _metric(
                1 - ratio(tracer.root_self_s, tracer.root_s), "fraction"
            ),
        }
    )
    return metrics


def _modeled_summary(units: list[dict]) -> dict:
    """Modeled (simulated-machine) outputs: printed, never gated."""
    if "total_s" in units[0]:
        total = sum(u["total_s"] for u in units)
        return {"modeled_qps": sum(u["queries"] for u in units) / total}
    totals = {"offered": 0, "admitted": 0, "shed": 0, "timed_out": 0}
    latencies: list[float] = []
    for u in units:
        for key in totals:
            totals[key] += u["totals"][key]
        latencies.extend(u["latencies_ms"])
    p99 = float(np.percentile(latencies, 99)) if latencies else math.nan
    return {"ledger": totals, "modeled_p99_ms": p99}
