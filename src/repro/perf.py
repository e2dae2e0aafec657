"""Host wall-clock microbenchmarks: looped vs grouped kernel execution.

Everything else in this repo measures *modeled* seconds; this module is
the one place that reads the host clock.  It times the functional
execution path — the Python/NumPy work the simulator actually performs
per batch — under the reference per-pair loop (``kernel_mode="looped"``)
and the vectorized grouped path (``kernel_mode="grouped"``), on the
standard batch shapes:

* the Figure-16 batch-size sweep shape (paper nprobe=64, k=10,
  batch sizes 10/100/1000, 64 simulated DPUs), and
* a tiny ``--quick`` subset CI can afford to run on every push.

Each case reports three wall-clock numbers: ``looped_s`` (best of
``repeats`` runs of the loop path), ``grouped_cold_s`` (first grouped
run after the cross-batch caches are cleared) and ``grouped_warm_s``
(best of ``repeats`` repeat-traffic runs, where the LUT cache hits).
Both engines must return bit-identical ids/distances — the harness
asserts this before trusting any timing.

Results are emitted as schema-versioned ``repro.perf/v1`` records
(:func:`repro.telemetry.schema.make_perf_record`); speedups are ratios
of wall-clock sums, so records stay comparable across machines and CI
can gate on them (:func:`compare_to_baseline`).

Run via the CLI::

    python -m repro.cli perf --quick              # CI smoke subset
    python -m repro.cli perf --out BENCH_perf.json
    python -m repro.cli perf --quick --baseline BENCH_perf.json
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import BatchResult, UpANNSEngine
from repro.data.skew import zipf_weights
from repro.data.synthetic import SIFT1B, make_dataset, make_queries
from repro.errors import ConfigError
from repro.hardware.specs import PimSystemSpec
from repro.ivfpq import IVFPQIndex
from repro.telemetry.log import get_logger
from repro.telemetry.schema import make_perf_record

log = get_logger()

#: LUT-cache capacity used for the sweeps.  The fig16 shape's working
#: set (500+ queries x 64 probed clusters) does not fit the 64 MB
#: service default, so the harness sizes the cache to hold it — the
#: capacity is recorded in the emitted record's config.
LUT_CACHE_BYTES = 1 << 30

#: How many vectors of a corpus feed k-means training.
_N_TRAIN_MAX = 20_000


@dataclass(frozen=True)
class PerfCase:
    """One timed batch shape (corpus geometry + batch size)."""

    name: str
    batch_size: int
    dim: int = 64
    m: int = 8
    n_clusters: int = 128
    n_vectors: int = 40_000
    nprobe: int = 64
    k: int = 10
    chips_per_dimm: int = 8  # 8 DPUs/chip -> 64 DPUs at the default

    @property
    def n_dpus(self) -> int:
        return self.chips_per_dimm * 8

    @property
    def setup_key(self) -> tuple:
        """Cases sharing this key share one corpus/index/engine pair."""
        return (
            self.dim,
            self.m,
            self.n_clusters,
            self.n_vectors,
            self.nprobe,
            self.k,
            self.chips_per_dimm,
        )

    def shape(self) -> dict[str, int]:
        return {
            "batch_size": self.batch_size,
            "dim": self.dim,
            "m": self.m,
            "n_clusters": self.n_clusters,
            "n_vectors": self.n_vectors,
            "nprobe": self.nprobe,
            "k": self.k,
            "n_dpus": self.n_dpus,
        }


def _quick(name: str, batch_size: int) -> PerfCase:
    return PerfCase(
        name,
        batch_size,
        dim=32,
        m=8,
        n_clusters=32,
        n_vectors=4_000,
        nprobe=8,
        k=5,
        chips_per_dimm=2,  # 16 DPUs
    )


#: CI smoke subset: small enough to run on every push.
QUICK_CASES: tuple[PerfCase, ...] = (
    _quick("quick_bs32", 32),
    _quick("quick_bs64", 64),
)

#: Figure-16 batch-size sweep at the paper's nprobe=64.
FIG16_CASES: tuple[PerfCase, ...] = tuple(
    PerfCase(f"fig16_bs{bs}", bs) for bs in (10, 100, 1000)
)

#: The full suite includes the quick cases so a committed full record
#: doubles as the CI baseline for ``--quick`` runs (cases match by name).
FULL_CASES: tuple[PerfCase, ...] = QUICK_CASES + FIG16_CASES


@dataclass
class _Setup:
    """Shared fixtures for every case with the same :attr:`setup_key`."""

    queries_for: Callable[[int, int], np.ndarray]
    looped: UpANNSEngine
    grouped: UpANNSEngine


def _build_setup(case: PerfCase, seed: int, lut_cache_bytes: int) -> _Setup:
    rng = np.random.default_rng(seed)
    spec = replace(SIFT1B, dim=case.dim, pq_m=case.m)
    dataset = make_dataset(
        spec, case.n_vectors, n_components=32, correlated_subspaces=4, rng=rng
    )
    popularity = zipf_weights(32, 0.6)
    history = make_queries(dataset, 500, popularity=popularity, rng=rng)
    index = IVFPQIndex(case.dim, case.n_clusters, case.m)
    index.train(
        dataset.vectors[:_N_TRAIN_MAX],
        n_iter=4,
        rng=np.random.default_rng(seed),
    )
    index.add(dataset.vectors)

    def queries_for(batch_size: int, case_seed: int) -> np.ndarray:
        return make_queries(
            dataset,
            batch_size,
            popularity=popularity,
            rng=np.random.default_rng(case_seed),
        )

    def build_engine(mode: str) -> UpANNSEngine:
        cfg = SystemConfig(
            index=IndexConfig(
                dim=case.dim, n_clusters=case.n_clusters, m=case.m, train_iters=4
            ),
            query=QueryConfig(
                nprobe=case.nprobe, k=case.k, batch_size=case.batch_size
            ),
            upanns=UpANNSConfig(
                kernel_mode=mode, lut_cache_bytes=lut_cache_bytes
            ),
            pim=PimSystemSpec(
                n_dimms=1, chips_per_dimm=case.chips_per_dimm, dpus_per_chip=8
            ),
        )
        engine = UpANNSEngine(cfg)
        engine.build(
            dataset.vectors, history_queries=history, prebuilt_index=index
        )
        return engine

    return _Setup(
        queries_for=queries_for,
        looped=build_engine("looped"),
        grouped=build_engine("grouped"),
    )


def _timed(engine: UpANNSEngine, queries: np.ndarray) -> tuple[float, BatchResult]:
    # Same hygiene as ``timeit``: collect up front, keep the collector
    # out of the timed region (the looped path churns ~1e5 small objects
    # per batch, so stray GC pauses otherwise dominate run-to-run noise).
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = engine.search_batch(queries)
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    return elapsed, result


def _best_of(
    engine: UpANNSEngine, queries: np.ndarray, repeats: int
) -> tuple[dict[str, float], BatchResult]:
    """Repeat-timing with variance: {min, median, stdev} + last result.

    CI gates on the median (robust to one noisy repeat on a shared
    runner); ``min`` remains the headline single-batch number.
    """
    samples = []
    elapsed, result = _timed(engine, queries)
    samples.append(elapsed)
    for _ in range(repeats - 1):
        elapsed, result = _timed(engine, queries)
        samples.append(elapsed)
    return {
        "min": min(samples),
        "median": statistics.median(samples),
        "stdev": statistics.stdev(samples) if len(samples) >= 2 else 0.0,
    }, result


def _sustained_qps(
    engine: UpANNSEngine, queries: np.ndarray, rounds: int, *, cold: bool = False
) -> float:
    """Open-loop sustained throughput: ``rounds`` back-to-back batches.

    Each batch is issued the instant the previous one returns; ``cold``
    clears the cross-batch caches before every batch, so cold QPS
    prices the full LUT-build path.
    """
    total = 0.0
    for _ in range(rounds):
        if cold:
            engine.clear_runtime_caches()
        elapsed, _result = _timed(engine, queries)
        total += elapsed
    return rounds * queries.shape[0] / total if total > 0 else 0.0


def _check_equivalent(case: PerfCase, looped: BatchResult, grouped: BatchResult) -> None:
    """The grouped path must be bit-identical to the loop it replaces."""
    if not np.array_equal(looped.ids, grouped.ids) or not np.array_equal(
        looped.distances, grouped.distances
    ):
        raise ConfigError(
            f"perf case {case.name!r}: grouped results differ from looped — "
            "refusing to time a wrong kernel"
        )


def run_case(
    case: PerfCase,
    setup: _Setup,
    *,
    repeats: int,
    seed: int,
) -> dict[str, Any]:
    """Time one batch shape; returns a perf-record case dict.

    Beyond the classic best-of latency triple, each case carries
    per-repeat variance (``*_stats`` with min/median/stdev — CI gates on
    ``speedup_warm_median``) and open-loop sustained throughput
    (``qps_warm`` / ``qps_cold``).
    """
    queries = setup.queries_for(case.batch_size, seed + case.batch_size)
    looped_stats, r_looped = _best_of(setup.looped, queries, repeats)
    looped_s = looped_stats["min"]

    # Cold = first grouped run with every cross-batch cache empty.
    grouped = setup.grouped
    grouped.clear_runtime_caches()
    cold_s, r_cold = _timed(grouped, queries)
    warm_stats, r_warm = _best_of(grouped, queries, repeats)
    warm_s = warm_stats["min"]

    _check_equivalent(case, r_looped, r_cold)
    _check_equivalent(case, r_looped, r_warm)

    # Open-loop sustained throughput on the serving (grouped) path.
    qps_warm = _sustained_qps(grouped, queries, repeats)
    qps_cold = _sustained_qps(grouped, queries, repeats, cold=True)

    case_record = {
        "name": case.name,
        "shape": case.shape(),
        "repeats": repeats,
        "looped_s": looped_s,
        "grouped_cold_s": cold_s,
        "grouped_warm_s": warm_s,
        "looped_stats": looped_stats,
        "grouped_warm_stats": warm_stats,
        "speedup_cold": looped_s / cold_s if cold_s > 0 else 0.0,
        "speedup_warm": looped_s / warm_s if warm_s > 0 else 0.0,
        "speedup_warm_median": (
            looped_stats["median"] / warm_stats["median"]
            if warm_stats["median"] > 0
            else 0.0
        ),
        "qps_warm": qps_warm,
        "qps_cold": qps_cold,
    }
    log.info(
        "perf.case",
        name=case.name,
        looped_s=round(looped_s, 4),
        cold_s=round(cold_s, 4),
        warm_s=round(warm_s, 4),
        speedup_warm=round(case_record["speedup_warm"], 2),
        qps_warm=round(qps_warm, 1),
    )
    return case_record


def _mode_for(cases: tuple[PerfCase, ...]) -> str:
    """The mode actually run, derived from the case tuple itself.

    The config block used to hard-code ``"full"`` whenever explicit
    cases were passed (and the CLI's record always said full even under
    ``--quick``); deriving it from the cases makes the record honest for
    every entry point.
    """
    if cases == QUICK_CASES:
        return "quick"
    if cases == FULL_CASES:
        return "full"
    return "custom"


def run_perf(
    cases: tuple[PerfCase, ...] | None = None,
    *,
    quick: bool = False,
    repeats: int = 3,
    seed: int = 0,
    lut_cache_bytes: int = LUT_CACHE_BYTES,
) -> dict[str, Any]:
    """Run a case suite and assemble one ``repro.perf/v1`` record."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if cases is None:
        cases = QUICK_CASES if quick else FULL_CASES
    mode = _mode_for(cases)
    setups: dict[tuple, _Setup] = {}
    case_records = []
    for case in cases:
        if case.setup_key not in setups:
            log.info("perf.setup", case=case.name, n_vectors=case.n_vectors)
            setups[case.setup_key] = _build_setup(case, seed, lut_cache_bytes)
        case_records.append(
            run_case(case, setups[case.setup_key], repeats=repeats, seed=seed)
        )
    config: dict[str, Any] = {
        "mode": mode,
        "repeats": repeats,
        "seed": seed,
        "lut_cache_bytes": lut_cache_bytes,
        # Recorded so a committed baseline's timings are interpretable.
        "host_cpus": os.cpu_count() or 1,
    }
    return make_perf_record(
        name="perf_quick" if mode == "quick" else "perf",
        config=config,
        cases=case_records,
    )


def compare_to_baseline(
    record: dict[str, Any],
    baseline: dict[str, Any],
    *,
    max_regression: float = 2.0,
) -> list[str]:
    """Regression failures against a committed baseline (empty = pass).

    Cases match by name, so a ``--quick`` run gates against the quick
    cases embedded in the committed full record.  The gated quantity is
    ``speedup_warm_median`` when both records carry it (robust to one
    noisy repeat on a shared runner), falling back to the min-based
    ``speedup_warm`` for pre-variance baselines — either way a
    wall-clock *ratio* measured on one machine, so the check is
    insensitive to how fast the CI runner is.  A case fails when its
    speedup falls below ``baseline / max_regression``, or when the
    baseline records sustained throughput (``qps_warm``/``qps_cold``)
    and the fresh record dropped those fields.
    """
    if max_regression <= 1.0:
        raise ConfigError("max_regression must be > 1.0")
    baseline_cases = {
        c.get("name"): c
        for c in baseline.get("cases", [])
        if isinstance(c, dict)
    }
    failures: list[str] = []
    matched = 0
    for case in record.get("cases", []):
        base = baseline_cases.get(case.get("name"))
        if base is None:
            continue
        matched += 1
        gate = "speedup_warm"
        if "speedup_warm_median" in base and "speedup_warm_median" in case:
            gate = "speedup_warm_median"
        floor = float(base[gate]) / max_regression
        if float(case[gate]) < floor:
            failures.append(
                f"case {case['name']!r}: {gate} "
                f"{case[gate]:.2f}x fell below {floor:.2f}x "
                f"(baseline {base[gate]:.2f}x / {max_regression:g})"
            )
        for qps_field in ("qps_warm", "qps_cold"):
            if qps_field in base and qps_field not in case:
                failures.append(
                    f"case {case['name']!r}: baseline records {qps_field} "
                    "but the fresh record does not — sustained-throughput "
                    "coverage regressed"
                )
    if not matched:
        failures.append("no case names in common with the baseline record")
    return failures
