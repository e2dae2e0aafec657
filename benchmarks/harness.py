"""Shared infrastructure for the per-figure benchmark harnesses.

Scaling methodology (see DESIGN.md section 5 and EXPERIMENTS.md):

* datasets are scaled down 1e9 -> ~6e4 vectors while cluster counts and
  nprobe scale down by the same factor (16x), so per-cluster list
  lengths — restored via ``timing_scale`` — and the nprobe/|C| ratio
  match the paper;
* the PIM system is simulated at 64 DPUs so the clusters-per-DPU ratio
  (4-16) brackets the paper's 4.6-18.3; measured QPS is extrapolated to
  the paper's 896 DPUs linearly, which is the paper's own Figure-20
  methodology (near-linear scaling, verified by bench_fig20);
* CPU and GPU are analytic models over the same probe statistics, so
  their absolute times need no extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.baselines.cpu import CpuEngine
from repro.baselines.gpu import GpuEngine
from repro.baselines.pim_naive import PIM_NAIVE_CONFIG
from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.data import make_dataset, make_queries, zipf_weights
from repro.data.synthetic import DEEP1B, SIFT1B, SPACEV1B, DatasetSpec
from repro.hardware.specs import UPMEM_7_DIMMS
from repro.ivfpq import IVFPQIndex

RESULTS_DIR = Path(__file__).parent / "results"

# When set (``pytest benchmarks --trace-dir <dir>`` or assignment from a
# driver script), every figure run also dumps the Chrome-trace JSON of
# the PIM batches it executed, named ``<figure>.trace.json``.
TRACE_DIR: Path | None = None

# Every ``pim_qps`` call since the last ``save_result`` — the raw
# material for the schema-versioned ``<figure>.json`` result record.
_RESULT_RUNS: list = []

# --- Scaled defaults ---------------------------------------------------------
N_BASE = 60_000  # vectors per synthetic corpus
N_TRAIN = 20_000
TRAIN_ITERS = 4
SCALE_FACTOR = 16  # |C| and nprobe scaled down 16x from the paper
SIM_DPUS = 64  # simulated PIM size (clusters/DPU ratio matches paper)
PAPER_DPUS = UPMEM_7_DIMMS.n_dpus  # 896
EXTRAPOLATION = PAPER_DPUS / SIM_DPUS
N_COMPONENTS = 96
ZIPF_ALPHA = 0.4
N_HISTORY = 3000

PAPER_IVFS = (4096, 8192, 16384)
PAPER_NPROBES = (64, 128, 256)
SIM_IVFS = tuple(v // SCALE_FACTOR for v in PAPER_IVFS)  # 256, 512, 1024
SIM_NPROBES = tuple(v // SCALE_FACTOR for v in PAPER_NPROBES)  # 4, 8, 16
BATCH_SIZE = 400

DATASETS = {"SIFT1B": SIFT1B, "DEEP1B": DEEP1B, "SPACEV1B": SPACEV1B}


def timing_scale(spec_full_scale: int, n: int, sim_clusters: int, paper_clusters: int) -> float:
    """Factor that restores paper-scale inverted-list lengths."""
    paper_list = spec_full_scale / paper_clusters
    sim_list = n / sim_clusters
    return paper_list / sim_list


@dataclass
class Bundle:
    """Everything one (dataset, IVF) evaluation point needs."""

    name: str
    spec: DatasetSpec
    vectors: np.ndarray
    queries: np.ndarray
    history: np.ndarray
    index: IVFPQIndex
    sim_clusters: int
    paper_clusters: int
    scale: float


_CACHE: dict[tuple[str, int], Bundle] = {}
_DATA_CACHE: dict[str, tuple] = {}


def dataset_arrays(name: str):
    """Vectors/queries/history for a dataset, cached per session."""
    if name not in _DATA_CACHE:
        spec = DATASETS[name]
        import zlib

        ds = make_dataset(
            spec,
            N_BASE,
            n_components=N_COMPONENTS,
            size_sigma=1.0,
            correlated_subspaces=4,
            # Stable per-dataset seed (Python's hash() is randomized
            # per process, which would make benches nondeterministic).
            rng=np.random.default_rng(zlib.crc32(name.encode())),
        )
        pop = zipf_weights(N_COMPONENTS, ZIPF_ALPHA)
        history = make_queries(ds, N_HISTORY, popularity=pop, rng=np.random.default_rng(5))
        queries = make_queries(ds, BATCH_SIZE, popularity=pop, rng=np.random.default_rng(6))
        _DATA_CACHE[name] = (ds, queries, history)
    return _DATA_CACHE[name]


def get_bundle(name: str, sim_clusters: int) -> Bundle:
    """Trained bundle for (dataset, cluster count), cached per session."""
    key = (name, sim_clusters)
    if key not in _CACHE:
        ds, queries, history = dataset_arrays(name)
        spec = DATASETS[name]
        index = IVFPQIndex(spec.dim, sim_clusters, spec.pq_m)
        index.train(
            ds.vectors[:N_TRAIN], n_iter=TRAIN_ITERS, rng=np.random.default_rng(0)
        )
        index.add(ds.vectors)
        paper_clusters = sim_clusters * SCALE_FACTOR
        _CACHE[key] = Bundle(
            name=name,
            spec=spec,
            vectors=ds.vectors,
            queries=queries,
            history=history,
            index=index,
            sim_clusters=sim_clusters,
            paper_clusters=paper_clusters,
            scale=timing_scale(spec.full_scale, N_BASE, sim_clusters, paper_clusters),
        )
    return _CACHE[key]


def build_pim_engine(
    bundle: Bundle,
    *,
    nprobe: int,
    k: int = 10,
    naive: bool = False,
    n_dpus: int = SIM_DPUS,
    upanns: UpANNSConfig | None = None,
    batch_size: int = BATCH_SIZE,
) -> UpANNSEngine:
    if upanns is None:
        upanns = PIM_NAIVE_CONFIG if naive else UpANNSConfig()
    cfg = SystemConfig(
        index=IndexConfig(
            dim=bundle.spec.dim,
            n_clusters=bundle.sim_clusters,
            m=bundle.spec.pq_m,
            train_iters=TRAIN_ITERS,
        ),
        query=QueryConfig(nprobe=nprobe, k=k, batch_size=batch_size),
        upanns=upanns,
        pim=UPMEM_7_DIMMS.with_n_dpus(n_dpus),
        timing_scale=bundle.scale,
    )
    engine = UpANNSEngine(cfg)
    engine.build(
        bundle.vectors, history_queries=bundle.history, prebuilt_index=bundle.index
    )
    return engine


def pim_qps(engine: UpANNSEngine, queries: np.ndarray, *, k: int | None = None):
    """Run a batch; return (extrapolated-to-896-DPUs QPS, BatchResult)."""
    result = engine.search_batch(queries, k=k)
    n_sim = engine.config.pim.n_dpus
    qps = result.qps * (PAPER_DPUS / n_sim)
    _RESULT_RUNS.append((qps, result))
    return qps, result


def cpu_engine(bundle: Bundle) -> CpuEngine:
    return CpuEngine(bundle.index, workload_scale=bundle.scale)


def gpu_engine(bundle: Bundle, **kwargs) -> GpuEngine:
    """A100 model for a bundle.

    Timing uses the per-list scale; memory uses the full-corpus scale
    (what must be resident on the device).  DEEP1B-like float corpora
    additionally store re-ranking vectors (PQ12 alone cannot reach the
    benchmark's recall targets), which is what pushes DEEP over the
    80 GB capacity at larger nprobe — the paper's blue-X markers.
    """
    kwargs.setdefault("memory_scale", bundle.spec.full_scale / bundle.vectors.shape[0])
    if bundle.spec.name == "DEEP1B":
        kwargs.setdefault("rerank_bytes_per_vector", 48)
    return GpuEngine(bundle.index, workload_scale=bundle.scale, **kwargs)


def save_result(figure: str, text: str) -> None:
    """Print a figure's regenerated rows and archive them on disk.

    Every figure that ran PIM batches through :func:`pim_qps` also gets
    a schema-versioned machine-readable record, ``<figure>.json``
    (``repro.bench.result/v1``): config, QPS stats over every batch,
    summed stage seconds, the last batch's per-resource utilization and
    critical path, and a registry snapshot.  ``python -m
    repro.telemetry.schema results/<figure>.json`` validates it.

    With :data:`TRACE_DIR` set, also runs every PIM batch's work
    description since the last figure as one sequential stream and
    writes its timeline as ``<figure>.trace.json`` (Chrome-trace /
    Perfetto format) — no per-benchmark code needed.
    """
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{figure}.txt").write_text(text + "\n")
    print(f"\n===== {figure} =====\n{text}\n")
    works = [r.work for _, r in _RESULT_RUNS if r.work is not None]
    if _RESULT_RUNS:
        from repro import telemetry
        from repro.telemetry.pipeline import TIMING_STAGES

        stage_seconds: dict[str, float] = {}
        for _, result in _RESULT_RUNS:
            for stage, attr in TIMING_STAGES:
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + getattr(
                    result.timing, attr
                )
        last_schedule = next(
            (r.schedule for _, r in reversed(_RESULT_RUNS) if r.schedule is not None),
            None,
        )
        if last_schedule is not None:
            record = telemetry.make_result_record(
                name=figure,
                config={
                    "sim_dpus": SIM_DPUS,
                    "paper_dpus": PAPER_DPUS,
                    "extrapolation": EXTRAPOLATION,
                    "n_base": N_BASE,
                    "batch_size": BATCH_SIZE,
                    "scale_factor": SCALE_FACTOR,
                },
                qps_values=[qps for qps, _ in _RESULT_RUNS],
                stage_seconds=stage_seconds,
                utilization=telemetry.utilization_report(last_schedule).to_json(),
                metrics=telemetry.snapshot(),
            )
            path = RESULTS_DIR / f"{figure}.json"
            path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
            print(f"wrote {len(_RESULT_RUNS)} run(s) to {path}")
        _RESULT_RUNS.clear()
    if TRACE_DIR is not None and works:
        from repro.sim import execute_stream

        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        combined = execute_stream(works, overlap="sequential")
        path = TRACE_DIR / f"{figure}.trace.json"
        path.write_text(json.dumps(combined.to_chrome_trace()))
        print(f"wrote {len(works)} batch(es) to {path}")
