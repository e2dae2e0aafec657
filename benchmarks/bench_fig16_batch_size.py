"""Figure 16: per-query latency vs batch size (10 / 100 / 1000).

Paper shape (IVF4096, nprobe=64): UpANNS has the lowest latency at
every batch size, and its advantage over Faiss-CPU and PIM-naive grows
with the batch size — pre/post-processing overheads amortize and the
scheduler gets more pairs to balance.
"""

import numpy as np
import pytest

from benchmarks.harness import (
    build_pim_engine,
    cpu_engine,
    get_bundle,
    save_result,
)
from repro.analysis.report import render_table
from repro.data import make_queries, zipf_weights
from benchmarks.harness import N_COMPONENTS, PAPER_DPUS, SIM_DPUS, ZIPF_ALPHA, dataset_arrays

BATCH_SIZES = (10, 100, 1000)
NPROBE = 4  # paper nprobe=64 scaled


def run_batch_sweep():
    bundle = get_bundle("SIFT1B", 256)  # paper IVF4096 scaled
    ds, _, _ = dataset_arrays("SIFT1B")
    pop = zipf_weights(N_COMPONENTS, ZIPF_ALPHA)
    cpu = cpu_engine(bundle)
    up = build_pim_engine(bundle, nprobe=NPROBE, batch_size=max(BATCH_SIZES))
    naive = build_pim_engine(bundle, nprobe=NPROBE, naive=True, batch_size=max(BATCH_SIZES))
    rows = []
    for bs in BATCH_SIZES:
        queries = make_queries(ds, bs, popularity=pop, rng=np.random.default_rng(bs))
        lat_cpu = cpu.search_batch(queries, 10, NPROBE, compute_results=False).total_seconds / bs
        r_up = up.search_batch(queries)
        r_naive = naive.search_batch(queries)
        extrap = SIM_DPUS / PAPER_DPUS  # latency shrinks with more DPUs
        lat_up = r_up.timing.total_s / bs * extrap
        lat_naive = r_naive.timing.total_s / bs * extrap
        rows.append([bs, lat_cpu * 1e3, lat_naive * 1e3, lat_up * 1e3])
    return rows


def test_fig16_batch_size(run_once):
    rows = run_once(run_batch_sweep)
    text = render_table(
        ["batch size", "Faiss-CPU ms/q", "PIM-naive ms/q", "UpANNS ms/q"],
        rows,
        title="Figure 16: per-query latency vs batch size (IVF4096, nprobe=64)",
        float_fmt="{:.3f}",
    )
    save_result("fig16_batch_size", text)

    # UpANNS lowest latency once the batch is large enough to feed the
    # DPUs (>= 100; at BS=10 our scaled simulation's per-pair critical
    # path exceeds the CPU's — see EXPERIMENTS.md for the deviation
    # note).  The paper's headline trend — the speedup over both
    # baselines grows with batch size — must hold.
    for _bs, cpu_ms, naive_ms, up_ms in rows[1:]:
        assert up_ms < cpu_ms
        assert up_ms < naive_ms
    speedups_cpu = [r[1] / r[3] for r in rows]
    speedups_naive = [r[2] / r[3] for r in rows]
    assert speedups_cpu == sorted(speedups_cpu)
    assert speedups_naive[-1] > speedups_naive[0]


# --- Overlap modes ----------------------------------------------------------

N_STREAM_BATCHES = 8
STREAM_BS = 100


def run_stream_sweep():
    """Serve one stream of batches, then run it under both overlap modes.

    Double buffering hides batch N+1's host prep + transfer-in behind
    batch N's DPU execution: in one discrete-event run, batch N+1's
    transfer-in queues behind batch N's genuine bus occupancy, so the
    overlap ratio is measured from queuing rather than derived from a
    composition formula.
    """
    from repro.core.service import OnlineService
    from repro.sim import OVERLAP_MODES, execute_stream

    bundle = get_bundle("SIFT1B", 256)
    ds, _, _ = dataset_arrays("SIFT1B")
    pop = zipf_weights(N_COMPONENTS, ZIPF_ALPHA)
    engine = build_pim_engine(bundle, nprobe=NPROBE, batch_size=STREAM_BS)
    service = OnlineService(engine)
    reports = [
        service.submit(
            make_queries(
                ds, STREAM_BS, popularity=pop, rng=np.random.default_rng(1000 + b)
            )
        )
        for b in range(N_STREAM_BATCHES)
    ]
    streams = {
        mode: execute_stream(service.works, overlap=mode) for mode in OVERLAP_MODES
    }
    return reports, streams


def test_fig16_event_overlap(run_once):
    import json

    from benchmarks.harness import RESULTS_DIR
    from repro import telemetry
    from repro.telemetry.pipeline import TIMING_STAGES

    reports, streams = run_once(run_stream_sweep)
    event = {mode: s.makespan for mode, s in streams.items()}
    rows = [
        [mode, event[mode] * 1e3, 1.0 - event[mode] / event["sequential"]]
        for mode in ("sequential", "double_buffer")
    ]
    text = render_table(
        ["overlap mode", "event-queued ms", "overlap ratio"],
        rows,
        title=(
            f"Figure 16 (ext): {N_STREAM_BATCHES} x {STREAM_BS}-query stream, "
            "discrete-event queuing"
        ),
        float_fmt="{:.4f}",
    )
    save_result("fig16_event_overlap", text)

    # A sequential stream is a chain of barriers, so its makespan is the
    # sum of the per-batch totals; double buffering must hide nonzero
    # transfer-in time.
    timings = [rep.result.timing for rep in reports]
    assert event["sequential"] == pytest.approx(
        sum(t.total_s for t in timings), rel=1e-9
    )
    assert event["double_buffer"] < event["sequential"]

    stage_seconds: dict[str, float] = {}
    for timing in timings:
        for stage, attr in TIMING_STAGES:
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + getattr(
                timing, attr
            )
    record = telemetry.make_result_record(
        name="fig16_event_overlap",
        config={
            "n_batches": N_STREAM_BATCHES,
            "batch_size": STREAM_BS,
            "nprobe": NPROBE,
            "wallclock_s": event,
            "overlap_ratio": 1.0 - event["double_buffer"] / event["sequential"],
        },
        qps_values=[STREAM_BS / t.total_s for t in timings],
        stage_seconds=stage_seconds,
        utilization=telemetry.utilization_report(
            streams["double_buffer"]
        ).to_json(),
        metrics=telemetry.snapshot(),
    )
    path = RESULTS_DIR / "fig16_event_overlap.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def test_fig16_overlap_double_buffer(run_once):
    _reports, streams = run_once(run_stream_sweep)
    seq = streams["sequential"].makespan
    db = streams["double_buffer"].makespan
    text = render_table(
        ["overlap mode", "wall-clock ms", "ms/query", "speedup"],
        [
            ["sequential", seq * 1e3, seq * 1e3 / (N_STREAM_BATCHES * STREAM_BS), 1.0],
            [
                "double_buffer",
                db * 1e3,
                db * 1e3 / (N_STREAM_BATCHES * STREAM_BS),
                seq / db,
            ],
        ],
        title=(
            f"Figure 16 (ext): {N_STREAM_BATCHES} x {STREAM_BS}-query stream, "
            "sequential vs double-buffered pipeline"
        ),
        float_fmt="{:.4f}",
    )
    save_result("fig16_overlap", text)
    assert db < seq  # transfer-in is nonzero, so there is time to hide
