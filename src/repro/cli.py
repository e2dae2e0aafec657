"""Command-line interface: generate / build / search / bench / specs.

Usage examples::

    python -m repro.cli generate --out corpus.fvecs --n 30000 --spec SIFT1B
    python -m repro.cli build --vectors corpus.fvecs --index index.npz \
        --clusters 128 --m 16
    python -m repro.cli search --index index.npz --queries queries.fvecs \
        --k 10 --nprobe 8
    python -m repro.cli bench --n 30000 --clusters 128
    python -m repro.cli metrics --json
    python -m repro.cli perf --quick
    python -m repro.cli specs
    python -m repro.cli lint src/repro

Progress chatter goes to stderr through the structured logger (tune it
with ``-v`` / ``-q``); the machine- or human-consumable *results* of a
command stay on stdout so they can be piped.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import telemetry
from repro.analysis.report import render_table
from repro.baselines.cpu import CpuEngine
from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.data.loader import read_vecs, write_vecs
from repro.data.synthetic import ALL_SPECS, make_dataset, make_queries
from repro.data.skew import zipf_weights
from repro.hardware.specs import TABLE1_ROWS, UPMEM_7_DIMMS
from repro.ivfpq import IVFPQIndex
from repro.ivfpq.io import load_index, save_index

_SPECS = {spec.name: spec for spec in ALL_SPECS}

log = telemetry.get_logger()


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = _SPECS[args.spec]
    rng = np.random.default_rng(args.seed)
    dataset = make_dataset(
        spec,
        args.n,
        n_components=args.components,
        correlated_subspaces=args.correlated,
        rng=rng,
    )
    write_vecs(args.out, dataset.vectors)
    log.info("generate.corpus", file=args.out, n=args.n, dim=spec.dim)
    if args.queries_out:
        popularity = zipf_weights(args.components, args.zipf_alpha)
        queries = make_queries(dataset, args.n_queries, popularity=popularity, rng=rng)
        write_vecs(args.queries_out, queries)
        log.info("generate.queries", file=args.queries_out, n=args.n_queries)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    vectors = read_vecs(args.vectors).astype(np.float32)
    log.info("build.loaded", n=vectors.shape[0], dim=vectors.shape[1])
    index = IVFPQIndex(vectors.shape[1], args.clusters, args.m, args.nbits)
    t0 = time.time()
    index.train(vectors, n_iter=args.train_iters, rng=np.random.default_rng(args.seed))
    index.add(vectors)
    log.info(
        "build.trained",
        ivf=args.clusters,
        pq_m=args.m,
        seconds=round(time.time() - t0, 1),
    )
    save_index(args.index, index)
    log.info("build.saved", file=args.index)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    queries = read_vecs(args.queries).astype(np.float32)
    log.info(
        "search.index",
        vectors=index.ntotal,
        ivf=index.n_clusters,
        pq_m=index.m,
        queries=queries.shape[0],
    )
    cfg = SystemConfig(
        index=IndexConfig(
            dim=index.dim, n_clusters=index.n_clusters, m=index.m, nbits=index.nbits
        ),
        query=QueryConfig(nprobe=args.nprobe, k=args.k, batch_size=queries.shape[0]),
        upanns=UpANNSConfig(),
        pim=UPMEM_7_DIMMS,
        timing_scale=args.timing_scale,
    )
    engine = UpANNSEngine(cfg)
    engine.build(np.empty((0, index.dim), np.float32), prebuilt_index=index)
    result = engine.search_batch(queries)
    print(f"modeled QPS: {result.qps:,.1f}   balance max/avg: {result.cycle_load_ratio:.2f}")
    for i in range(min(args.show, queries.shape[0])):
        print(f"q{i}: {result.ids[i].tolist()}")
    if args.groundtruth:
        from repro.data.groundtruth import load_groundtruth
        from repro.ivfpq.recall import recall_at_k

        _, gt = load_groundtruth(args.groundtruth)
        print(f"recall@{args.k}: {recall_at_k(result.ids, gt, args.k):.3f}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = _SPECS[args.spec]
    rng = np.random.default_rng(args.seed)
    dataset = make_dataset(
        spec, args.n, n_components=64, correlated_subspaces=4, rng=rng
    )
    popularity = zipf_weights(64, 0.6)
    history = make_queries(dataset, 2000, popularity=popularity, rng=rng)
    queries = make_queries(dataset, args.n_queries, popularity=popularity, rng=rng)

    cfg = SystemConfig(
        index=IndexConfig(dim=spec.dim, n_clusters=args.clusters, m=spec.pq_m, train_iters=5),
        query=QueryConfig(nprobe=args.nprobe, k=args.k, batch_size=args.n_queries),
        pim=UPMEM_7_DIMMS,
        timing_scale=args.timing_scale,
    )
    engine = UpANNSEngine(cfg)
    log.info("bench.building", n=args.n, clusters=args.clusters)
    engine.build(dataset.vectors, history_queries=history)
    cpu = CpuEngine(engine.index, workload_scale=args.timing_scale)
    r_pim = engine.search_batch(queries)
    r_cpu = cpu.search_batch(queries, args.k, args.nprobe, compute_results=False)
    print(
        render_table(
            ["engine", "QPS", "QPS/W"],
            [
                ["Faiss-CPU (modeled)", r_cpu.qps, r_cpu.qps / 190.0],
                [
                    "UpANNS (896 DPUs)",
                    r_pim.qps,
                    r_pim.qps / UPMEM_7_DIMMS.peak_power_w,
                ],
            ],
            float_fmt="{:.1f}",
        )
    )
    print(f"speedup: {r_pim.qps / r_cpu.qps:.2f}x")
    return 0


def _tiny_deployment(args: argparse.Namespace):
    """Build the tiny synthetic deployment shared by the ``trace``,
    ``metrics`` and ``chaos`` subcommands; returns (engine, batches)."""
    from repro.data.synthetic import SIFT1B
    from repro.hardware.specs import PimSystemSpec

    from dataclasses import replace

    rng = np.random.default_rng(args.seed)
    spec = replace(SIFT1B, dim=32, pq_m=8)
    dataset = make_dataset(
        spec, 4000, n_components=16, correlated_subspaces=2, rng=rng
    )
    popularity = zipf_weights(16, 0.6)
    queries = make_queries(
        dataset, args.batches * args.batch_size, popularity=popularity, rng=rng
    )
    history = make_queries(dataset, 300, popularity=popularity, rng=rng)

    cfg = SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=4),
        query=QueryConfig(nprobe=8, k=5, batch_size=args.batch_size),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        timing_scale=args.timing_scale,
    )
    engine = UpANNSEngine(cfg)
    engine.build(dataset.vectors, history_queries=history, rng=rng)
    batches = [
        queries[b * args.batch_size : (b + 1) * args.batch_size]
        for b in range(args.batches)
    ]
    return engine, batches


def _tiny_service(args: argparse.Namespace):
    """Build and drive the tiny synthetic deployment shared by the
    ``trace``, ``explain`` and ``metrics`` subcommands; returns the
    served service and its per-batch reports."""
    from repro.core.service import OnlineService

    engine, batches = _tiny_deployment(args)
    fault_specs = getattr(args, "fault", None)
    hazard = getattr(args, "hazard", 0.0)
    if fault_specs or hazard > 0.0:
        from repro.faults import FaultPlan

        engine.inject(
            FaultPlan.from_specs(
                fault_specs or [], seed=args.seed, transfer_hazard=hazard
            )
        )
    service = OnlineService(engine, overlap=args.overlap)
    reports = [service.submit(batch) for batch in batches]
    return service, reports


def _scenario_config(args: argparse.Namespace) -> dict:
    """The tiny-deployment knobs, as recorded in exported artifacts."""
    return {
        "batches": args.batches,
        "batch_size": args.batch_size,
        "overlap": args.overlap,
        "timing_scale": args.timing_scale,
        "seed": args.seed,
    }


def _cmd_trace(args: argparse.Namespace) -> int:
    """Serve a few batches on a tiny synthetic deployment and dump the
    combined per-resource timeline as Chrome-trace JSON (optionally the
    per-query ``repro.trace/v1`` record and one query's span dump too)."""
    import json

    from repro.sim import validate_chrome_trace

    service, _reports = _tiny_service(args)
    combined = service.combined_schedule()
    payload = combined.to_chrome_trace()
    errors = validate_chrome_trace(payload)
    if errors:
        for err in errors:
            log.error("trace.invalid", error=err)
        return 1
    if args.sanitize:
        from repro.sanitize import sanitize_chrome_trace

        findings = sanitize_chrome_trace(payload)
        if findings:
            for finding in findings:
                log.error("trace.sanitize_failed", error=finding.render())
            return 1
        log.info("trace.sanitized", findings=0)
    with open(args.out, "w") as fh:
        json.dump(payload, fh)
    n_events = len(payload["traceEvents"])
    print(
        f"wrote {n_events} events over {len(combined.resources())} resources "
        f"to {args.out} ({args.overlap}: wall-clock {combined.makespan * 1e3:.3f} ms)"
    )
    if args.trace_out or args.query:
        from repro.errors import ConfigError
        from repro.tracing import make_trace_record, query_spans

        record = make_trace_record(
            name="cli_trace",
            config=_scenario_config(args),
            schedule=combined,
        )
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
            log.info(
                "trace.record_written",
                file=args.trace_out,
                queries=len(record["queries"]),
                spans=len(record["spans"]),
            )
        if args.query:
            try:
                rows = query_spans(record, args.query)
            except ConfigError as exc:
                log.error("trace.unknown_query", error=str(exc))
                return 2
            for row in rows:
                print(json.dumps(row, sort_keys=True))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Attribute a query's wall-clock latency along its critical path.

    Either explains a previously exported ``repro.trace/v1`` record
    (``--record``) or serves the tiny synthetic deployment first.  The
    query defaults to the worst (highest-latency) one — the same id a
    latency-histogram tail-bucket exemplar points at.
    """
    import json

    from repro.errors import ConfigError
    from repro.tracing import (
        explain_query,
        render_explanation,
        validate_trace_record,
        worst_query,
    )

    if args.record:
        try:
            with open(args.record, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            log.error("explain.read_failed", file=args.record, error=str(exc))
            return 2
        errors = validate_trace_record(record)
        if errors:
            for err in errors:
                log.error("explain.invalid_record", file=args.record, error=err)
            return 2
    else:
        from repro.tracing import make_trace_record

        service, _reports = _tiny_service(args)
        record = make_trace_record(
            name="cli_explain",
            config=_scenario_config(args),
            schedule=service.combined_schedule(),
        )
    try:
        qid = args.query or worst_query(record)
        explanation = explain_query(record, qid)
    except ConfigError as exc:
        log.error("explain.failed", error=str(exc))
        return 2
    print(render_explanation(explanation))
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    """Run the simsan dynamic checks over JSON artifacts.

    Each file is auto-classified (Chrome trace, chaos/result record, or
    golden-timings fixture) and routed to the matching conservation
    checks.  Text output lists one finding per line; ``--json`` emits a
    ``repro.sanitize/v1`` record instead.  Exit 0 = clean, 1 = findings,
    2 = unreadable input.
    """
    import json

    from repro.sanitize import (
        detect_kind,
        make_sanitize_record,
        sanitize_payload,
        with_source,
    )

    inputs: list[dict[str, object]] = []
    findings = []
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            log.error("sanitize.read_failed", file=path, error=str(exc))
            return 2
        per_file = sanitize_payload(payload, strict_zero=args.strict)
        inputs.append(
            {
                "path": str(path),
                "kind": detect_kind(payload),
                "findings": len(per_file),
            }
        )
        findings.extend(with_source(per_file, str(path)))

    record = make_sanitize_record(
        name="cli_sanitize", inputs=inputs, findings=findings
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("sanitize.record_written", file=args.out)
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        checked = ", ".join(
            f"{row['path']} ({row['kind']})" for row in inputs
        )
        verdict = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"sanitize: {verdict} over {checked}")
    return 1 if findings else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Serve the tiny deployment and report per-resource utilization.

    Default output is a human-readable table; ``--json`` emits a full
    schema-versioned result record instead, and ``--prom FILE`` writes
    the registry as Prometheus text exposition alongside either.
    """
    import json

    telemetry.reset_metrics()
    service, reports = _tiny_service(args)
    combined = service.combined_schedule()
    report = telemetry.utilization_report(combined)

    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(telemetry.prometheus_text())
        log.info("metrics.prom_written", file=args.prom)

    if args.json:
        stage_seconds: dict[str, float] = {}
        qps_values = []
        for rep in reports:
            timing = rep.result.timing
            qps_values.append(args.batch_size / timing.total_s)
            for stage, attr in telemetry.pipeline.TIMING_STAGES:
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + getattr(
                    timing, attr
                )
        record = telemetry.make_result_record(
            name="cli_metrics",
            config={
                "batches": args.batches,
                "batch_size": args.batch_size,
                "overlap": args.overlap,
                "timing_scale": args.timing_scale,
                "seed": args.seed,
                "n_dpus": service.engine.pim.n_dpus,
            },
            qps_values=qps_values,
            stage_seconds=stage_seconds,
            utilization=report.to_json(),
            metrics=telemetry.snapshot(),
        )
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """Time looped vs grouped kernel execution on the standard shapes.

    Emits a human-readable table by default; ``--out FILE`` writes the
    schema-versioned ``repro.perf/v1`` record, ``--json`` dumps it to
    stdout instead of the table.  With ``--baseline FILE`` the run
    additionally gates on the committed record (exit 1 on regression).
    """
    import json

    from repro.perf import compare_to_baseline, run_perf

    record = run_perf(quick=args.quick, repeats=args.repeats, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("perf.record_written", file=args.out)
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        rows = [
            [
                c["name"],
                c["looped_s"] * 1e3,
                c["grouped_cold_s"] * 1e3,
                c["grouped_warm_s"] * 1e3,
                f"{c['speedup_warm']:.2f}x",
            ]
            for c in record["cases"]
        ]
        print(
            render_table(
                ["case", "looped ms", "cold ms", "warm ms", "speedup"],
                rows,
                title="host wall-clock: looped vs grouped kernel",
                float_fmt="{:.1f}",
            )
        )
        totals = record["totals"]
        print(f"overall warm speedup: {totals['speedup']:.2f}x")
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = compare_to_baseline(
            record, baseline, max_regression=args.max_regression
        )
        if failures:
            for failure in failures:
                log.error("perf.regression", detail=failure)
            return 1
        log.info("perf.baseline_ok", file=args.baseline)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded chaos scenario end-to-end on the tiny deployment.

    Serves the same query stream twice — once fault-free as the
    reference, once with the fault plan armed — and emits a
    schema-versioned ``repro.chaos/v1`` record: faults injected,
    retries, re-routes, coverage floor, recall delta and recovery cost.
    The default plan kills one fully-replicated DPU at batch 3, the
    zero-recall-loss failover scenario.
    """
    import json

    from repro.core.service import OnlineService
    from repro.faults import FaultPlan, pick_replicated_unit

    telemetry.reset_metrics()

    # Reference pass: identical deployment, no plan armed.
    engine, batches = _tiny_deployment(args)
    reference = OnlineService(engine)
    ref_ids = [reference.submit(b).result.ids for b in batches]

    # Chaos pass: fresh identical deployment with the plan armed.
    engine, batches = _tiny_deployment(args)
    specs = list(args.fault or [])
    if not specs and args.hazard == 0.0:
        target = pick_replicated_unit(engine.placement)
        if target is None:
            log.error("chaos.no_replicated_dpu")
            return 2
        specs = [f"dpu:{target}@3"]
    plan = FaultPlan.from_specs(
        specs, seed=args.seed, transfer_hazard=args.hazard
    )
    state = engine.inject(plan)
    # Double-buffered serving makes the combined-run check below
    # meaningful: a DPU death fences its lane while the previous
    # batch's compute is still in flight on it.
    service = OnlineService(engine, overlap="double_buffer")
    from repro.errors import DpuFailedError

    try:
        reports = [service.submit(b) for b in batches]
    except DpuFailedError as exc:
        # Total loss: every unit is dead, there is nothing to degrade to.
        log.error("chaos.total_loss", error=str(exc))
        return 1

    # Run-level schedule gate: the whole chaos run — retries, mid-flight
    # DPU-death truncation, cross-batch interleaving — must produce a
    # causally clean timeline.
    from repro.sanitize import sanitize_schedule

    combined = service.combined_schedule()
    stream_findings = sanitize_schedule(combined)
    if stream_findings:
        for finding in stream_findings:
            log.error("chaos.stream_sanitize_failed", error=finding.render())
        return 1
    log.info(
        "chaos.stream_sanitized",
        wallclock_ms=round(combined.makespan * 1e3, 3),
    )

    # Functional damage: top-k agreement against the fault-free run.
    matched = total = 0
    for ids, report in zip(ref_ids, reports):
        got = report.result.ids
        for qi in range(ids.shape[0]):
            want = set(int(i) for i in ids[qi] if i >= 0)
            have = set(int(i) for i in got[qi] if i >= 0)
            matched += len(want & have)
            total += len(want)
    recall_delta = 1.0 - (matched / total if total else 1.0)

    batch_rows = []
    for i, report in enumerate(reports):
        deg = report.result.degraded
        batch_rows.append(
            {
                "batch": i,
                "coverage_floor": deg.coverage_floor if deg else 1.0,
                "rerouted_pairs": deg.rerouted_pairs if deg else 0,
                "dropped_pairs": deg.dropped_pairs if deg else 0,
                "retry_seconds": report.result.timing.retry_s,
                "recovery_seconds": report.recovery_s,
            }
        )
    first_fault = min((e.batch for e in state.events_fired), default=None)
    recovered_at = next(
        (i for i, r in enumerate(reports) if r.recovery_s > 0), None
    )
    recovery_batches = (
        recovered_at - first_fault + 1
        if first_fault is not None and recovered_at is not None
        else 0
    )
    record = telemetry.make_chaos_record(
        name="cli_chaos",
        config={
            "batches": args.batches,
            "batch_size": args.batch_size,
            "seed": args.seed,
            "timing_scale": args.timing_scale,
            "n_dpus": engine.pim.n_dpus,
        },
        plan={
            "events": [e.to_dict() for e in plan.events],
            "seed": plan.seed,
            "transfer_hazard": plan.transfer_hazard,
            "max_retries": plan.max_retries,
        },
        faults_injected=len(state.events_fired),
        retries=state.total_retries,
        rerouted_pairs=state.total_rerouted_pairs,
        dropped_pairs=state.total_dropped_pairs,
        dead_units=list(state.dead_units),
        coverage_floor=min((r["coverage_floor"] for r in batch_rows), default=1.0),
        recall_delta=recall_delta,
        retry_seconds=sum(r["retry_seconds"] for r in batch_rows),
        recovery_batches=recovery_batches,
        recovery_seconds=sum(r.recovery_s for r in reports),
        batches=batch_rows,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("chaos.record_written", file=args.out)
    if args.json or not args.out:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        faults = record["faults"]
        print(
            f"chaos: {faults['injected']} faults, {faults['retries']} retries, "
            f"{faults['rerouted_pairs']} pairs re-routed, "
            f"{faults['dropped_pairs']} dropped; coverage floor "
            f"{record['degradation']['coverage_floor']:.3f}, recall delta "
            f"{record['degradation']['recall_delta']:.4f}, recovered in "
            f"{record['recovery']['batches']} batches"
        )
    return 0


def _serve_deployment(args: argparse.Namespace):
    """A fresh tiny deployment for one serving run; (service, dataset)."""
    from dataclasses import replace

    from repro.core.service import OnlineService
    from repro.data.synthetic import SIFT1B
    from repro.hardware.specs import PimSystemSpec

    rng = np.random.default_rng(args.seed)
    spec = replace(SIFT1B, dim=32, pq_m=8)
    dataset = make_dataset(
        spec, 4000, n_components=16, correlated_subspaces=2, rng=rng
    )
    history = make_queries(
        dataset, 300, popularity=zipf_weights(16, 0.6), rng=rng
    )
    cfg = SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=4),
        query=QueryConfig(nprobe=8, k=5, batch_size=args.batch_size),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        timing_scale=args.timing_scale,
    )
    engine = UpANNSEngine(cfg)
    engine.build(dataset.vectors, history_queries=history, rng=rng)
    service = OnlineService(engine, overlap="sequential")
    return service, dataset


def _serve_tenants(args: argparse.Namespace, capacity_qps: float):
    """The two-tenant mix every serve run uses, at base (1x) load.

    ``interactive`` offers two thirds of calibrated capacity as smooth
    Poisson traffic under the SLO; ``batchy`` offers the remaining
    third in 4x bursts with no deadline of its own.
    """
    from repro.serving import TenantConfig

    return (
        TenantConfig(
            name="interactive",
            rate_qps=capacity_qps * 2.0 / 3.0,
            slo_ms=args.slo_ms,
        ),
        TenantConfig(
            name="batchy",
            rate_qps=capacity_qps / 3.0,
            burst_factor=4.0,
            burst_period_s=0.05,
            burst_duty=0.25,
        ),
    )


def _serve_run(args: argparse.Namespace, load: float, shedding: bool):
    """One seeded open-loop run; returns its FrontendResult."""
    from repro.serving import AdmissionPolicy, ArrivalGenerator, ServingFrontend
    from repro.workload.batch import BatchGenerator

    service, dataset = _serve_deployment(args)
    tenants = tuple(
        t.scaled(load) for t in _serve_tenants(args, args.capacity_qps)
    )
    generator = ArrivalGenerator(
        tenants=tenants, seed=args.seed, horizon_s=args.horizon
    )
    query_gens = {
        t.name: BatchGenerator(
            dataset,
            batch_size=args.batch_size,
            zipf_alpha=t.zipf_alpha,
            drift_per_batch=t.drift_per_batch,
            rng=np.random.default_rng([args.seed, i]),
        )
        for i, t in enumerate(tenants)
    }
    requests = generator.generate(query_gens)
    policy = AdmissionPolicy(
        shedding=shedding, max_queue_depth=args.queue_depth
    )
    frontend = ServingFrontend(
        service,
        tenants,
        policy=policy,
        max_batch=args.batch_size,
        max_delay_s=args.max_delay_ms / 1e3,
    )
    return frontend.run(requests)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Sweep offered load through the serving frontend and emit a
    schema-versioned ``repro.serve/v1`` record.

    Calibrates the tiny deployment's capacity closed-loop, then runs
    each swept load twice — shedding frontend and no-shedding
    baseline — over identical seeded arrival streams, so the record's
    goodput-vs-offered-load curve shows exactly what admission control
    buys under overload.
    """
    import json

    from repro.sanitize import sanitize_schedule
    from repro.serving import render_serve_report, serve_record_kwargs

    telemetry.reset_metrics()

    # Calibration: closed-loop batches on a fresh deployment give the
    # pipeline's sustainable rate (batch size over mean batch seconds).
    service, dataset = _serve_deployment(args)
    from repro.workload.batch import BatchGenerator

    cal_gen = BatchGenerator(
        dataset,
        batch_size=args.batch_size,
        rng=np.random.default_rng(args.seed),
    )
    totals = [
        service.submit(cal_gen.next_batch().queries).result.timing.total_s
        for _ in range(4)
    ]
    args.capacity_qps = args.batch_size / (sum(totals) / len(totals))
    log.info("serve.calibrated", capacity_qps=round(args.capacity_qps, 1))

    loads = [float(x) for x in args.load_sweep.split(",") if x.strip()]
    if not loads or any(x <= 0 for x in loads):
        log.error("serve.bad_load_sweep", value=args.load_sweep)
        return 2
    modes = [True] if args.no_baseline else [True, False]

    curve = []
    headline = None
    for load in loads:
        for shedding in modes:
            result = _serve_run(args, load, shedding)
            findings = sanitize_schedule(result.schedule)
            if findings:
                for finding in findings:
                    log.error("serve.stream_sanitize_failed", error=finding.render())
                return 1
            ledger = result.ledger()["totals"]
            lat = result.latencies_ms()
            offered_qps = ledger["offered"] / args.horizon
            point = dict(ledger)
            point.update(
                {
                    "offered_load": load,
                    "offered_qps": offered_qps,
                    "goodput_qps": result.goodput_qps(),
                    "p99_ms": float(np.percentile(lat, 99)) if lat.size else 0.0,
                    "coverage_floor": result.coverage_floor(),
                    "shedding": shedding,
                }
            )
            curve.append(point)
            log.info(
                "serve.point",
                load=load,
                shedding=shedding,
                offered=ledger["offered"],
                shed=ledger["shed"],
                timed_out=ledger["timed_out"],
                goodput_qps=round(point["goodput_qps"], 1),
                p99_ms=round(point["p99_ms"], 3),
            )
            if shedding and (headline is None or load >= headline[0]):
                headline = (load, result)

    assert headline is not None
    sections = serve_record_kwargs(headline[1])
    record = telemetry.make_serve_record(
        name="cli_serve",
        config={
            "seed": args.seed,
            "horizon_s": args.horizon,
            "slo_ms": args.slo_ms,
            "max_batch": args.batch_size,
            "max_delay_ms": args.max_delay_ms,
            "queue_depth": args.queue_depth,
            "timing_scale": args.timing_scale,
            "capacity_qps": args.capacity_qps,
            "loads": loads,
            "headline_load": headline[0],
        },
        totals=sections["totals"],
        tenants=sections["tenants"],
        curve=curve,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("serve.record_written", file=args.out)
    if args.json or not args.out:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(render_serve_report(record))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.__main__ import main as lint_main

    return lint_main(list(args.lint_args))


def _cmd_specs(_args: argparse.Namespace) -> int:
    rows = [
        [s.name, f"{s.price_usd:,.0f}", f"{s.memory_gb:.0f} GB",
         f"{s.peak_power_w:.0f} W", f"{s.bandwidth_gb_per_s:.1f} GB/s"]
        for s in TABLE1_ROWS
    ]
    print(render_table(["hardware", "price USD", "memory", "power", "bandwidth"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="UpANNS reproduction CLI"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more progress chatter on stderr (debug level)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="less progress chatter on stderr (warnings only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus")
    gen.add_argument("--out", required=True)
    gen.add_argument("--queries-out", default=None)
    gen.add_argument("--spec", choices=sorted(_SPECS), default="SIFT1B")
    gen.add_argument("--n", type=int, default=30_000)
    gen.add_argument("--n-queries", type=int, default=500)
    gen.add_argument("--components", type=int, default=64)
    gen.add_argument("--correlated", type=int, default=4)
    gen.add_argument("--zipf-alpha", type=float, default=0.6)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="train and save an IVFPQ index")
    build.add_argument("--vectors", required=True)
    build.add_argument("--index", required=True)
    build.add_argument("--clusters", type=int, default=128)
    build.add_argument("--m", type=int, default=16)
    build.add_argument("--nbits", type=int, default=8)
    build.add_argument("--train-iters", type=int, default=8)
    build.add_argument("--seed", type=int, default=0)
    build.set_defaults(func=_cmd_build)

    search = sub.add_parser("search", help="search a saved index on PIM")
    search.add_argument("--index", required=True)
    search.add_argument("--queries", required=True)
    search.add_argument("--k", type=int, default=10)
    search.add_argument("--nprobe", type=int, default=8)
    search.add_argument("--timing-scale", type=float, default=1.0)
    search.add_argument("--show", type=int, default=3)
    search.add_argument("--groundtruth", default=None)
    search.set_defaults(func=_cmd_search)

    bench = sub.add_parser("bench", help="quick UpANNS-vs-CPU comparison")
    bench.add_argument("--spec", choices=sorted(_SPECS), default="SIFT1B")
    bench.add_argument("--n", type=int, default=30_000)
    bench.add_argument("--n-queries", type=int, default=300)
    bench.add_argument("--clusters", type=int, default=128)
    bench.add_argument("--nprobe", type=int, default=8)
    bench.add_argument("--k", type=int, default=10)
    bench.add_argument("--timing-scale", type=float, default=1000.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=_cmd_bench)

    trace = sub.add_parser(
        "trace",
        help="serve a tiny synthetic workload and export a Chrome-trace JSON",
    )
    trace.add_argument("--out", required=True)
    trace.add_argument("--batches", type=int, default=3)
    trace.add_argument("--batch-size", type=int, default=32)
    trace.add_argument(
        "--overlap", choices=["sequential", "double_buffer"], default="sequential"
    )
    trace.add_argument("--timing-scale", type=float, default=1.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="KIND:TARGET@BATCH",
        help="inject a fault (e.g. dpu:5@2); repeatable",
    )
    trace.add_argument(
        "--hazard",
        type=float,
        default=0.0,
        help="seeded per-DPU transient transfer-fault probability per batch",
    )
    trace.add_argument(
        "--sanitize",
        action="store_true",
        help="run the full simsan checks (incl. happens-before) on the "
        "exported trace; exit 1 on any finding",
    )
    trace.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="also write the per-query repro.trace/v1 record as JSON",
    )
    trace.add_argument(
        "--query",
        default=None,
        metavar="ID",
        help="dump one query's span rows (e.g. q000003) as JSON lines",
    )
    trace.set_defaults(func=_cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="rank where one query's latency went (waits, compute, "
        "transfers, fault retries) along its critical path",
    )
    explain.add_argument(
        "--record",
        default=None,
        metavar="FILE",
        help="explain an exported repro.trace/v1 record instead of "
        "serving the tiny deployment",
    )
    explain.add_argument(
        "--query",
        default=None,
        metavar="ID",
        help="trace id to explain (default: the worst-latency query)",
    )
    explain.add_argument("--batches", type=int, default=3)
    explain.add_argument("--batch-size", type=int, default=32)
    explain.add_argument(
        "--overlap", choices=["sequential", "double_buffer"], default="sequential"
    )
    explain.add_argument("--timing-scale", type=float, default=1.0)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="KIND:TARGET@BATCH",
        help="inject a fault (e.g. dpu:5@2); repeatable",
    )
    explain.add_argument(
        "--hazard",
        type=float,
        default=0.0,
        help="seeded per-DPU transient transfer-fault probability per batch",
    )
    explain.set_defaults(func=_cmd_explain)

    sanitize = sub.add_parser(
        "sanitize",
        help="simsan: check traces, chaos/result records and golden "
        "timings for races and conservation bugs",
    )
    sanitize.add_argument("files", nargs="+", metavar="FILE")
    sanitize.add_argument(
        "--json",
        action="store_true",
        help="emit a repro.sanitize/v1 record instead of text findings",
    )
    sanitize.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the repro.sanitize/v1 record to FILE",
    )
    sanitize.add_argument(
        "--strict",
        action="store_true",
        help="additionally flag zero-duration spans",
    )
    sanitize.set_defaults(func=_cmd_sanitize)

    metrics = sub.add_parser(
        "metrics",
        help="serve a tiny synthetic workload and report resource utilization",
    )
    metrics.add_argument("--batches", type=int, default=3)
    metrics.add_argument("--batch-size", type=int, default=32)
    metrics.add_argument(
        "--overlap", choices=["sequential", "double_buffer"], default="sequential"
    )
    metrics.add_argument("--timing-scale", type=float, default=1.0)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--json",
        action="store_true",
        help="emit a repro.bench.result/v1 record instead of the text table",
    )
    metrics.add_argument(
        "--prom",
        default=None,
        metavar="FILE",
        help="also write the registry as Prometheus text exposition",
    )
    metrics.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="KIND:TARGET@BATCH",
        help="inject a fault (e.g. dpu:5@2); repeatable",
    )
    metrics.add_argument(
        "--hazard",
        type=float,
        default=0.0,
        help="seeded per-DPU transient transfer-fault probability per batch",
    )
    metrics.set_defaults(func=_cmd_metrics)

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault scenario and emit a repro.chaos/v1 record",
    )
    chaos.add_argument("--batches", type=int, default=6)
    chaos.add_argument("--batch-size", type=int, default=32)
    chaos.add_argument("--timing-scale", type=float, default=1.0)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="KIND:TARGET@BATCH",
        help="inject a fault (default: kill one replicated DPU at batch 3)",
    )
    chaos.add_argument(
        "--hazard",
        type=float,
        default=0.0,
        help="seeded per-DPU transient transfer-fault probability per batch",
    )
    chaos.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the repro.chaos/v1 record as JSON",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="dump the record to stdout even when --out is given",
    )
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="sweep offered load through the multi-tenant serving "
        "frontend and emit a repro.serve/v1 record",
    )
    serve.add_argument(
        "--horizon",
        type=float,
        default=0.2,
        help="simulated seconds of open-loop arrivals per run",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=20.0,
        help="interactive tenant's per-request deadline",
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=3.0,
        help="coalescer deadline: a queued request waits at most this "
        "long for its batch to fill",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=24,
        help="coalescer size trigger (and calibration batch size)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=48,
        help="per-tenant queue bound for the shedding frontend",
    )
    serve.add_argument(
        "--load-sweep",
        default="0.5,1.0,2.0",
        metavar="X,Y,...",
        help="offered-load multiples of calibrated capacity to sweep",
    )
    serve.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the no-shedding baseline runs (shedding curve only)",
    )
    serve.add_argument("--timing-scale", type=float, default=1.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the repro.serve/v1 record as JSON",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="dump the record to stdout even when --out is given",
    )
    serve.set_defaults(func=_cmd_serve)

    perf = sub.add_parser(
        "perf",
        help="wall-clock microbenchmark: looped vs grouped kernel execution",
    )
    perf.add_argument(
        "--quick",
        action="store_true",
        help="run only the tiny CI smoke cases",
    )
    perf.add_argument("--repeats", type=int, default=3)
    perf.add_argument("--seed", type=int, default=0)
    perf.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the repro.perf/v1 record as JSON",
    )
    perf.add_argument(
        "--json",
        action="store_true",
        help="dump the record to stdout instead of the summary table",
    )
    perf.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="committed perf record to gate against (exit 1 on regression)",
    )
    perf.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when a case's warm speedup falls below baseline/THIS",
    )
    perf.set_defaults(func=_cmd_perf)

    specs = sub.add_parser("specs", help="print the Table-1 hardware specs")
    specs.set_defaults(func=_cmd_specs)

    lint = sub.add_parser(
        "lint",
        help="run the simlint invariant checker (same as python -m repro.lint)",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.lint",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry.configure(args.verbose - args.quiet)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
