"""Generated-stream properties of the event core.

Small engine-shaped streams — host prep, transfer-in plus pinned
retries, per-DPU stage chains with random cycles, gather, aggregate,
frontend-style shed charges — with optional arrival releases and an
optional mid-flight DPU kill.  The fixed engine-stream tests
(``tests/core/test_service.py``) keep the "double buffering beats
sequential" check: FIFO list scheduling has anomalies, so it is not a
property of arbitrary DAGs.

The columnar core is pinned to the object-based core it replaced
(``event_oracle.py``) span by span, and every column reduction to a
plain loop over the materialized spans.  The one-pass placement of DAGs
where no lane has a choice is pinned to the event heap view by view,
and must refuse the near misses where the heap decides.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import IndexConfig, QueryConfig, SystemConfig
from repro.core.engine import UpANNSEngine
from repro.hardware.counters import StageCycles
from repro.hardware.specs import PimSystemSpec
from repro.sanitize import sanitize_schedule
from repro.serving.frontend import ServingFrontend
from repro.sim import (
    HOST_CPU,
    OVERLAP_MODES,
    PIM_BUS,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_RETRY,
    STAGE_SCHEDULE,
    STAGE_SHED,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchWork,
    EventEngine,
    WorkItem,
    dpu_resource,
    execute_stream,
)
from repro.sim.events import _merge, _place_without_choice
from repro.telemetry.pipeline import observe_lane_occupancy
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.report import critical_path_attribution, utilization_report
from repro.tracing.record import make_trace_record, query_latencies

from .event_oracle import OracleEngine, loop_dpu_stages, oracle_stream

FREQ = 350e6
N_DPUS = 4

micros = st.integers(0, 5000).map(lambda us: us * 1e-6)
# Host prep short next to DPU compute (up to ~8.6 ms per stage), so a
# double-buffered batch's transfer-in often lands while the previous
# batch still computes and a kill there truncates a span mid-flight.
host_micros = st.integers(0, 500).map(lambda us: us * 1e-6)
cycles = st.integers(0, 3_000_000).map(float)
#: Coarse durations: equal-time arrivals and completions on every lane.
ticks = st.sampled_from([0.0, 1e-4, 2e-4])


@st.composite
def batch_works(draw, batch: int, micros=micros, host_micros=host_micros,
                cycles=cycles, sheds: bool = True) -> BatchWork:
    """One batch description shaped like the engines emit (``sheds``
    adds the frontend's shed charges, which contend on ``host_cpu``)."""
    work = BatchWork(dpu_frequency_hz=FREQ, batch=batch)
    ids = tuple(f"b{batch}q{i}" for i in range(draw(st.integers(1, 3))))
    filt = work.work(
        HOST_CPU, STAGE_CLUSTER_FILTER, draw(host_micros), trace_ids=ids
    )
    sched = work.work(
        HOST_CPU, STAGE_SCHEDULE, draw(host_micros), after=(filt,), trace_ids=ids
    )
    last_in = work.work(
        PIM_BUS, STAGE_TRANSFER_IN, draw(micros), after=(sched,), trace_ids=ids
    )
    for _ in range(draw(st.integers(0, 2))):
        last_in = work.work(
            PIM_BUS, STAGE_RETRY, draw(micros), after=(last_in,), pinned=True,
            trace_ids=ids[:1],
        )
    dpus = draw(
        st.lists(st.integers(0, N_DPUS - 1), min_size=1, max_size=N_DPUS, unique=True)
    )
    tails = []
    for d in dpus:
        stage = StageCycles(
            lut_construction=draw(cycles),
            distance_calc=draw(cycles),
            topk_selection=draw(cycles),
        )
        tails += work.work_dpu_stages(
            [d],
            [list(stage.as_dict().values())],
            [stage],
            after=(last_in,),
            trace_ids=ids,
        )
    gather = work.work(
        PIM_BUS, STAGE_TRANSFER_OUT, draw(micros), after=tails, trace_ids=ids
    )
    work.work(HOST_CPU, STAGE_AGGREGATE, draw(micros), after=(gather,), trace_ids=ids)
    # Shed/cancel charges: dependency-free roots (and sinks) per request.
    for i in range(draw(st.integers(0, 3 if sheds else 0))):
        work.work(HOST_CPU, STAGE_SHED, 2e-6, trace_ids=(f"b{batch}s{i}",))
    return work


@st.composite
def streams(draw, coarse: bool = False, sheds: bool = True):
    n = draw(st.integers(1, 4))
    durations = dict(micros=ticks, host_micros=ticks, cycles=st.sampled_from(
        [0.0, 3.5e4, 7e4])) if coarse else {}
    works = [draw(batch_works(b, sheds=sheds, **durations)) for b in range(n)]
    releases = None
    if draw(st.booleans()):
        releases = sorted(draw(st.lists(micros, min_size=n, max_size=n)))
    kills = None
    if draw(st.booleans()):
        kills = {
            dpu_resource(draw(st.integers(0, N_DPUS - 1))): draw(
                st.integers(min(1, n - 1), n - 1)
            )
        }
    return works, releases, kills


PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def span_rows(schedule) -> list[tuple]:
    return [
        (name, s.stage, s.t0.hex(), s.t1.hex(), s.cycles, s.trace)
        for name, tl in schedule.timelines.items()
        for s in tl.spans
    ]


def spans_by_batch(schedule) -> dict[int, list]:
    out: dict[int, list] = {}
    for tl in schedule.timelines.values():
        for s in tl.spans:
            out.setdefault(s.trace.batch, []).append(s)
    return out


@PROPERTY_SETTINGS
@given(work=batch_works(0))
def test_single_batch_stream_is_the_batch_execution(work):
    stream = execute_stream([work], overlap="sequential")
    assert span_rows(stream) == span_rows(work.execute())


@PROPERTY_SETTINGS
@given(drawn=streams())
def test_sequential_batches_are_barriered(drawn):
    works, releases, kills = drawn
    stream = execute_stream(
        works, overlap="sequential", releases=releases, kills=kills
    )
    by_batch = spans_by_batch(stream)
    for b in range(1, len(works)):
        prev_end = max((s.t1 for s in by_batch.get(b - 1, [])), default=0.0)
        for s in by_batch.get(b, []):
            assert s.t0 >= prev_end
    if releases is None and kills is None:
        assert stream.makespan == pytest.approx(
            sum(w.execute().makespan for w in works), rel=1e-12
        )


@PROPERTY_SETTINGS
@given(drawn=streams(), overlap=st.sampled_from(OVERLAP_MODES))
def test_releases_kills_and_ledgers_hold(drawn, overlap):
    works, releases, kills = drawn
    stream = execute_stream(works, overlap=overlap, releases=releases, kills=kills)
    if releases is not None:
        for b, spans in spans_by_batch(stream).items():
            assert min(s.t0 for s in spans) >= releases[b]
    assert sanitize_schedule(stream) == []
    for tl in stream.timelines.values():
        for s in tl.spans:
            if s.trace.killed and s.cycles is not None:
                assert s.duration == s.cycles / FREQ


# --- The columnar core against the object-based oracle -------------------


def hex_or_none(x) -> str | None:
    return None if x is None else float(x).hex()


def span_fields(span) -> tuple:
    tr = span.trace
    return (
        span.resource, span.stage, span.t0.hex(), span.duration.hex(),
        hex_or_none(span.cycles), id(span.counters),
        None if tr is None else (
            tr.uid, tr.parents, tr.trace_ids, tr.batch, tr.wait_s.hex(), tr.killed
        ),
    )


def assert_same_spans(schedule, oracle) -> None:
    assert list(schedule.timelines) == list(oracle.timelines)
    for name, tl in schedule.timelines.items():
        assert [span_fields(s) for s in tl.spans] == [
            span_fields(s) for s in oracle.timelines[name]
        ], name


@PROPERTY_SETTINGS
@given(drawn=st.one_of(streams(), streams(coarse=True)),
       overlap=st.sampled_from(OVERLAP_MODES))
def test_stream_matches_object_oracle(drawn, overlap):
    works, releases, kills = drawn
    engine, oracle = EventEngine(), OracleEngine()
    stream = execute_stream(
        works, overlap=overlap, releases=releases, kills=kills, engine=engine
    )
    expected = oracle_stream(
        works, overlap=overlap, releases=releases, kills=kills, engine=oracle
    )
    assert_same_spans(stream, expected)
    assert engine.lane_stats == oracle.lane_stats
    for work in works:
        single, reference = EventEngine(FREQ), OracleEngine(FREQ)
        assert_same_spans(single.run(work), reference.run(work.items))
        assert single.lane_stats == reference.lane_stats


@PROPERTY_SETTINGS
@given(work=batch_works(0, micros=ticks, host_micros=ticks),
       at=st.sampled_from([0.0, 1e-4, 1.5e-4, 3e-3]),
       victim=st.sampled_from([PIM_BUS, HOST_CPU, dpu_resource(0), "network"]))
def test_absolute_kills_match_object_oracle(work, at, victim):
    engine, oracle = EventEngine(FREQ), OracleEngine(FREQ)
    assert_same_spans(
        engine.run(work, kills_at=[(victim, at)]),
        oracle.run(work.items, kills_at=[(victim, at)]),
    )
    assert engine.lane_stats == oracle.lane_stats


# --- The no-choice pass against the event heap ----------------------------


def derived_views(schedule, lane_stats) -> dict:
    """Every view the simulator derives from a schedule, exactly: spans
    lane by lane (``float.hex`` plus ``SpanTrace``), lane stats, batch
    timing, the makespan DPU's stages, utilization with the critical
    path, query windows, the lane-occupancy exposition, the Chrome
    trace and the ``repro.trace/v1`` record."""
    names, lo, hi = schedule.query_windows()
    registry = MetricsRegistry()
    observe_lane_occupancy(schedule, registry=registry)
    record = make_trace_record(name="views", config={}, schedule=schedule)
    return {
        "spans": [
            (name, [span_fields(s) for s in tl.spans])
            for name, tl in schedule.timelines.items()
        ],
        "lane_stats": lane_stats,
        "timing": repr(schedule.derive_batch_timing()),
        "worst_dpu": repr(schedule.worst_dpu_stage_cycles()),
        "utilization": [
            repr(utilization_report(schedule, collapse_dpus=c)) for c in (True, False)
        ],
        "windows": (names, lo.tobytes(), hi.tobytes()),
        "occupancy": registry_rows(registry),
        "chrome": json.dumps(schedule.to_chrome_trace(), sort_keys=True),
        "record": json.dumps(record, sort_keys=True),
    }


def assert_pass_matches_heap(dag: BatchWork, *, accepted: bool | None = None) -> None:
    """``EventEngine.run`` (the pass when it keeps the DAG) against the
    heap alone, view by view; ``accepted`` pins the pass's verdict."""
    if accepted is not None:
        assert (_place_without_choice(dag) is not None) == accepted
    engine, heap = EventEngine(FREQ), EventEngine(FREQ)
    got = derived_views(engine.run(dag), engine.lane_stats)
    want = derived_views(heap._run_heap(dag), heap.lane_stats)
    for key in want:
        assert got[key] == want[key], key


@PROPERTY_SETTINGS
@given(work=st.one_of(
    batch_works(0, sheds=False),
    batch_works(0, micros=ticks, host_micros=ticks,
                cycles=st.sampled_from([0.0, 3.5e4, 7e4]), sheds=False),
))
def test_no_choice_pass_matches_heap_on_engine_batches(work):
    """Engine-shaped batches (pinned retries, coarse ticks with zero
    durations and same-instant ends): the pass keeps every one whose
    lanes never tie, and every derived view equals the heap's."""
    ties = _place_without_choice(work) is None
    if ties:
        # Only a zero-length start on a shared lane can tie here.
        assert 0.0 in work._item_dur
    assert_pass_matches_heap(work)


@PROPERTY_SETTINGS
@given(drawn=st.one_of(streams(sheds=False), streams(coarse=True, sheds=False)))
def test_no_choice_pass_matches_heap_on_sequential_streams(drawn):
    """Sequential streams (batches gated by barrier nodes, optional
    release times) placed by the pass equal the heap's."""
    works, releases, _kills = drawn
    assert_pass_matches_heap(_merge(works, "sequential", releases))


@st.composite
def tiny_dags(draw) -> BatchWork:
    """Hand-built rows on two lanes with durations and release times
    from {0, 1, 2}: ties, zero-length spans, pinned items and
    lane predecessors that are not dependencies everywhere."""
    n = draw(st.integers(1, 7))
    rows = []
    for i in range(n):
        deps = draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True)) if i else []
        rows.append(WorkItem(
            uid=i,
            resource=draw(st.sampled_from([PIM_BUS, HOST_CPU])),
            stage=STAGE_TRANSFER_IN,
            duration=draw(st.sampled_from([0.0, 1.0, 2.0])),
            deps=tuple(deps),
            pinned=draw(st.booleans()),
            trace_ids=(f"q{i % 3}",),
            earliest=draw(st.sampled_from([0.0, 1.0, 2.0])),
        ))
    work = BatchWork(dpu_frequency_hz=FREQ)
    work.items = rows
    return work


@settings(max_examples=400, deadline=None)
@given(dag=tiny_dags())
def test_no_choice_pass_matches_heap_on_tied_dags(dag):
    assert_pass_matches_heap(dag)


def rows_dag(*rows: tuple) -> BatchWork:
    """Hand-built rows ``(resource, duration, deps, earliest, pinned)``."""
    work = BatchWork(dpu_frequency_hz=FREQ)
    work.items = [
        WorkItem(uid=i, resource=r, stage=STAGE_TRANSFER_IN, duration=d,
                 deps=deps, pinned=pinned, trace_ids=("q",), earliest=e)
        for i, (r, d, deps, e, pinned) in enumerate(rows)
    ]
    return work


def test_pass_refuses_a_zero_length_predecessor_at_ready_time():
    """Item 1 is item 2's lane predecessor but not its dependency, has
    zero length and ends exactly when item 2 is ready.  Item 2 arrived
    first (at release), so the heap starts it and queues item 1."""
    dag = rows_dag(
        (HOST_CPU, 1.0, (), 0.0, False),
        (PIM_BUS, 0.0, (0,), 0.0, False),
        (PIM_BUS, 0.5, (), 1.0, False),
    )
    assert_pass_matches_heap(dag, accepted=False)
    bus = EventEngine(FREQ).run(dag).timelines[PIM_BUS].spans
    assert [(s.trace.uid, s.t0) for s in bus] == [(2, 1.0), (1, 1.5)]


def test_pass_refuses_a_pinned_item_behind_a_foreign_predecessor():
    """A pinned item holds its lane from its lane dependency's end to
    its own ready time, so the unrelated item released in between
    queues behind it."""
    dag = rows_dag(
        (PIM_BUS, 1.0, (), 0.0, False),
        (PIM_BUS, 0.1, (), 1.5, False),
        (PIM_BUS, 1.0, (0,), 2.0, True),
    )
    assert_pass_matches_heap(dag, accepted=False)
    bus = EventEngine(FREQ).run(dag).timelines[PIM_BUS].spans
    assert [(s.trace.uid, s.t0) for s in bus] == [(0, 0.0), (2, 2.0), (1, 3.0)]


@pytest.mark.parametrize("rows", [
    # A dependency pointing forward (hand-built rows may).
    [(PIM_BUS, 1.0, (1,), 0.0, False), (HOST_CPU, 1.0, (), 0.0, False)],
    # Negative and negative-zero releases: the heap clamps the first to
    # the lane, and the sign of a zero start reaches cross-lane views.
    [(PIM_BUS, 1.0, (), -1.0, False)],
    [(PIM_BUS, 0.0, (), -0.0, False), (HOST_CPU, 1.0, (), 0.0, False)],
    # Non-finite ends.
    [(PIM_BUS, math.inf, (), 0.0, False), (PIM_BUS, 1.0, (0,), 0.0, False)],
])
def test_pass_refuses_what_the_heap_must_decide(rows):
    assert _place_without_choice(rows_dag(*rows)) is None


def test_pass_keeps_the_engine_batch(small_dataset, history_queries, trained_index,
                                     small_queries):
    """A whole engine batch has no lane choice: every item starts at
    its ready time, with no wait."""
    engine = UpANNSEngine(SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
    ))
    engine.build(small_dataset.vectors, history_queries=history_queries,
                 prebuilt_index=trained_index)
    work = engine.search_batch(small_queries).work
    assert_pass_matches_heap(work, accepted=True)
    engine = EventEngine(FREQ)
    schedule = engine.run(work)
    assert not schedule.columns().wait.any()
    assert {s.peak_outstanding for s in engine.lane_stats.values()} == {1}


#: Every column of a work description, by name.
WORK_COLUMNS = (
    "_item_res", "_item_stage", "_item_dur", "_item_cycles", "_item_pinned",
    "_item_earliest", "_item_dep_ptr", "_item_deps", "_item_tid_ptr",
    "_item_tids", "_item_batch", "_item_barriers",
)


def work_columns(work: BatchWork) -> dict:
    cols = {name: list(getattr(work, name) or []) for name in WORK_COLUMNS}
    cols["_item_dur"] = [x.hex() for x in cols["_item_dur"]]
    cols["_item_cycles"] = [hex_or_none(x) for x in cols["_item_cycles"]]
    cols["_item_counters"] = [id(c) for c in work._item_counters]
    for table in ("_item_lanes", "_item_stages", "_item_trace_ids"):
        cols[table] = list(getattr(work, table).items())
    return cols


@st.composite
def dpu_chain_calls(draw):
    """A work description already holding items (built by ``work`` or
    as hand-built rows), then one chain call's arguments."""
    queries = draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
    ids = tuple(f"q{i}" for i in queries)
    n_before = draw(st.integers(0 if draw(st.booleans()) else 1, 4))
    rows = draw(st.booleans())
    dpus = draw(st.lists(st.integers(0, 7), max_size=5, unique=True))
    matrix = [[draw(cycles) for _ in range(5)] for _ in dpus]
    counters = [object() for _ in dpus]
    per_dpu = [
        draw(st.lists(st.integers(0, len(ids) - 1), max_size=4)) if ids else []
        for _ in dpus
    ]
    after = draw(
        st.lists(st.one_of(st.none(), st.integers(0, max(n_before - 1, 0))), max_size=2)
    ) if n_before else []
    csr = draw(st.booleans())
    pre = [
        (draw(st.sampled_from([HOST_CPU, PIM_BUS, dpu_resource(1)])), draw(micros),
         tuple(draw(st.lists(st.sampled_from(("q1", "x", "q4")), max_size=2))))
        for _ in range(n_before)
    ]
    return pre, rows, dpus, matrix, counters, ids, per_dpu, after, csr


@PROPERTY_SETTINGS
@given(call=dpu_chain_calls())
def test_dpu_chains_match_per_dpu_loop(call):
    """One array chain call leaves every column, id table and span the
    per-DPU loop leaves: uids, dependencies, trace-id CSR, first-use
    lane/stage/id order and ``duration == cycles / f``."""
    pre, rows, dpus, matrix, counters, ids, per_dpu, after, csr = call
    ptr = [0, *np.cumsum([len(p) for p in per_dpu]).tolist()]
    idx = [i for p in per_dpu for i in p]
    kwargs = dict(after=after, trace_ids=ids)
    if csr:
        kwargs.update(trace_ptr=ptr, trace_idx=idx)
    works = []
    for emit in ("array", "loop"):
        work = BatchWork(dpu_frequency_hz=FREQ, batch=2)
        for lane, dur, tids in pre:
            work.work(lane, STAGE_SCHEDULE, dur, trace_ids=tids)
        if rows:
            work.items = work.items
        if emit == "array":
            stages = np.array(matrix).reshape(-1, 5)
            tails = work.work_dpu_stages(dpus, stages, counters, **kwargs)
        else:
            tails = loop_dpu_stages(work, dpus, matrix, counters, **kwargs)
        works.append((work, tails))
    (got, got_tails), (want, want_tails) = works
    assert got_tails == want_tails
    assert work_columns(got) == work_columns(want)
    assert_same_spans(got.execute(), OracleEngine(FREQ).run(want.items))


# --- Column reductions against plain loops over the materialized spans ---


def all_spans(schedule):
    return [s for tl in schedule.timelines.values() for s in tl.spans]


def loop_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def loop_query_latencies(schedule) -> dict[str, float]:
    windows: dict[str, tuple[float, float]] = {}
    for span in all_spans(schedule):
        ready = span.t0 - span.trace.wait_s
        for qid in span.trace.trace_ids:
            lo, hi = windows.get(qid, (ready, span.t1))
            windows[qid] = (min(lo, ready), max(hi, span.t1))
    return {qid: hi - lo for qid, (lo, hi) in sorted(windows.items())}


def loop_worst_dpu(schedule) -> dict[str, float]:
    worst, worst_cycles = None, 0.0
    for tl in schedule.dpu_timelines():
        busy = loop_sum(s.cycles for s in tl.spans if s.cycles is not None)
        if worst is None or busy > worst_cycles:
            worst, worst_cycles = tl, busy
    per_stage: dict[str, float] = {}
    for span in worst.spans if worst else ():
        if span.cycles is not None:
            per_stage[span.stage] = per_stage.get(span.stage, 0.0) + span.cycles
    return per_stage


def loop_occupancy(schedule, reg: MetricsRegistry) -> None:
    """``observe_lane_occupancy`` as it was: per-span Python loops."""
    makespan = max((s.t1 for s in all_spans(schedule)), default=0.0)
    for resource in sorted(schedule.timelines):
        spans = schedule.timelines[resource].spans
        busy = loop_sum(s.duration for s in spans)
        reg.gauge("repro_lane_busy_seconds", "", ("resource",)).labels(
            resource=resource).set(busy)
        reg.gauge("repro_lane_idle_seconds", "", ("resource",)).labels(
            resource=resource).set(max(0.0, makespan - busy))
        events = []
        for s in spans:
            wait = s.trace.wait_s if s.trace is not None else 0.0
            events += [(s.t0 - wait, 1), (s.t1, -1)]
            if s.trace is not None and wait > 0.0:
                reg.histogram("repro_lane_queue_wait_seconds", "", ("resource",)
                              ).labels(resource=resource).observe(
                    wait, exemplar=s.trace.trace_ids[0] if s.trace.trace_ids else None)
        depth = 0
        child = reg.histogram("repro_lane_outstanding", "", ("resource",),
                              buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
                              ).labels(resource=resource)
        for _t, delta in sorted(events):
            depth += delta
            if delta > 0:
                child.observe(depth)


def registry_rows(reg: MetricsRegistry) -> list[tuple]:
    rows = []
    for family in reg.families():
        for child in family.children():
            if hasattr(child, "counts"):
                state = (child.counts, child.inf_count, child.sum.hex(), child.count,
                         {k: (v.hex(), e) for k, (v, e) in child.exemplars.items()})
            else:
                state = child.value.hex()
            rows.append((family.name, sorted(child.labels.items()), state))
    return sorted(rows)


def naive_critical_path(schedule, collapse_dpus: bool = True) -> dict[str, float]:
    """The quadratic backward walk the sweep replaced (every step
    rescans every span)."""
    spans = [s for s in all_spans(schedule) if s.duration > 0]
    attribution: dict[str, float] = {}
    t = schedule.makespan
    if not spans or t <= 0:
        return attribution
    while t > 0:
        best, best_key = None, None
        for span in spans:
            if span.t0 < t <= span.t1:
                key = (span.t0, span.t1, span.resource)
                if best_key is None or key > best_key:
                    best, best_key = span, key
        if best is None:
            prev_end = max((s.t1 for s in spans if s.t1 < t), default=0.0)
            attribution["(wait)"] = attribution.get("(wait)", 0.0) + (t - prev_end)
            t = prev_end
        else:
            group = ("dpu/*" if collapse_dpus and best.resource.startswith("dpu/")
                     else best.resource)
            attribution[group] = attribution.get(group, 0.0) + (t - best.t0)
            t = best.t0
    return attribution


@PROPERTY_SETTINGS
@given(drawn=st.one_of(streams(), streams(coarse=True)),
       overlap=st.sampled_from(OVERLAP_MODES))
def test_column_reductions_match_span_loops(drawn, overlap):
    works, releases, kills = drawn
    stream = execute_stream(works, overlap=overlap, releases=releases, kills=kills)
    for schedule in [stream, *(w.execute() for w in works)]:
        spans = all_spans(schedule)
        assert schedule.makespan == max((s.t1 for s in spans), default=0.0)
        got = query_latencies(schedule)
        want = loop_query_latencies(schedule)
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
        timing = schedule.derive_batch_timing()
        for field_name, stage in (("host_filter_s", STAGE_CLUSTER_FILTER),
                                  ("transfer_in_s", STAGE_TRANSFER_IN),
                                  ("retry_s", STAGE_RETRY),
                                  ("host_aggregate_s", STAGE_AGGREGATE)):
            want_s = loop_sum(s.duration for s in spans if s.stage == stage)
            assert getattr(timing, field_name).hex() == want_s.hex()
        worst = schedule.worst_dpu_stage_cycles().as_dict()
        for stage, total in loop_worst_dpu(schedule).items():
            assert worst[stage].hex() == total.hex()
        report = utilization_report(schedule, collapse_dpus=False)
        for row in report.resources:
            tl = schedule.timelines[row.resource]
            assert row.busy_s.hex() == loop_sum(s.duration for s in tl.spans).hex()
            assert row.busy_s.hex() == tl.busy_seconds().hex()
        for collapse in (True, False):
            got_path = critical_path_attribution(schedule, collapse_dpus=collapse)
            want_path = naive_critical_path(schedule, collapse)
            assert [(k, v.hex()) for k, v in got_path.items()] == [
                (k, v.hex()) for k, v in want_path.items()
            ]
        columnar, looped = MetricsRegistry(), MetricsRegistry()
        observe_lane_occupancy(schedule, registry=columnar)
        loop_occupancy(schedule, looped)
        assert registry_rows(columnar) == registry_rows(looped)

    requests = [
        SimpleNamespace(trace_id=qid, arrival_s=0.0, latency_s=None)
        for qid in loop_query_latencies(stream)
    ]
    ServingFrontend._finalize_latencies(None, requests, stream)
    for req in requests:
        end = max(s.t1 for s in all_spans(stream) if req.trace_id in s.trace.trace_ids)
        assert req.latency_s.hex() == max(0.0, end - req.arrival_s).hex()
