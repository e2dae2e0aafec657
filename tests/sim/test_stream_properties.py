"""Generated-stream properties of the event core.

Small engine-shaped streams — host prep, transfer-in plus pinned
retries, per-DPU stage chains with random cycles, gather, aggregate —
with optional arrival releases and an optional mid-flight DPU kill.
The fixed engine-stream tests (``tests/core/test_service.py``) keep the
"double buffering beats sequential" check: FIFO list scheduling has
anomalies, so it is not a property of arbitrary DAGs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hardware.counters import StageCycles
from repro.sanitize import sanitize_schedule
from repro.sim import (
    HOST_CPU,
    OVERLAP_MODES,
    PIM_BUS,
    STAGE_AGGREGATE,
    STAGE_CLUSTER_FILTER,
    STAGE_RETRY,
    STAGE_SCHEDULE,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchWork,
    dpu_resource,
    execute_stream,
)

FREQ = 350e6
N_DPUS = 4

micros = st.integers(0, 5000).map(lambda us: us * 1e-6)
# Host prep short next to DPU compute (up to ~8.6 ms per stage), so a
# double-buffered batch's transfer-in often lands while the previous
# batch still computes and a kill there truncates a span mid-flight.
host_micros = st.integers(0, 500).map(lambda us: us * 1e-6)
cycles = st.integers(0, 3_000_000).map(float)


@st.composite
def batch_works(draw, batch: int) -> BatchWork:
    """One batch description shaped like the engines emit."""
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
            PIM_BUS, STAGE_RETRY, draw(micros), after=(last_in,), pinned=True
        )
    dpus = draw(
        st.lists(st.integers(0, N_DPUS - 1), min_size=1, max_size=N_DPUS, unique=True)
    )
    tails = [
        work.work_dpu_stages(
            d,
            StageCycles(
                lut_construction=draw(cycles),
                distance_calc=draw(cycles),
                topk_selection=draw(cycles),
            ),
            after=(last_in,),
            trace_ids=ids,
        )
        for d in dpus
    ]
    gather = work.work(
        PIM_BUS, STAGE_TRANSFER_OUT, draw(micros), after=tails, trace_ids=ids
    )
    work.work(HOST_CPU, STAGE_AGGREGATE, draw(micros), after=(gather,), trace_ids=ids)
    return work


@st.composite
def streams(draw):
    n = draw(st.integers(1, 4))
    works = [draw(batch_works(b)) for b in range(n)]
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
