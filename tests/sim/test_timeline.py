"""Span / ResourceTimeline / BatchSchedule invariants and trace export."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.hardware.counters import StageCycles
from repro.sim import (
    HOST_CPU,
    PIM_BUS,
    BatchSchedule,
    ResourceTimeline,
    Span,
    chrome_trace,
    dpu_resource,
    is_dpu_resource,
    record,
    validate_chrome_trace,
)


class TestSpan:
    def test_t1_is_start_plus_duration(self):
        span = Span(HOST_CPU, "schedule", 1.0, 0.25)
        assert span.t1 == 1.25

    def test_negative_duration_raises(self):
        with pytest.raises(ConfigError):
            Span(HOST_CPU, "schedule", 0.0, -1e-9)

    def test_negative_start_raises(self):
        with pytest.raises(ConfigError):
            Span(HOST_CPU, "schedule", -0.1, 1.0)

    def test_dpu_resource_names(self):
        assert dpu_resource(7) == "dpu/7"
        assert is_dpu_resource("dpu/0")
        assert not is_dpu_resource(HOST_CPU)


class TestResourceTimeline:
    def test_append_enforces_resource_match(self):
        tl = ResourceTimeline(HOST_CPU)
        with pytest.raises(ConfigError):
            tl.append(Span(PIM_BUS, "transfer_in", 0.0, 1.0))

    def test_append_enforces_non_overlap(self):
        tl = ResourceTimeline(HOST_CPU)
        tl.append(Span(HOST_CPU, "a", 0.0, 1.0))
        with pytest.raises(ConfigError):
            tl.append(Span(HOST_CPU, "b", 0.5, 1.0))

    def test_end_and_busy_seconds(self):
        tl = ResourceTimeline(HOST_CPU)
        assert tl.end == 0.0
        tl.append(Span(HOST_CPU, "a", 0.0, 1.0))
        tl.append(Span(HOST_CPU, "b", 2.0, 0.5))
        assert tl.end == 2.5
        assert tl.busy_seconds() == 1.5  # gaps don't count

    def test_spans_are_read_only(self):
        sched = BatchSchedule()
        sched.record(HOST_CPU, "a", 1.0)
        spans = sched.timeline(HOST_CPU).spans
        for mutate in (
            lambda: spans.append(Span(HOST_CPU, "b", 1.0, 1.0)),
            lambda: spans.extend([]),
            lambda: spans.insert(0, spans[0]),
            lambda: spans.__setitem__(0, spans[0]),
            lambda: spans.pop(),
        ):
            with pytest.raises(ConfigError, match="read-only"):
                mutate()
        assert sched.makespan == 1.0 and len(spans) == 1

    def test_busy_sums_are_sequential_not_compensated(self):
        """Ten 0.1 s spans: the left-to-right sum is 0.9999999999999999;
        Python 3.12's compensated ``sum()`` would say 1.0."""
        from repro.telemetry.pipeline import observe_lane_occupancy
        from repro.telemetry.registry import MetricsRegistry
        from repro.telemetry.report import utilization_report

        sched = BatchSchedule()
        for _ in range(10):
            sched.record(HOST_CPU, "a", 0.1)
        busy = sched.timeline(HOST_CPU).busy_seconds()
        total = 0.0
        for _ in range(10):
            total += 0.1
        assert busy.hex() == total.hex() == (0.9999999999999999).hex()
        report = utilization_report(sched)
        assert report.resource(HOST_CPU).busy_s.hex() == busy.hex()
        reg = MetricsRegistry()
        observe_lane_occupancy(sched, registry=reg)
        gauge = reg.get("repro_lane_busy_seconds").labels(resource=HOST_CPU)
        assert gauge.value.hex() == busy.hex()

    def test_stage_seconds_filters(self):
        tl = ResourceTimeline(HOST_CPU)
        tl.append(Span(HOST_CPU, "a", 0.0, 1.0))
        tl.append(Span(HOST_CPU, "b", 1.0, 0.5))
        tl.append(Span(HOST_CPU, "a", 1.5, 0.25))
        assert tl.stage_seconds("a") == 1.25


class TestBatchSchedule:
    def test_record_appends_back_to_back(self):
        sched = BatchSchedule()
        sched.record(HOST_CPU, "a", 1.0)
        span = sched.record(HOST_CPU, "b", 0.5)
        assert span.t0 == 1.0
        assert sched.makespan == 1.5

    def test_record_at_clamps_to_lane_end(self):
        sched = BatchSchedule()
        sched.record(HOST_CPU, "a", 1.0)
        span = sched.record_at(HOST_CPU, "b", 0.25, 0.5)
        assert span.t0 == 1.0  # requested 0.25, lane busy until 1.0

    def test_makespan_spans_resources(self):
        sched = BatchSchedule()
        sched.record(HOST_CPU, "a", 1.0)
        sched.record_at(PIM_BUS, "transfer_in", 1.0, 2.0)
        assert sched.makespan == 3.0
        assert sched.makespan == max(tl.end for tl in sched.timelines.values())

    def test_module_level_record_helper(self):
        sched = BatchSchedule()
        span = record(sched, HOST_CPU, "a", 0.5)
        assert sched.timeline(HOST_CPU).spans == [span]

    def test_dpu_stages_require_frequency(self):
        sched = BatchSchedule()
        with pytest.raises(ConfigError):
            sched.record_dpu_stages(0, StageCycles(distance_calc=100.0))

    def test_dpu_stage_spans_carry_cycles(self):
        sched = BatchSchedule(dpu_frequency_hz=350e6)
        stage = StageCycles(lut_construction=70.0, distance_calc=350.0)
        sched.record_dpu_stages(0, stage)
        lane = sched.timeline(dpu_resource(0))
        assert lane.busy_cycles() == stage.total
        timing = sched.derive_batch_timing()
        assert timing.dpu_makespan_s == stage.total / 350e6

    def test_worst_dpu_matches_first_strict_max(self):
        sched = BatchSchedule(dpu_frequency_hz=350e6)
        sched.record_dpu_stages(0, StageCycles(distance_calc=100.0))
        sched.record_dpu_stages(1, StageCycles(distance_calc=300.0))
        sched.record_dpu_stages(2, StageCycles(distance_calc=300.0))
        worst = sched.worst_dpu_stage_cycles()
        assert worst.distance_calc == 300.0

    def test_empty_schedule_derives_zero_timing(self):
        timing = BatchSchedule().derive_batch_timing()
        assert timing.total_s == 0.0


class TestChromeTrace:
    def make_schedule(self) -> BatchSchedule:
        sched = BatchSchedule(dpu_frequency_hz=350e6)
        sched.record(HOST_CPU, "cluster_filter", 1e-4)
        sched.record(HOST_CPU, "schedule", 2e-5)
        sched.record_at(PIM_BUS, "transfer_in", sched.timeline(HOST_CPU).end, 5e-5)
        sched.record_dpu_stages(
            0,
            StageCycles(lut_construction=100.0, distance_calc=900.0),
            start_s=sched.timeline(PIM_BUS).end,
        )
        return sched

    def test_trace_is_valid(self):
        payload = chrome_trace(self.make_schedule())
        assert validate_chrome_trace(payload) == []

    def test_x_events_cover_every_span(self):
        sched = self.make_schedule()
        payload = sched.to_chrome_trace()
        n_spans = sum(len(tl.spans) for tl in sched.timelines.values())
        x_events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == n_spans

    def test_thread_metadata_per_resource(self):
        sched = self.make_schedule()
        payload = sched.to_chrome_trace()
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == set(sched.resources())

    def test_validator_catches_overlap(self):
        payload = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0.0, "dur": 10.0},
                {"ph": "X", "name": "b", "pid": 0, "tid": 0, "ts": 5.0, "dur": 10.0},
            ]
        }
        errors = validate_chrome_trace(payload)
        assert errors and "overlap" in errors[0]

    def test_validator_catches_negative_duration(self):
        payload = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0.0, "dur": -1.0}
            ]
        }
        assert validate_chrome_trace(payload) != []

    def test_validator_rejects_non_dict(self):
        assert validate_chrome_trace([]) != []
