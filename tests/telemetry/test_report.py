"""Utilization + critical-path attribution over hand-built schedules."""

import pytest

from repro.sim import HOST_CPU, PIM_BUS, BatchSchedule
from repro.telemetry.report import (
    DPU_GROUP,
    WAIT,
    critical_path_attribution,
    utilization_report,
)


def serial_schedule() -> BatchSchedule:
    """host 0-1s, bus 1-2s, dpu/0 2-4s, dpu/1 2-3s (makespan 4)."""
    s = BatchSchedule()
    s.record_at(HOST_CPU, "filter", 0.0, 1.0)
    s.record_at(PIM_BUS, "transfer_in", 1.0, 1.0)
    s.record_at("dpu/0", "search", 2.0, 2.0)
    s.record_at("dpu/1", "search", 2.0, 1.0)
    return s


class TestUtilization:
    def test_busy_idle_and_utilization(self):
        report = utilization_report(serial_schedule())
        assert report.makespan_s == pytest.approx(4.0)
        host = report.resource(HOST_CPU)
        assert host.busy_s == pytest.approx(1.0)
        assert host.idle_s == pytest.approx(3.0)
        assert host.utilization == pytest.approx(0.25)

    def test_dpu_lanes_collapse(self):
        report = utilization_report(serial_schedule())
        dpus = report.resource(DPU_GROUP)
        assert dpus.n_lanes == 2
        assert dpus.n_spans == 2
        assert dpus.busy_s == pytest.approx(3.0)
        # 3 busy seconds over 2 lanes x 4 s window.
        assert dpus.utilization == pytest.approx(3.0 / 8.0)

    def test_no_collapse_keeps_lanes(self):
        report = utilization_report(serial_schedule(), collapse_dpus=False)
        assert report.resource("dpu/0").busy_s == pytest.approx(2.0)
        assert report.resource("dpu/1").busy_s == pytest.approx(1.0)

    def test_empty_schedule(self):
        report = utilization_report(BatchSchedule())
        assert report.makespan_s == 0.0
        assert report.resources == []
        assert report.critical_path == {}

    def test_unknown_resource_raises(self):
        with pytest.raises(KeyError):
            utilization_report(serial_schedule()).resource("gpu")


class TestCriticalPath:
    def test_serial_chain_fully_attributed(self):
        path = critical_path_attribution(serial_schedule())
        assert path == {
            HOST_CPU: pytest.approx(1.0),
            PIM_BUS: pytest.approx(1.0),
            DPU_GROUP: pytest.approx(2.0),
        }
        assert sum(path.values()) == pytest.approx(4.0)

    def test_gap_becomes_wait(self):
        s = BatchSchedule()
        s.record_at(HOST_CPU, "a", 0.0, 1.0)
        s.record_at(HOST_CPU, "b", 3.0, 1.0)  # 2 s uncovered gap
        path = critical_path_attribution(s)
        assert path[WAIT] == pytest.approx(2.0)
        assert path[HOST_CPU] == pytest.approx(2.0)

    def test_latest_starting_span_wins_overlaps(self):
        s = BatchSchedule()
        s.record_at(HOST_CPU, "long", 0.0, 4.0)
        s.record_at(PIM_BUS, "late", 3.0, 1.0)  # covers (3, 4] too
        path = critical_path_attribution(s)
        assert path[PIM_BUS] == pytest.approx(1.0)
        assert path[HOST_CPU] == pytest.approx(3.0)

    def test_attribution_covers_makespan(self):
        path = critical_path_attribution(serial_schedule())
        assert sum(path.values()) == pytest.approx(4.0)


def stream_works(n_batches=3, *, filter_s=1.0, tin_s=2.0, dpu_s=1.0):
    """Synthetic engine-shaped batches for the discrete-event core."""
    from repro.hardware.counters import StageCycles
    from repro.sim import (
        STAGE_AGGREGATE,
        STAGE_CLUSTER_FILTER,
        STAGE_TRANSFER_IN,
        STAGE_TRANSFER_OUT,
        BatchWork,
    )

    freq = 350e6
    works = []
    for b in range(n_batches):
        w = BatchWork(dpu_frequency_hz=freq, batch=b)
        host = w.work(HOST_CPU, STAGE_CLUSTER_FILTER, filter_s)
        tin = w.work(PIM_BUS, STAGE_TRANSFER_IN, tin_s, after=(host,))
        stage = StageCycles(distance_calc=dpu_s * freq)
        (tail,) = w.work_dpu_stages(
            [0], [list(stage.as_dict().values())], [stage], after=(tin,)
        )
        tout = w.work(PIM_BUS, STAGE_TRANSFER_OUT, 0.5, after=(tail,))
        w.work(HOST_CPU, STAGE_AGGREGATE, 0.25, after=(tout,))
        works.append(w)
    return works


class TestEventStreamReport:
    """Satellite coverage: reports over ``execute_stream`` schedules."""

    def test_interleaved_double_buffer_fully_attributed(self):
        from repro.sim import execute_stream

        sched = execute_stream(stream_works(3), overlap="double_buffer")
        report = utilization_report(sched)
        assert sum(report.critical_path.values()) == pytest.approx(
            report.makespan_s
        )
        # The event core is work-conserving: an item dispatches the
        # instant its lane frees and its deps finish, so until the
        # stream drains some lane is always busy — interleaved batches
        # produce per-item queue waits (SpanTrace.wait_s, surfaced by
        # `repro.cli explain`), never a globally uncovered instant.
        assert WAIT not in report.critical_path

    def test_bus_contention_shows_in_utilization(self):
        from repro.sim import execute_stream

        sched = execute_stream(stream_works(3), overlap="double_buffer")
        report = utilization_report(sched)
        bus = report.resource(PIM_BUS)
        assert bus.busy_s == pytest.approx(3 * 2.0 + 3 * 0.5)
        assert bus.busy_s + bus.idle_s == pytest.approx(report.makespan_s)
        # Aggregation moved to its own lane under double_buffer.
        assert report.resource("host_agg").busy_s == pytest.approx(3 * 0.25)

    def test_kill_truncated_stream_still_sums(self):
        from repro.sim import execute_stream

        sched = execute_stream(
            stream_works(3, dpu_s=10.0),
            overlap="double_buffer",
            kills={"dpu/0": 1},
        )
        report = utilization_report(sched)
        assert sum(report.critical_path.values()) == pytest.approx(
            report.makespan_s
        )
        assert WAIT not in report.critical_path

    def test_stalled_intake_between_waves_becomes_wait(self):
        # A second wave arriving after the stream drains (e.g. an idle
        # service between bursts) is the one way an event-core timeline
        # legitimately goes globally idle — the report must attribute
        # the hole to (wait), not smear it over resources.
        from repro.sim import execute_stream

        sched = execute_stream(stream_works(2), overlap="double_buffer")
        drained = sched.makespan
        sched.record_at(HOST_CPU, "cluster_filter", drained + 1.5, 1.0)
        report = utilization_report(sched)
        assert report.critical_path[WAIT] == pytest.approx(1.5)
        assert sum(report.critical_path.values()) == pytest.approx(
            report.makespan_s
        )


class TestRendering:
    def test_to_json_matches_schema_expectations(self):
        payload = utilization_report(serial_schedule()).to_json()
        assert set(payload) == {"makespan_s", "resources", "critical_path"}
        assert {r["resource"] for r in payload["resources"]} == {
            HOST_CPU,
            PIM_BUS,
            DPU_GROUP,
        }

    def test_render_text_mentions_resources_and_path(self):
        text = utilization_report(serial_schedule()).render_text()
        assert "resource" in text
        assert DPU_GROUP in text
        assert "critical path:" in text
