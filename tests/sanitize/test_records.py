"""Record-level conservation: golden fixtures clean, tampered flagged,
and the ``repro.sanitize/v1`` report contract."""

from __future__ import annotations

import copy
import json
from pathlib import Path

from repro.sanitize import (
    SAN_LEDGER,
    SAN_SCHEMA,
    SanFinding,
    detect_kind,
    make_sanitize_record,
    sanitize_chaos_record,
    sanitize_golden_timings,
    sanitize_payload,
    sanitize_result_record,
    sanitize_serve_record,
    with_source,
)
from repro.telemetry.schema import SANITIZE_SCHEMA, validate_sanitize_record

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_TIMINGS = json.loads(
    (REPO_ROOT / "tests" / "sim" / "golden_timings.json").read_text()
)
GOLDEN_CHAOS = json.loads(
    (REPO_ROOT / "tests" / "integration" / "golden_chaos.json").read_text()
)


class TestDetectKind:
    def test_trace(self):
        assert detect_kind({"traceEvents": []}) == "trace"

    def test_chaos(self):
        assert detect_kind(GOLDEN_CHAOS) == "chaos"

    def test_golden(self):
        assert detect_kind(GOLDEN_TIMINGS) == "golden"

    def test_result_and_perf_and_sanitize(self):
        assert detect_kind({"schema": "repro.bench.result/v1"}) == "result"
        assert detect_kind({"schema": SANITIZE_SCHEMA}) == "sanitize"

    def test_unknown(self):
        assert detect_kind([1, 2]) == "unknown"
        assert detect_kind({"x": 1}) == "unknown"

    def test_unknown_payload_is_a_schema_finding(self):
        findings = sanitize_payload({"x": 1})
        assert [f.code for f in findings] == [SAN_SCHEMA]


class TestGoldenTimingsConservation:
    def test_committed_fixture_is_clean(self):
        assert sanitize_golden_timings(GOLDEN_TIMINGS) == []

    def test_tampered_total_is_bit_exact_ledger_finding(self):
        tampered = copy.deepcopy(GOLDEN_TIMINGS)
        parts = tampered["upanns"]["timing"]
        # One ULP of drift must be enough to trip the check.
        total = float.fromhex(parts["total_s"])
        import math

        parts["total_s"] = math.nextafter(total, math.inf).hex()
        findings = sanitize_golden_timings(tampered)
        assert [f.code for f in findings] == [SAN_LEDGER]
        assert "upanns.timing.total_s" in findings[0].location

    def test_negative_part_is_flagged(self):
        tampered = copy.deepcopy(GOLDEN_TIMINGS)
        tampered["flat"]["timing"]["retry_s"] = (-1.0).hex()
        findings = sanitize_golden_timings(tampered)
        assert any(f.code == SAN_LEDGER for f in findings)

    def test_unreadable_hex_is_schema_finding(self):
        tampered = copy.deepcopy(GOLDEN_TIMINGS)
        tampered["upanns"]["timing"]["total_s"] = "not-hex"
        findings = sanitize_golden_timings(tampered)
        assert [f.code for f in findings] == [SAN_SCHEMA]


class TestChaosConservation:
    def test_committed_record_is_clean(self):
        assert sanitize_chaos_record(GOLDEN_CHAOS) == []

    def test_tampered_retry_seconds(self):
        tampered = copy.deepcopy(GOLDEN_CHAOS)
        tampered["recovery"]["retry_seconds"] += 1.0
        findings = sanitize_chaos_record(tampered)
        assert [f.code for f in findings] == [SAN_LEDGER]
        assert findings[0].location == "recovery.retry_seconds"

    def test_tampered_batch_count(self):
        tampered = copy.deepcopy(GOLDEN_CHAOS)
        tampered["config"]["batches"] += 2
        findings = sanitize_chaos_record(tampered)
        assert any(f.location == "batches" for f in findings)

    def test_tampered_coverage_floor(self):
        tampered = copy.deepcopy(GOLDEN_CHAOS)
        tampered["degradation"]["coverage_floor"] = 0.123
        findings = sanitize_chaos_record(tampered)
        assert any(f.location == "degradation.coverage_floor" for f in findings)

    def test_tampered_pair_counters(self):
        tampered = copy.deepcopy(GOLDEN_CHAOS)
        tampered["faults"]["rerouted_pairs"] += 7
        findings = sanitize_chaos_record(tampered)
        assert any(f.location == "faults.rerouted_pairs" for f in findings)


class TestResultConservation:
    def make_record(self) -> dict:
        return {
            "schema": "repro.bench.result/v1",
            "utilization": {
                "makespan_s": 10.0,
                "critical_path": {"host_cpu": 4.0, "pim_bus": 6.0},
                "resources": [
                    {
                        "resource": "dpu",
                        "busy_s": 12.0,
                        "idle_s": 8.0,
                        "n_lanes": 2,
                    }
                ],
            },
        }

    def test_consistent_record_is_clean(self):
        assert sanitize_result_record(self.make_record()) == []

    def test_critical_path_gap_is_flagged(self):
        record = self.make_record()
        record["utilization"]["critical_path"]["pim_bus"] = 3.0
        findings = sanitize_result_record(record)
        assert [f.code for f in findings] == [SAN_LEDGER]
        assert "critical_path" in findings[0].location

    def test_busy_idle_window_mismatch_is_flagged(self):
        record = self.make_record()
        record["utilization"]["resources"][0]["idle_s"] = 5.0
        findings = sanitize_result_record(record)
        assert [f.code for f in findings] == [SAN_LEDGER]


class TestSanitizeRecordContract:
    def test_round_trip_validates(self):
        findings = with_source(
            [SanFinding("SAN-OVERLAP", "pim_bus", "overlapping spans")],
            "trace.json",
        )
        record = make_sanitize_record(
            name="unit",
            inputs=[{"path": "trace.json", "kind": "trace", "findings": 1}],
            findings=findings,
        )
        assert record["schema"] == SANITIZE_SCHEMA
        assert record["count"] == 1
        assert record["findings"][0]["source"] == "trace.json"
        assert validate_sanitize_record(record) == []

    def test_validator_rejects_count_mismatch(self):
        record = make_sanitize_record(name="unit", inputs=[], findings=[])
        record["count"] = 5
        assert validate_sanitize_record(record) != []

    def test_validator_rejects_missing_fields(self):
        record = make_sanitize_record(name="unit", inputs=[], findings=[])
        record["findings"] = [{"code": "SAN-OVERLAP"}]
        record["count"] = 1
        assert validate_sanitize_record(record) != []

    def test_schema_cli_recognizes_sanitize_records(self, tmp_path):
        import os
        import subprocess
        import sys

        record = make_sanitize_record(name="unit", inputs=[], findings=[])
        path = tmp_path / "san.json"
        path.write_text(json.dumps(record))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.schema", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "sanitize" in proc.stdout + proc.stderr


class TestTraceRecordConservation:
    """``repro.trace/v1``: query windows must derive from the spans."""

    def record(self):
        from tests.tracing.test_record import traced_record

        return traced_record(2)

    def test_detect_kind(self):
        from repro.sanitize import sanitize_trace_record  # noqa: F401

        assert detect_kind(self.record()) == "tracerec"

    def test_exported_record_is_clean(self):
        from repro.sanitize import sanitize_trace_record

        assert sanitize_trace_record(self.record()) == []
        assert sanitize_payload(self.record()) == []

    def test_tampered_latency_is_san_ledger(self):
        from repro.sanitize import sanitize_trace_record

        record = self.record()
        record["queries"][0]["latency_s"] += 1e-3
        findings = sanitize_trace_record(record)
        assert SAN_LEDGER in {f.code for f in findings}

    def test_tampered_window_is_flagged(self):
        from repro.sanitize import sanitize_trace_record

        record = self.record()
        record["queries"][-1]["t1"] += 0.25
        record["queries"][-1]["latency_s"] = (
            record["queries"][-1]["t1"] - record["queries"][-1]["t0"]
        )
        assert sanitize_trace_record(record)

    def test_tampered_span_count_is_flagged(self):
        from repro.sanitize import sanitize_trace_record

        record = self.record()
        record["queries"][0]["n_spans"] += 1
        assert sanitize_trace_record(record)


class TestServeConservation:
    def make_record(self) -> dict:
        row = {
            "offered": 10,
            "admitted": 7,
            "shed": 2,
            "timed_out": 1,
        }
        return {
            "schema": "repro.serve/v1",
            "totals": dict(row),
            "tenants": [
                dict(row, tenant="a", shed_by_reason={"queue_full": 2})
            ],
            "curve": [dict(row, offered_load=1.0, shedding=True)],
        }

    def test_consistent_record_is_clean(self):
        assert sanitize_serve_record(self.make_record()) == []

    def test_detect_kind(self):
        assert detect_kind(self.make_record()) == "serve"

    def test_totals_leak_is_flagged(self):
        record = self.make_record()
        record["totals"]["admitted"] = 8
        findings = sanitize_serve_record(record)
        assert any(
            f.code == SAN_LEDGER and f.location == "totals" for f in findings
        )
        assert any("leaked or double-counted" in f.message for f in findings)

    def test_tenant_leak_is_flagged(self):
        record = self.make_record()
        record["tenants"][0]["shed"] = 3
        findings = sanitize_serve_record(record)
        # Both the tenant's own ledger and its reason split break, and
        # the tenant sums no longer match the totals.
        assert any("tenants['a']" == f.location for f in findings)
        assert any("shed_by_reason" in f.location for f in findings)
        assert any(f.location == "totals.shed" for f in findings)

    def test_curve_point_leak_is_flagged(self):
        record = self.make_record()
        record["curve"][0]["timed_out"] = 2
        findings = sanitize_serve_record(record)
        assert [f.location for f in findings] == ["curve[0]"]

    def test_dispatches_through_sanitize_payload(self):
        record = self.make_record()
        record["totals"]["offered"] = 11
        findings = sanitize_payload(record)
        assert findings and all(f.code == SAN_LEDGER for f in findings)
