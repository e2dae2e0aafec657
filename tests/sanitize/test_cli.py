"""CLI contracts: ``repro sanitize``, ``repro trace --sanitize`` and the
``python -m repro.sim.trace`` validator's exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry.schema import validate_sanitize_record

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_TIMINGS = REPO_ROOT / "tests" / "sim" / "golden_timings.json"
GOLDEN_CHAOS = REPO_ROOT / "tests" / "integration" / "golden_chaos.json"


def overlapping_trace() -> dict:
    return {
        "traceEvents": [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": 0,
                "args": {"name": "pim_bus"},
            },
            {"ph": "X", "name": "transfer_in", "pid": 0, "tid": 0,
             "ts": 0.0, "dur": 10.0},
            {"ph": "X", "name": "transfer_out", "pid": 0, "tid": 0,
             "ts": 5.0, "dur": 10.0},
        ]
    }


class TestSanitizeSubcommand:
    def test_golden_fixtures_are_clean(self, capsys):
        assert main(["sanitize", str(GOLDEN_TIMINGS), str(GOLDEN_CHAOS)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "(golden)" in out and "(chaos)" in out

    def test_findings_exit_one_with_code(self, tmp_path, capsys):
        bad = tmp_path / "bad_trace.json"
        bad.write_text(json.dumps(overlapping_trace()))
        assert main(["sanitize", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SAN-OVERLAP" in out
        assert "bad_trace.json" in out

    def test_unreadable_input_exits_two(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["sanitize", str(broken)]) == 2
        assert main(["sanitize", str(tmp_path / "missing.json")]) == 2

    def test_json_output_is_valid_sanitize_record(self, tmp_path, capsys):
        bad = tmp_path / "bad_trace.json"
        bad.write_text(json.dumps(overlapping_trace()))
        assert main(["sanitize", "--json", str(bad)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert validate_sanitize_record(record) == []
        assert record["count"] == 1
        assert record["inputs"][0]["kind"] == "trace"
        assert record["findings"][0]["code"] == "SAN-OVERLAP"

    def test_out_writes_record_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert (
            main(["sanitize", "--out", str(out_file), str(GOLDEN_CHAOS)]) == 0
        )
        capsys.readouterr()
        record = json.loads(out_file.read_text())
        assert validate_sanitize_record(record) == []
        assert record["count"] == 0

    @pytest.mark.parametrize(
        "record",
        [
            dict(json.loads(GOLDEN_CHAOS.read_text()), batches="oops"),
            {"schema": "repro.bench.result/v1"},
        ],
        ids=["chaos_batches_not_a_list", "empty_result"],
    )
    def test_malformed_tagged_record_is_schema_finding(
        self, tmp_path, capsys, record
    ):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(record))
        assert main(["sanitize", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SAN-SCHEMA" in out and "clean" not in out

    def test_strict_flags_zero_duration_spans(self, tmp_path, capsys):
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "gather", "pid": 0, "tid": 0,
                 "ts": 0.0, "dur": 0.0}
            ]
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(trace))
        assert main(["sanitize", str(path)]) == 0
        capsys.readouterr()
        assert main(["sanitize", "--strict", str(path)]) == 1
        assert "SAN-NUMERIC" in capsys.readouterr().out


class TestTraceSanitizeFlag:
    def test_trace_export_passes_sanitizer(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "--out", str(out), "--batches", "2", "--sanitize",
             "--hazard", "0.3", "--overlap", "double_buffer"]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]


class TestSimTraceModule:
    def run_module(self, path: Path) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.sim.trace", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_overlapping_trace_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(overlapping_trace()))
        proc = self.run_module(bad)
        assert proc.returncode == 1
        assert "overlap" in proc.stdout + proc.stderr

    def test_nan_duration_exits_nonzero(self, tmp_path):
        # JSON can't carry NaN natively; Python's encoder emits the
        # non-standard literal the module's loader accepts back.
        bad = tmp_path / "nan.json"
        bad.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "a", "pid": 0, "tid": 0,
                         "ts": 0.0, "dur": math.nan}
                    ]
                }
            )
        )
        proc = self.run_module(bad)
        assert proc.returncode == 1

    def test_valid_trace_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "good.json"
        assert main(["trace", "--out", str(out), "--batches", "2"]) == 0
        capsys.readouterr()
        proc = self.run_module(out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
