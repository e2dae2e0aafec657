"""CLI smoke tests: generate -> build -> search -> bench wiring."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.loader import read_vecs


@pytest.fixture()
def tiny_flow(tmp_path):
    corpus = tmp_path / "corpus.fvecs"
    queries = tmp_path / "queries.fvecs"
    index = tmp_path / "index.npz"
    return corpus, queries, index


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "cmd",
        ["generate", "build", "search", "bench", "specs", "metrics", "trace",
         "perf", "chaos"],
    )
    def test_subcommands_exist(self, cmd):
        parser = build_parser()
        actions = {
            a.dest: a for a in parser._actions if a.dest == "command"
        }["command"]
        assert cmd in actions.choices


class TestFlow:
    def test_generate_build_search(self, tiny_flow, capsys):
        corpus, queries, index = tiny_flow
        assert main([
            "generate", "--out", str(corpus), "--queries-out", str(queries),
            "--n", "3000", "--components", "16", "--n-queries", "10",
        ]) == 0
        assert read_vecs(corpus).shape == (3000, 128)
        assert main([
            "build", "--vectors", str(corpus), "--index", str(index),
            "--clusters", "16", "--m", "16", "--train-iters", "3",
        ]) == 0
        assert index.exists()
        assert main([
            "search", "--index", str(index), "--queries", str(queries),
            "--k", "5", "--nprobe", "4", "--show", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "modeled QPS" in out
        assert "q0:" in out

    def test_metrics_text_table(self, capsys):
        assert main(["-q", "metrics", "--batches", "2", "--batch-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "utilization over" in out
        assert "dpu/*" in out
        assert "critical path:" in out

    def test_metrics_json_round_trips_schema(self, tmp_path, capsys):
        from repro.telemetry import validate_prometheus_text, validate_result_record

        prom_path = tmp_path / "scrape.prom"
        assert main([
            "-q", "metrics", "--batches", "2", "--batch-size", "16",
            "--json", "--prom", str(prom_path),
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert validate_result_record(record) == []
        assert record["name"] == "cli_metrics"
        assert record["qps"]["n_batches"] == 2
        assert validate_prometheus_text(prom_path.read_text()) == []

    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "NVIDIA A100" in out
        assert "UPMEM" in out

    def test_progress_lines_go_to_stderr(self, tiny_flow, capsys):
        corpus, queries, _ = tiny_flow
        main([
            "generate", "--out", str(corpus), "--queries-out", str(queries),
            "--n", "500", "--components", "8", "--n-queries", "5",
        ])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repro info generate.corpus" in captured.err

    def test_quiet_silences_progress(self, tiny_flow, capsys):
        corpus, _, _ = tiny_flow
        main(["-q", "generate", "--out", str(corpus), "--n", "500",
              "--components", "8"])
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_generate_deterministic(self, tmp_path):
        a = tmp_path / "a.fvecs"
        b = tmp_path / "b.fvecs"
        for path in (a, b):
            main(["generate", "--out", str(path), "--n", "500",
                  "--components", "8", "--seed", "7"])
        np.testing.assert_array_equal(read_vecs(a), read_vecs(b))


class TestChaos:
    def test_default_scenario_emits_valid_record(self, tmp_path, capsys):
        from repro.telemetry import validate_chaos_record

        out = tmp_path / "chaos.json"
        assert main([
            "-q", "chaos", "--batches", "4", "--batch-size", "16",
            "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert validate_chaos_record(record) == []
        assert record["name"] == "cli_chaos"
        # The default scenario kills a replicated DPU: full failover.
        assert record["faults"]["injected"] == 1
        assert record["faults"]["rerouted_pairs"] > 0
        assert record["degradation"]["recall_delta"] == 0.0
        assert record["degradation"]["coverage_floor"] == 1.0
        assert record["recovery"]["recovery_seconds"] > 0.0
        # Human summary goes to stdout when --out is given without --json.
        assert "chaos:" in capsys.readouterr().out

    def test_explicit_transfer_fault_counts_retries(self, capsys):
        assert main([
            "-q", "chaos", "--batches", "3", "--batch-size", "16",
            "--fault", "transfer:0@1", "--json",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["faults"]["retries"] == 1
        assert record["recovery"]["retry_seconds"] > 0.0

    def test_total_loss_exits_nonzero(self, capsys):
        # The tiny deployment is one 16-DPU DIMM; killing it leaves
        # nothing to fail over to, which is an error, not a record.
        assert main([
            "-q", "chaos", "--batches", "4", "--batch-size", "16",
            "--fault", "dimm:0@1",
        ]) == 1
        assert capsys.readouterr().out == ""

    def test_metrics_with_fault_exposes_fault_counters(self, capsys):
        assert main([
            "-q", "metrics", "--batches", "3", "--batch-size", "16",
            "--fault", "dpu:0@1", "--json",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        families = {f["name"] for f in record["metrics"]["metrics"]}
        assert "repro_faults_injected_total" in families
        assert "repro_faults_dead_units" in families

    def test_metrics_without_fault_has_no_fault_families(self, capsys):
        assert main([
            "-q", "metrics", "--batches", "2", "--batch-size", "16", "--json",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        families = {f["name"] for f in record["metrics"]["metrics"]}
        assert not any(name.startswith("repro_faults_") for name in families)


class TestTraceAndExplain:
    def test_trace_out_writes_valid_record(self, tmp_path, capsys):
        from repro.tracing import validate_trace_record

        chrome = tmp_path / "trace.json"
        record_path = tmp_path / "trace_record.json"
        assert main([
            "trace", "--out", str(chrome), "--trace-out", str(record_path),
            "--batches", "2", "--batch-size", "8",
            "--overlap", "double_buffer",
            "--sanitize",
        ]) == 0
        record = json.loads(record_path.read_text())
        assert record["schema"] == "repro.trace/v1"
        assert validate_trace_record(record) == []
        assert record["config"]["overlap"] == "double_buffer"
        assert len(record["queries"]) == 16

    def test_trace_query_dumps_span_rows(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        assert main([
            "trace", "--out", str(chrome), "--batches", "2",
            "--batch-size", "4", "--query", "q000005",
        ]) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("{")
        ]
        assert rows and all("q000005" in r["trace_ids"] for r in rows)

    def test_trace_unknown_query_fails(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        assert main([
            "trace", "--out", str(chrome), "--batches", "1",
            "--batch-size", "4", "--query", "q999999",
        ]) == 2

    def test_explain_defaults_to_worst_query(self, capsys):
        assert main([
            "explain", "--batches", "2", "--batch-size", "8",
            "--overlap", "double_buffer",
        ]) == 0
        out = capsys.readouterr().out
        assert "critical path covers" in out
        assert "query q" in out

    def test_explain_reads_exported_record(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        record_path = tmp_path / "record.json"
        assert main([
            "trace", "--out", str(chrome), "--trace-out", str(record_path),
            "--batches", "2", "--batch-size", "4",
        ]) == 0
        capsys.readouterr()
        assert main([
            "explain", "--record", str(record_path), "--query", "q000002",
        ]) == 0
        assert "query q000002" in capsys.readouterr().out

    def test_explain_annotates_fault_retries(self, capsys):
        assert main([
            "explain", "--batches", "3", "--batch-size", "8",
            "--overlap", "double_buffer",
            "--hazard", "0.5", "--seed", "1",
        ]) == 0
        # A hazard this high faults some transfer on the worst query's
        # path; the row must carry the fault plane's annotation.
        assert "fault-retry" in capsys.readouterr().out

    def test_explain_unknown_query_fails(self, capsys):
        assert main([
            "explain", "--batches", "1", "--batch-size", "4",
            "--query", "q999999",
        ]) == 2

    def test_explain_rejects_invalid_record(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.trace/v1"}))
        assert main(["explain", "--record", str(bad)]) == 2
