"""Benchmark result records: construction, validation, CLI entry point."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.exposition import snapshot
from repro.telemetry.schema import (
    CHAOS_SCHEMA,
    RESULT_SCHEMA,
    SERVE_SCHEMA,
    main,
    make_chaos_record,
    make_result_record,
    make_serve_record,
    validate_chaos_record,
    validate_result_record,
    validate_serve_record,
)

GOLDEN_CHAOS = Path(__file__).resolve().parents[1] / "integration" / "golden_chaos.json"


def valid_record() -> dict:
    reg = MetricsRegistry()
    reg.counter("repro_queries_total").inc(100)
    return make_result_record(
        name="fig_test",
        config={"sim_dpus": 64},
        qps_values=[100.0, 200.0],
        stage_seconds={"dpu": 0.5, "aggregate": 0.1},
        utilization={
            "makespan_s": 1.0,
            "resources": [
                {
                    "resource": "dpu/*",
                    "busy_s": 0.8,
                    "idle_s": 0.2,
                    "utilization": 0.8,
                    "n_spans": 4,
                    "n_lanes": 1,
                }
            ],
            "critical_path": {"dpu/*": 1.0},
        },
        metrics=snapshot(reg),
    )


class TestMakeRecord:
    def test_valid_record_passes(self):
        record = valid_record()
        assert record["schema"] == RESULT_SCHEMA
        assert validate_result_record(record) == []

    def test_qps_stats(self):
        qps = valid_record()["qps"]
        assert qps == {
            "mean": pytest.approx(150.0),
            "min": 100.0,
            "max": 200.0,
            "n_batches": 2,
        }

    def test_empty_qps_rejected(self):
        with pytest.raises(ConfigError):
            make_result_record(
                name="x",
                config={},
                qps_values=[],
                stage_seconds={},
                utilization={},
                metrics={},
            )

    def test_json_round_trip(self):
        record = json.loads(json.dumps(valid_record()))
        assert validate_result_record(record) == []


class TestValidator:
    def test_non_object(self):
        assert validate_result_record(42) == ["record must be a JSON object"]

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda r: r.update(schema="v0"), "schema"),
            (lambda r: r.update(name=""), "name"),
            (lambda r: r.update(config=[1]), "config"),
            (lambda r: r["qps"].update(mean=-1), "qps.mean"),
            (lambda r: r["qps"].update(mean=500.0), "within"),
            (lambda r: r["stage_seconds"].update(dpu=-0.1), "stage_seconds"),
            (lambda r: r["utilization"].update(makespan_s=-1), "makespan_s"),
            (
                lambda r: r["utilization"]["resources"][0].update(utilization=1.5),
                "within [0, 1]",
            ),
            (
                lambda r: r["utilization"].update(critical_path=[1]),
                "critical_path",
            ),
            (lambda r: r.pop("metrics"), "metrics"),
            (lambda r: r["metrics"].update(schema="bad"), "metrics:"),
        ],
    )
    def test_each_field_is_checked(self, mutate, needle):
        record = valid_record()
        mutate(record)
        errors = validate_result_record(record)
        assert any(needle in e for e in errors), errors


def valid_chaos_record() -> dict:
    return make_chaos_record(
        name="chaos_test",
        config={"batches": 2, "n_dpus": 16},
        plan={"events": [{"kind": "dpu", "target": 5, "batch": 1}], "seed": 7},
        faults_injected=1,
        retries=2,
        rerouted_pairs=13,
        dropped_pairs=0,
        dead_units=[5],
        coverage_floor=1.0,
        recall_delta=0.0,
        retry_seconds=1e-4,
        recovery_batches=1,
        recovery_seconds=1.3e-4,
        batches=[
            {"batch": 0, "coverage_floor": 1.0, "rerouted_pairs": 0, "dropped_pairs": 0},
            {"batch": 1, "coverage_floor": 1.0, "rerouted_pairs": 13, "dropped_pairs": 0},
        ],
    )


class TestChaosRecord:
    def test_valid_record_passes(self):
        record = valid_chaos_record()
        assert record["schema"] == CHAOS_SCHEMA
        assert validate_chaos_record(record) == []

    def test_json_round_trip(self):
        record = json.loads(json.dumps(valid_chaos_record()))
        assert validate_chaos_record(record) == []

    def test_constructor_rejects_invalid(self):
        with pytest.raises(ConfigError):
            make_chaos_record(
                name="",
                config={},
                plan={},
                faults_injected=0,
                retries=0,
                rerouted_pairs=0,
                dropped_pairs=0,
                dead_units=[],
                coverage_floor=1.0,
                recall_delta=0.0,
                retry_seconds=0.0,
                recovery_batches=0,
                recovery_seconds=0.0,
                batches=[{"batch": 0, "coverage_floor": 1.0, "rerouted_pairs": 0, "dropped_pairs": 0}],
            )

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda r: r.update(schema="repro.chaos/v0"), "schema"),
            (lambda r: r.update(name=""), "name"),
            (lambda r: r.update(plan=[1]), "plan"),
            (lambda r: r["faults"].update(retries=-1), "retries"),
            (lambda r: r["faults"].update(dead_units=[-3]), "dead_units"),
            (lambda r: r["degradation"].update(coverage_floor=1.5), "coverage_floor"),
            (lambda r: r["recovery"].update(batches=-1), "recovery.batches"),
            (lambda r: r.update(batches=[]), "batches"),
            (lambda r: r["batches"][0].pop("coverage_floor"), "coverage_floor"),
        ],
    )
    def test_each_field_is_checked(self, mutate, needle):
        record = valid_chaos_record()
        mutate(record)
        errors = validate_chaos_record(record)
        assert any(needle in e for e in errors), errors

    def test_cli_dispatch_recognizes_chaos(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(valid_chaos_record()))
        assert main([str(path)]) == 0

    @pytest.mark.parametrize(
        "key, value", [("retry_seconds", "x"), ("recovery_seconds", -1.0)]
    )
    def test_batch_row_seconds_are_checked(self, key, value, tmp_path, capsys):
        """A batch row's optional seconds, when present, must be
        non-negative numbers, for the validator and for simsan."""
        from repro.cli import main as cli_main

        record = json.loads(GOLDEN_CHAOS.read_text())
        assert validate_chaos_record(record) == []
        record["batches"][0][key] = value
        errors = validate_chaos_record(record)
        assert any(f"batches[0].{key}" in e for e in errors), errors
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(record))
        capsys.readouterr()
        assert cli_main(["sanitize", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SAN-SCHEMA" in out and f"batches[0].{key}" in out

    def test_batch_rows_without_seconds_validate(self):
        record = valid_chaos_record()
        assert all("retry_seconds" not in row for row in record["batches"])
        assert all("recovery_seconds" not in row for row in record["batches"])
        assert validate_chaos_record(record) == []


class TestCliEntryPoint:
    def test_valid_file_exits_zero(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(valid_record()))
        assert main([str(path)]) == 0

    def test_invalid_file_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        assert main([str(path)]) == 1

    def test_unreadable_file_exits_two(self, tmp_path):
        assert main([str(tmp_path / "missing.json")]) == 2

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_prom_mode(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc()
        good = tmp_path / "good.prom"
        good.write_text(reg.prometheus_text())
        assert main(["--prom", str(good)]) == 0
        bad = tmp_path / "bad.prom"
        bad.write_text("repro_undeclared 1\n")
        assert main(["--prom", str(bad)]) == 1


def valid_serve_record() -> dict:
    tenant = {
        "tenant": "interactive",
        "offered": 100,
        "admitted": 80,
        "shed": 15,
        "timed_out": 5,
        "shed_by_reason": {"queue_full": 10, "predicted_wait": 5},
        "goodput_qps": 4000.0,
        "p50_ms": 1.0,
        "p95_ms": 2.0,
        "p99_ms": 3.0,
    }
    totals = {
        "offered": 100,
        "admitted": 80,
        "shed": 15,
        "timed_out": 5,
        "goodput_qps": 4000.0,
        "p50_ms": 1.0,
        "p95_ms": 2.0,
        "p99_ms": 3.0,
        "coverage_floor": 0.5,
        "batches": 7,
    }
    point = {
        "offered": 100,
        "admitted": 80,
        "shed": 15,
        "timed_out": 5,
        "offered_load": 2.0,
        "offered_qps": 5000.0,
        "goodput_qps": 4000.0,
        "p99_ms": 3.0,
        "coverage_floor": 0.5,
        "shedding": True,
    }
    return make_serve_record(
        name="serve_test",
        config={"seed": 0, "horizon_s": 0.2},
        totals=totals,
        tenants=[tenant],
        curve=[point],
    )


class TestServeRecord:
    def test_valid_record_passes(self):
        record = valid_serve_record()
        assert record["schema"] == SERVE_SCHEMA
        assert validate_serve_record(record) == []

    def test_maker_rejects_broken_conservation(self):
        record = valid_serve_record()
        totals = dict(record["totals"], admitted=81)
        with pytest.raises(ConfigError, match="offered"):
            make_serve_record(
                name="serve_test",
                config={},
                totals=totals,
                tenants=record["tenants"],
                curve=record["curve"],
            )

    def test_tenant_sums_must_match_totals(self):
        record = valid_serve_record()
        record["tenants"][0]["offered"] = 99
        record["tenants"][0]["admitted"] = 79
        errors = validate_serve_record(record)
        assert any("sum to" in e for e in errors)

    def test_shed_by_reason_must_sum_to_shed(self):
        record = valid_serve_record()
        record["tenants"][0]["shed_by_reason"]["queue_full"] = 11
        errors = validate_serve_record(record)
        assert any("shed_by_reason" in e for e in errors)

    def test_percentile_ordering_enforced(self):
        record = valid_serve_record()
        record["totals"]["p95_ms"] = 10.0
        errors = validate_serve_record(record)
        assert any("non-decreasing" in e for e in errors)

    def test_curve_point_checked(self):
        record = valid_serve_record()
        record["curve"][0]["shedding"] = "yes"
        record["curve"][0]["admitted"] = 81
        errors = validate_serve_record(record)
        assert any("shedding" in e for e in errors)
        assert any("curve[0]" in e and "offered" in e for e in errors)

    def test_coverage_floor_bounds(self):
        record = valid_serve_record()
        record["totals"]["coverage_floor"] = 1.5
        errors = validate_serve_record(record)
        assert any("coverage_floor" in e for e in errors)

    def test_tenants_required(self):
        record = valid_serve_record()
        record["tenants"] = []
        errors = validate_serve_record(record)
        assert any("tenants" in e for e in errors)

    def test_cli_entry_point_dispatches_serve(self, tmp_path):
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(valid_serve_record()))
        assert main([str(path)]) == 0
        path.write_text(
            json.dumps(dict(valid_serve_record(), totals={"offered": 1}))
        )
        assert main([str(path)]) == 1
