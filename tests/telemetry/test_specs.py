"""The tag-keyed record spec table, read by both the schema CLI and simsan."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.sanitize import (
    SAN_SCHEMA,
    detect_kind,
    make_sanitize_record,
    sanitize_payload,
)
from repro.telemetry.log import INFO, get_logger
from repro.telemetry.schema import SPECS, main as schema_main

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_CHAOS = REPO_ROOT / "tests" / "integration" / "golden_chaos.json"
GOLDEN_TIMINGS = REPO_ROOT / "tests" / "sim" / "golden_timings.json"
#: Every committed tagged record.
COMMITTED = sorted((REPO_ROOT / "benchmarks" / "results").glob("*.json")) + [
    GOLDEN_CHAOS
]


@pytest.fixture
def info_logs(monkeypatch):
    """Keep the schema CLI's info lines visible whatever ``-q`` ran before."""
    monkeypatch.setattr(get_logger(), "level", INFO)


def test_committed_records_are_listed():
    names = {p.name for p in COMMITTED}
    assert {
        "fig16_event_overlap.json",
        "fig18_topk_size.json",
        "serve_overload.json",
        "golden_chaos.json",
    } <= names


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_record_validates_and_sanitizes_clean(path, capsys):
    assert schema_main([str(path)]) == 0
    assert cli_main(["sanitize", str(path)]) == 0
    assert "sanitize: clean" in capsys.readouterr().out


def test_golden_timings_sanitize_clean(capsys):
    assert cli_main(["sanitize", str(GOLDEN_TIMINGS)]) == 0
    assert "sanitize: clean" in capsys.readouterr().out


@pytest.mark.parametrize(
    "payload",
    [
        json.loads(GOLDEN_TIMINGS.read_text()),
        {"schema": "e2e-bench/v1", "workloads": {}},
        {"schema": "repro.chaos/v2"},
        {"name": "untagged"},
        [1, 2],
    ],
    ids=["golden_timings", "e2e_baseline", "other_version", "untagged", "list"],
)
def test_schema_cli_names_known_tags_for_untagged_or_unknown(
    tmp_path, capsys, payload
):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(payload))
    assert schema_main([str(path)]) == 1
    errors = [
        line
        for line in capsys.readouterr().err.splitlines()
        if "schema.invalid" in line
    ]
    assert len(errors) == 1, errors
    assert all(tag in errors[0] for tag in SPECS)


def test_tags_match_exactly():
    chaos = json.loads(GOLDEN_CHAOS.read_text())
    assert detect_kind(chaos) == "chaos"
    other = dict(chaos, schema="repro.chaos/v2")
    assert detect_kind(other) == "unknown"
    assert [f.code for f in sanitize_payload(other)] == [SAN_SCHEMA]
    assert detect_kind({"schema": "repro.serve/v0"}) == "unknown"


def test_both_clis_print_one_kind_per_spec(tmp_path, capsys, info_logs):
    from tests.tracing.test_record import traced_record

    records = [json.loads(p.read_text()) for p in COMMITTED]
    records += [
        traced_record(1),
        make_sanitize_record(name="unit", inputs=[], findings=[]),
    ]
    schema_kinds, sanitize_kinds = {}, {}
    for i, record in enumerate(records):
        path = tmp_path / f"record{i}.json"
        path.write_text(json.dumps(record))
        capsys.readouterr()
        assert schema_main([str(path)]) == 0
        (line,) = [
            ln for ln in capsys.readouterr().err.splitlines() if "schema.valid" in ln
        ]
        schema_kinds[record["schema"]] = line.rsplit("kind=", 1)[1]
        assert cli_main(["sanitize", "--json", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        sanitize_kinds[record["schema"]] = report["inputs"][0]["kind"]
    assert set(schema_kinds) == set(SPECS)
    assert schema_kinds == sanitize_kinds
    assert set(schema_kinds.values()) == {spec.kind for spec in SPECS.values()}
