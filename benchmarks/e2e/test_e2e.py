"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from .compare import compare, verdict
from .tracer import Target, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(
        (Target("a", "m.a"), Target("b", "m.b"), Target("c", "m.c")), clock=clock
    )
    # a[1 | b[2 | c[3] | 1] | 0.5], then a second root b[4].
    tracer.enter("a")
    clock.t += 1
    tracer.enter("b")
    clock.t += 2
    tracer.enter("c")
    clock.t += 3
    tracer.exit()
    clock.t += 1
    tracer.exit()
    clock.t += 0.5
    tracer.exit()
    tracer.enter("b")
    clock.t += 4
    tracer.exit()

    assert tracer.stats["a"].self_s == 1.5
    assert tracer.stats["b"].self_s == 3 + 4
    assert tracer.stats["c"].self_s == 3
    assert (tracer.stats["a"].calls, tracer.stats["b"].calls) == (1, 2)
    assert tracer.root_s == 7.5 + 4
    assert tracer.root_self_s == 1.5 + 4
    metrics = tracer.layer_metrics(wall_s=12.0)
    assert metrics["a.share"]["value"] == 1.5 / 12
    assert metrics["c.calls"] == {"value": 1, "unit": "count"}


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("e2e_fake_layer")

    def work(n):
        return mod.helper(n) + 1

    def helper(n):
        return n * 2

    class Box:
        def method(self, n):
            return n

    mod.work, mod.helper, mod.Box = work, helper, Box
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_wrappers_time_calls_and_restore_originals(fake_module):
    originals = (fake_module.work, fake_module.helper, fake_module.Box.method)
    tracer = Tracer(
        (
            Target("outer", "e2e_fake_layer.work"),
            Target("inner", "e2e_fake_layer.helper", count=lambda a, k, r: a[0]),
            Target("box", "e2e_fake_layer.Box.method"),
        )
    )
    with tracer.installed():
        assert fake_module.work(5) == 11
        assert fake_module.Box().method(3) == 3
    assert (fake_module.work, fake_module.helper, fake_module.Box.method) == originals
    assert tracer.stats["outer"].calls == tracer.stats["inner"].calls == 1
    assert tracer.stats["inner"].work == 5
    assert tracer.stats["box"].calls == 1
    assert tracer.root_s >= tracer.stats["outer"].self_s + tracer.stats["inner"].self_s


def test_missing_target_is_a_null_layer_and_never_crashes(fake_module):
    tracer = Tracer(
        (
            Target("gone", "e2e_fake_layer.no_such_function"),
            Target("gone", "no_such_package_e2e.module.f"),
            Target("half", "e2e_fake_layer.work"),
            Target("half", "e2e_fake_layer.Box.no_such_method"),
        )
    )
    with tracer.installed():
        fake_module.work(1)
    assert tracer.unresolved_layers() == ["gone"]
    assert tracer.missing["half"] == ["e2e_fake_layer.Box.no_such_method"]
    metrics = tracer.layer_metrics(wall_s=1.0)
    assert metrics["gone.self_s"]["value"] is None
    assert metrics["gone.share"]["value"] is None
    assert metrics["half.calls"]["value"] == 1


A = [100.0, 101.0, 99.0, 100.5, 99.5]


@pytest.mark.parametrize(
    "b, better, expected",
    [
        ([110.0, 111.0, 109.0, 110.5, 109.5], "higher", "better"),
        ([99.0, 100.0, 98.5, 99.5, 100.2], "higher", "no-worse"),
        ([101.0, 102.0, 100.5, 101.5, 100.8], "higher", "no-worse"),
        ([90.0, 91.0, 89.0, 90.5, 89.5], "higher", "worse"),
        ([90.0, 91.0, 89.0, 90.5, 89.5], "lower", "better"),
        ([110.0, 111.0, 109.0, 110.5, 109.5], "lower", "worse"),
        ([80.0, 120.0, 95.0, 105.0, 100.0], "higher", "unresolved"),
        # Spread wider than the bound, but every B run beats every A run.
        ([130.0, 150.0, 170.0, 190.0, 210.0], "higher", "better"),
    ],
)
def test_compare_verdicts(b, better, expected):
    assert verdict(A, b, better=better, bound=0.05) == expected


def test_compare_rows_cover_shared_workloads_and_skip_traced_runs():
    def record(qps: list[float], traced_qps: float) -> dict:
        runs = [
            {"workload": "w", "trace": False, "metrics": {"qps": {"value": v}}}
            for v in qps
        ]
        runs.append(
            {"workload": "w", "trace": True, "metrics": {"qps": {"value": traced_qps}}}
        )
        return {"runs": runs}

    bench = {
        "end_to_end": [
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.05},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
        ]
    }
    rows = compare(record(A, 1.0), record([v * 0.8 for v in A], 1e9), bench)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("w", "qps", "worse")
    ]
    assert rows[0]["a"][1] == 100.0
    assert rows[0]["runs"] == (5, 5)


def _run(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        env=env,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_workload_end_to_end(trace, tmp_path):
    out = tmp_path / "runs.json"
    proc = _run("--smoke", "--seconds", "0.2", "--trace", trace, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0

    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [w["name"] for w in BENCH["workloads"]]
    for run in runs:
        assert {n: row["unit"] for n, row in run["metrics"].items()} == declared
        assert run["digest"]["match"] is True, run["workload"]
        assert run["warnings"] == []
        if trace == "1":
            assert run["metrics"]["trace.coverage"]["value"] > 0.95
        else:
            assert all(row["value"] > 0 for row in run["metrics"].values())


def test_default_program_guard_exits_2():
    env = dict(os.environ, REPRO_SANITIZE="1")
    proc = _run("--smoke", "--workload", "serve_2x", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "REPRO_SANITIZE" in proc.stderr
