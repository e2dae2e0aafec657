"""Command line: run workloads in child processes, print, record, compare.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--runs N] [--smoke]
        [--out FILE [--append]]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each workload runs in its own child process, one at a time; the parent
imports nothing from the program.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from .compare import compare, render

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RUN_PY = HERE / "run.py"
EXPECTED = HERE / "expected.json"
WORKLOAD_NAMES = ("warm_bs100", "cold_bs100", "serve_2x")
#: Environment switches that select a non-default program path.
GUARDED_ENV = ("REPRO_EXECUTOR", "REPRO_SIM_ENGINE", "REPRO_SANITIZE")
CHILD_TIMEOUT_S = 170


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    if argv[:1] == ["_child"]:
        return _child(argv[1:])
    return _run(argv)


def _run_args(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="timed seconds per run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: wrap every layer and report per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for the test suite"
    )
    return parser


def _run(argv: list[str]) -> int:
    parser = _run_args("benchmarks/e2e/run.py")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run to this JSON record")
    parser.add_argument(
        "--append",
        action="store_true",
        help="add the runs to an existing --out record",
    )
    args = parser.parse_args(argv)
    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        print(
            f"e2e: unset {', '.join(guarded)}: the benchmark measures the "
            "program's default executor, timing core and sanitizer setting",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "repro").is_dir():
        print(f"e2e: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 1
    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = []
    for _ in range(args.runs):
        for name in names:
            run = _spawn(name, args)
            if run is None:
                return 1
            print(render_run(run))
            runs.append(run)
    if args.out:
        record = {"schema": "e2e-bench/v1", "provenance": prov, "runs": runs}
        out = Path(args.out)
        if args.append and out.exists():
            previous = json.loads(out.read_text())
            record["runs"] = previous["runs"] + runs
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary(runs, multi=len(names) > 1)))
    return 0 if all(r["correct"] for r in runs) else 1


def _spawn(name: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in a child process and return its record."""
    cmd = [
        sys.executable,
        str(RUN_PY),
        "_child",
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"e2e: {name} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"e2e: {name} failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _child(argv: list[str]) -> int:
    args = _run_args("_child").parse_args(argv)
    from .workloads import run_workload

    run = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    expected = json.loads(EXPECTED.read_text())
    want = None
    if args.seed == expected["seed"]:
        want = expected["smoke" if args.smoke else "full"].get(args.workload)
    run["digest"]["expected"] = want
    run["digest"]["match"] = None if want is None else want == run["digest"]["value"]
    if run["digest"]["match"] is False:
        run["failed_ops"] = run["ops"]
    run["correct"] = run["failed_ops"] == 0
    print(json.dumps(run))
    return 0 if run["correct"] else 1


def _compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py compare")
    parser.add_argument("a", help="record of the parent (A)")
    parser.add_argument("b", help="record of the change (B)")
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    records = [json.loads(Path(p).read_text()) for p in (args.a, args.b, args.bench)]
    rows = compare(*records)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def summary(runs: list[dict], *, multi: bool) -> dict:
    """The final line: every metric's median over runs (prefixed with
    the workload when several ran)."""
    values: dict[str, list] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, row in run["metrics"].items():
            key = f"{run['workload']}.{name}" if multi else name
            values.setdefault(key, []).append(row["value"])
            units[key] = row["unit"]
    metrics = {}
    for key, vals in values.items():
        known = [v for v in vals if v is not None]
        value = statistics.median(known) if known else None
        metrics[key] = {"value": value, "unit": units[key]}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed_ops"] for r in runs),
        "metrics": metrics,
    }


def render_run(run: dict) -> str:
    mode = "traced" if run["trace"] else "untraced"
    digest = run["digest"]
    check = {True: "matches expected.json", False: "MISMATCH", None: "not pinned"}
    lines = [
        f"== {run['workload']} seed {run['seed']} ({mode}, {run['seconds']:g} s, "
        f"{run['units']} units): ops {run['ops']}, failed_ops {run['failed_ops']}; "
        f"digest {digest['value']} over {digest['units']} units "
        f"{check[digest['match']]}"
    ]
    for name, row in run["metrics"].items():
        value = "null" if row["value"] is None else f"{row['value']:.6g}"
        lines.append(f"  {name:<34} {value:>14} {row['unit']}")
    p90 = run["diagnostics"]["batch_ms_p90"]
    lines.append(
        f"  diagnostic batch_ms_p90 {p90['value']:.6g} ms "
        f"({p90['samples']} samples)"
    )
    lines.append("  modeled " + json.dumps(run["modeled"], sort_keys=True))
    lines.extend(f"  warning: {w}" for w in run["warnings"])
    return "\n".join(lines)


def provenance() -> dict:
    """Host and program identity recorded with every result."""
    import numpy

    return {
        "host_cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()
