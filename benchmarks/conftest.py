"""Benchmark-suite configuration.

Makes the repo root importable so `benchmarks.harness` resolves when
pytest is invoked from the repository root, and provides a `run_once`
helper that times a sweep exactly once under pytest-benchmark (the
sweeps are deterministic simulations — repeating them only wastes
wall-clock).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def pytest_addoption(parser):
    parser.addoption(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="dump each figure's sequential batch stream as Chrome-trace "
        "JSON into DIR (one <figure>.trace.json per save_result call)",
    )


def pytest_configure(config):
    trace_dir = config.getoption("--trace-dir")
    if trace_dir is not None:
        from benchmarks import harness

        harness.TRACE_DIR = Path(trace_dir)


@pytest.fixture
def run_once(benchmark):
    """Time ``fn`` once via pytest-benchmark and return its result."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
