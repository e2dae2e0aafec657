"""Timeline-derived timings equal the pre-refactor scalars bit-for-bit.

``golden_timings.json`` was captured by running the seeded configs below
against the last additive-scalar revision (every value stored as
``float.hex()``).  The refactor's contract is exact equality — not
approximate — for every ``BatchTiming`` field, every ``StageCycles``
field and the cycle load ratio, across the UpANNS, PIM-naive, scaled,
and IVFFlat pipelines, plus the multi-host decomposition.

``golden_spans.json`` pins the same runs span by span: a count and a
digest per engine (see :func:`span_digest`), captured from the
emission-order analytic replay before the event core became the only
executor.

The suite also asserts the structural span invariants the timelines
must uphold on real engine output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines.pim_naive import PIM_NAIVE_CONFIG
from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.flat_engine import IVFFlatPimEngine
from repro.core.multihost import MultiHostEngine
from repro.hardware.specs import PimSystemSpec
from repro.sim import STAGE_TRANSFER_IN, validate_chrome_trace

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_timings.json").read_text()
)
GOLDEN_SPANS = json.loads(
    (Path(__file__).parent / "golden_spans.json").read_text()
)


def pim_spec() -> PimSystemSpec:
    return PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8)


def ivfpq_config(upanns=None, timing_scale=1.0) -> SystemConfig:
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        upanns=upanns if upanns is not None else UpANNSConfig(),
        pim=pim_spec(),
        timing_scale=timing_scale,
    )


@pytest.fixture(scope="module")
def flat_index(small_dataset):
    import numpy as np

    from repro.ivfpq.ivfflat import IVFFlatIndex

    index = IVFFlatIndex(dim=32, n_clusters=32)
    index.train(small_dataset.vectors, n_iter=6, rng=np.random.default_rng(3))
    index.add(small_dataset.vectors)
    return index


def build_ivfpq(name, small_dataset, history_queries, trained_index):
    upanns, scale = {
        "upanns": (UpANNSConfig(), 1.0),
        "pim_naive": (PIM_NAIVE_CONFIG, 1.0),
        "upanns_scaled": (UpANNSConfig(), 500.0),
    }[name]
    engine = UpANNSEngine(ivfpq_config(upanns=upanns, timing_scale=scale))
    return engine.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )


def assert_timing_golden(result, golden: dict) -> None:
    timing = result.timing
    expected = golden["timing"]
    for name in (
        "host_filter_s",
        "host_schedule_s",
        "transfer_in_s",
        "dpu_makespan_s",
        "transfer_out_s",
        "host_aggregate_s",
        "total_s",
    ):
        assert getattr(timing, name) == float.fromhex(expected[name]), name
    for name, hexval in golden["stage_seconds"].items():
        assert getattr(result.stage_seconds, name) == float.fromhex(hexval), name
    assert result.cycle_load_ratio == float.fromhex(golden["cycle_load_ratio"])


def assert_span_invariants(schedule) -> None:
    assert schedule is not None
    for resource, tl in schedule.timelines.items():
        for span in tl.spans:
            assert span.duration >= 0.0, resource
            assert span.t0 >= 0.0, resource
        for prev, cur in zip(tl.spans, tl.spans[1:]):
            assert cur.t0 >= prev.t1, f"overlap on {resource}"
    if schedule.timelines:
        assert schedule.makespan == max(
            tl.end for tl in schedule.timelines.values()
        )


_IVFPQ_RESULTS: dict[str, object] = {}


def ivfpq_result(name, small_dataset, history_queries, trained_index,
                 small_queries):
    """One batch per config, built once (the engine build is the slow
    part) and cached across the parametrized tests."""
    if name not in _IVFPQ_RESULTS:
        engine = build_ivfpq(name, small_dataset, history_queries, trained_index)
        _IVFPQ_RESULTS[name] = engine.search_batch(small_queries)
    return _IVFPQ_RESULTS[name]


@pytest.mark.parametrize("name", ["upanns", "pim_naive", "upanns_scaled"])
class TestIvfpqGolden:
    @pytest.fixture
    def result(self, name, small_dataset, history_queries, trained_index,
               small_queries):
        return ivfpq_result(
            name, small_dataset, history_queries, trained_index, small_queries
        )

    def test_timing_bit_for_bit(self, name, result):
        assert_timing_golden(result, GOLDEN[name])

    def test_span_invariants(self, name, result):
        assert_span_invariants(result.schedule)
        assert result.schedule.stage_seconds(STAGE_TRANSFER_IN) > 0

    def test_trace_exports_clean(self, name, result):
        assert validate_chrome_trace(result.schedule.to_chrome_trace()) == []


@pytest.fixture(scope="module")
def flat_result(small_dataset, history_queries, flat_index, small_queries):
    cfg = SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=4, train_iters=4),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        upanns=UpANNSConfig(enable_cae=False),
        pim=pim_spec(),
        timing_scale=200.0,
    )
    engine = IVFFlatPimEngine(cfg)
    engine.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=flat_index,
    )
    return engine.search_batch(small_queries)


@pytest.fixture(scope="module")
def multihost_result(small_dataset, history_queries, trained_index, small_queries):
    engine = MultiHostEngine(
        host_configs=[ivfpq_config(), ivfpq_config(), ivfpq_config()]
    )
    engine.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return engine.search_batch(small_queries)


class TestFlatGolden:
    @pytest.fixture
    def result(self, flat_result):
        return flat_result

    def test_timing_bit_for_bit(self, result):
        assert_timing_golden(result, GOLDEN["flat"])

    def test_span_invariants(self, result):
        assert_span_invariants(result.schedule)


class TestMultiHostGolden:
    @pytest.fixture
    def result(self, multihost_result):
        return multihost_result

    def test_components_bit_for_bit(self, result):
        golden = GOLDEN["multihost"]
        for name in (
            "coordinator_filter_s",
            "distribute_s",
            "host_makespan_s",
            "gather_s",
            "merge_s",
        ):
            assert getattr(result, name) == float.fromhex(golden[name]), name

    def test_routing_is_now_charged(self, result):
        """The satellite fix: Algorithm-2-at-host-granularity cost is no
        longer silently dropped."""
        assert result.route_s > 0
        assert result.total_s > sum(
            float.fromhex(GOLDEN["multihost"][n])
            for n in (
                "coordinator_filter_s",
                "distribute_s",
                "host_makespan_s",
                "gather_s",
                "merge_s",
            )
        )

    def test_span_invariants(self, result):
        assert_span_invariants(result.schedule)
        assert validate_chrome_trace(result.schedule.to_chrome_trace()) == []


def span_digest(schedule) -> dict:
    """Span count + blake2b over the lane order and every span's
    ``(resource, stage, t0, t1, cycles)`` in timeline order (floats as
    ``float.hex``) — the format ``golden_spans.json`` was written in."""
    h = hashlib.blake2b(digest_size=16)
    for name in schedule.timelines:
        h.update(f"lane {name}\n".encode())
    n = 0
    for tl in schedule.timelines.values():
        for s in tl.spans:
            n += 1
            h.update(
                f"{s.resource}|{s.stage}|{s.t0.hex()}|{s.t1.hex()}|"
                f"{s.cycles!r}\n".encode()
            )
    return {"spans": n, "blake2b": h.hexdigest()}


class TestEventCoreGolden:
    """Every engine's single-batch schedule matches ``golden_spans.json``
    span for span.  The fixture was captured from the emission-order
    analytic replay that preceded the single event core, so these pin
    the event core to that reference without keeping its code."""

    @pytest.mark.parametrize("name", ["upanns", "pim_naive", "upanns_scaled"])
    def test_ivfpq_engines_bit_for_bit(
        self, name, small_dataset, history_queries, trained_index, small_queries
    ):
        result = ivfpq_result(
            name, small_dataset, history_queries, trained_index, small_queries
        )
        assert span_digest(result.schedule) == GOLDEN_SPANS[name]

    def test_flat_engine_bit_for_bit(self, flat_result):
        assert span_digest(flat_result.schedule) == GOLDEN_SPANS["flat"]

    def test_multihost_bit_for_bit(self, multihost_result):
        assert span_digest(multihost_result.schedule) == GOLDEN_SPANS["multihost"]
