"""System-level property tests: the engine/reference equivalence must
hold for arbitrary geometries and optimization mixes, not just the
fixture configuration.  Each drawn case also runs the looped oracle
engine (``tests/core/looped_oracle.py``) over the same placement, and
the grouped kernel must match it bit for bit."""

import copy
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.flat_engine import IVFFlatPimEngine
from repro.faults import FaultPlan
from repro.hardware.specs import PimSystemSpec
from repro.ivfpq import IVFPQIndex
from repro.ivfpq.ivfflat import IVFFlatIndex
from tests.core.looped_oracle import (
    LoopedIVFFlatPimEngine,
    LoopedUpANNSEngine,
    observed_search,
)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def engine_cases(draw):
    dim = draw(st.sampled_from([16, 32]))
    m = draw(st.sampled_from([4, 8]))
    if dim % m:
        m = 4
    n_clusters = draw(st.sampled_from([8, 16]))
    nprobe = draw(st.integers(1, n_clusters))
    k = draw(st.integers(1, 12))
    n_dpus = draw(st.sampled_from([8, 16, 24]))
    placement = draw(st.booleans())
    cae = draw(st.booleans())
    prune = draw(st.booleans())
    tasklets = draw(st.sampled_from([1, 4, 11]))
    seed = draw(st.integers(0, 10_000))
    return dim, m, n_clusters, nprobe, k, n_dpus, placement, cae, prune, tasklets, seed


@st.composite
def fault_specs(draw, n_dpus):
    """No faults, or a DPU death and/or transient transfer faults at the
    first batch."""
    specs = []
    if draw(st.booleans()):
        specs.append(f"dpu:{draw(st.integers(0, n_dpus - 1))}@0")
    for target in draw(st.lists(st.integers(0, n_dpus - 1), max_size=2)):
        specs.append(f"transfer:{target}@0")
    return specs


def pim_spec(n_dpus):
    return PimSystemSpec(n_dimms=1, chips_per_dimm=max(1, n_dpus // 8), dpus_per_chip=8)


def timing_hex(timing):
    return {f.name: getattr(timing, f.name).hex() for f in fields(timing)}


def run_both(grouped, looped, queries, specs):
    """One batch on each engine, with the same fault plan armed on both:
    the two results, then the two DMA telemetry snapshots."""
    out = []
    for engine in (grouped, looped):
        if specs:
            engine.inject(FaultPlan.from_specs(specs, seed=1))
        out.append(observed_search(engine, queries))
    return tuple(zip(*out))


def assert_bit_identical(grouped, looped, got, want):
    """ids, distance bits, every timing field's and every stage's
    ``float.hex``, every DPU's busy-second bits, every DPU's counters and
    the heap statistics."""
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(
        got.distances.view(np.uint32), want.distances.view(np.uint32)
    )
    assert timing_hex(got.timing) == timing_hex(want.timing)
    assert timing_hex(got.stage_seconds) == timing_hex(want.stage_seconds)
    np.testing.assert_array_equal(
        got.dpu_busy_seconds.view(np.uint64), want.dpu_busy_seconds.view(np.uint64)
    )
    assert [d.counters for d in grouped.pim.dpus] == [
        d.counters for d in looped.pim.dpus
    ]
    assert got.heap_stats == want.heap_stats


@SETTINGS
@given(case=engine_cases(), data=st.data())
def test_engine_matches_reference_for_random_configs(case, data):
    """Property: whatever the geometry, PIM topology, tasklet count and
    optimization mix, the engine's distances equal the reference
    index's (the paper's accuracy-preservation claim, universally), and
    the grouped kernel equals the looped oracle bit for bit, with and
    without faults."""
    dim, m, n_clusters, nprobe, k, n_dpus, placement, cae, prune, tasklets, seed = case
    specs = data.draw(fault_specs(n_dpus))
    rng = np.random.default_rng(seed)
    n = 600
    vectors = rng.normal(size=(n, dim)).astype(np.float32)
    queries = rng.normal(size=(8, dim)).astype(np.float32)

    index = IVFPQIndex(dim, n_clusters, m)
    index.train(vectors, n_iter=3, rng=rng)
    index.add(vectors)

    cfg = SystemConfig(
        index=IndexConfig(dim=dim, n_clusters=n_clusters, m=m, train_iters=3),
        query=QueryConfig(nprobe=nprobe, k=k, batch_size=8),
        upanns=UpANNSConfig(
            enable_placement=placement,
            enable_cae=cae,
            enable_topk_pruning=prune,
            n_tasklets=tasklets,
        ),
        pim=pim_spec(n_dpus),
    )
    engine, looped = UpANNSEngine(cfg), LoopedUpANNSEngine(cfg)
    looped.build(vectors, prebuilt_index=index, rng=copy.deepcopy(rng))
    engine.build(vectors, prebuilt_index=index, rng=rng)
    (res, ref_looped), (dma, ref_dma) = run_both(engine, looped, queries, specs)
    assert_bit_identical(engine, looped, res, ref_looped)
    assert dma == ref_dma

    if res.degraded is None or res.degraded.dropped_pairs == 0:
        # Retries and re-routing change time, never results.
        ref = index.search(queries, k, nprobe)
        np.testing.assert_allclose(
            np.where(np.isfinite(res.distances), res.distances, -1.0),
            np.where(np.isfinite(ref.distances), ref.distances, -1.0),
            rtol=1e-4,
            atol=1e-3,
        )
    # Timing is always positive and finite.
    assert np.isfinite(res.timing.total_s) and res.timing.total_s > 0
    # Balance statistic is well-formed.
    assert res.cycle_load_ratio >= 1.0 - 1e-9


@SETTINGS
@given(case=engine_cases(), data=st.data())
def test_flat_engine_matches_looped_for_random_configs(case, data):
    """The flat engine's batched per-DPU top-k equals selecting each
    (DPU, query) group on its own, bit for bit, with and without
    faults."""
    dim, _, n_clusters, nprobe, k, n_dpus, placement, _, prune, tasklets, seed = case
    specs = data.draw(fault_specs(n_dpus))
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(400, dim)).astype(np.float32)
    queries = rng.normal(size=(8, dim)).astype(np.float32)

    index = IVFFlatIndex(dim, n_clusters)
    index.train(vectors, n_iter=3, rng=rng)
    index.add(vectors)

    cfg = SystemConfig(
        index=IndexConfig(dim=dim, n_clusters=n_clusters, m=4, train_iters=3),
        query=QueryConfig(nprobe=nprobe, k=k, batch_size=8),
        upanns=UpANNSConfig(
            enable_placement=placement,
            enable_cae=False,
            enable_topk_pruning=prune,
            n_tasklets=tasklets,
        ),
        pim=pim_spec(n_dpus),
    )
    engine, looped = IVFFlatPimEngine(cfg), LoopedIVFFlatPimEngine(cfg)
    looped.build(vectors, prebuilt_index=index, rng=copy.deepcopy(rng))
    engine.build(vectors, prebuilt_index=index, rng=rng)
    (res, ref_looped), (dma, ref_dma) = run_both(engine, looped, queries, specs)
    assert_bit_identical(engine, looped, res, ref_looped)
    assert dma == ref_dma
    assert np.isfinite(res.timing.total_s) and res.timing.total_s > 0
