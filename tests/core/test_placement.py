"""Algorithm 1 (data placement) tests."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, PlacementError
from repro.core.placement import place_clusters, random_placement
from repro.data.skew import zipf_weights


def make_inputs(m=40, n_dpus=16, seed=0, sigma=1.0):
    rng = np.random.default_rng(seed)
    sizes = np.maximum(1, rng.lognormal(4, sigma, size=m).astype(np.int64))
    freqs = zipf_weights(m, 1.0)
    rng.shuffle(freqs)
    return sizes, freqs, n_dpus


class TestInvariants:
    def test_every_cluster_placed(self):
        sizes, freqs, n = make_inputs()
        pl = place_clusters(sizes, freqs, n, max_dpu_vectors=10**6)
        assert all(len(r) >= 1 for r in pl.replicas)

    def test_no_duplicate_dpu_per_cluster(self):
        sizes, freqs, n = make_inputs()
        pl = place_clusters(sizes, freqs, n, max_dpu_vectors=10**6)
        for r in pl.replicas:
            assert len(set(r)) == len(r)

    def test_validate_passes(self):
        sizes, freqs, n = make_inputs()
        pl = place_clusters(sizes, freqs, n, max_dpu_vectors=10**6)
        pl.validate(sizes, 10**6)

    def test_capacity_respected(self):
        sizes, freqs, n = make_inputs()
        cap = int(sizes.sum())  # loose but finite
        pl = place_clusters(sizes, freqs, n, max_dpu_vectors=cap)
        stored = np.zeros(n, dtype=np.int64)
        for c, dpus in enumerate(pl.replicas):
            for d in dpus:
                stored[d] += sizes[c]
        assert (stored <= cap).all()

    def test_oversized_cluster_rejected(self):
        sizes = np.array([100, 5000])
        freqs = np.array([0.5, 0.5])
        with pytest.raises(PlacementError):
            place_clusters(sizes, freqs, 4, max_dpu_vectors=1000)

    def test_capacity_infeasible_raises(self):
        sizes = np.full(20, 100, dtype=np.int64)
        freqs = np.full(20, 0.05)
        with pytest.raises(PlacementError):
            place_clusters(sizes, freqs, 2, max_dpu_vectors=150)

    def test_misaligned_inputs(self):
        with pytest.raises(ConfigError):
            place_clusters(np.ones(3), np.ones(4), 2, max_dpu_vectors=10)

    def test_needs_a_dpu(self):
        with pytest.raises(ConfigError):
            place_clusters(np.ones(3), np.ones(3), 0, max_dpu_vectors=10)


def tight_inputs(seed, slack, with_centroids):
    """Seeded inputs whose MAX_DPU_SIZE leaves ``slack``x the raw vectors
    per DPU: tight enough that capacity steers placement and ``thld``
    has to rise."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(12, 48))
    n_dpus = int(rng.integers(3, 9))
    sizes = rng.integers(20, 200, size=m)
    freqs = rng.dirichlet(np.full(m, 0.3))
    cap = int(np.ceil(sizes.sum() * slack / n_dpus))
    centroids = rng.normal(size=(m, 4)) if with_centroids else None
    return sizes, freqs, n_dpus, cap, centroids


TIGHT_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_placement_tight.json").read_text()
)


@pytest.mark.parametrize(
    "case",
    TIGHT_GOLDEN,
    ids=[f"seed{c['seed']}-c{int(c['centroids'])}" for c in TIGHT_GOLDEN],
)
def test_tight_feasible_placement_matches_golden(case):
    """Tight-but-feasible placements stay exactly as pinned.

    The golden was recorded before the early capacity-infeasible exit
    was added; the feasible path must not have moved.
    """
    sizes, freqs, n_dpus, cap, centroids = tight_inputs(
        case["seed"], case["slack"], case["centroids"]
    )
    pl = place_clusters(sizes, freqs, n_dpus, max_dpu_vectors=cap, centroids=centroids)
    assert pl.load_ratio() > 1.0  # thld rose above its starting 1.0
    assert pl.replicas == case["replicas"]
    assert [v.hex() for v in pl.dpu_workload.tolist()] == case["dpu_workload"]
    assert pl.dpu_vectors.tolist() == case["dpu_vectors"]
    assert pl.mean_workload.hex() == case["mean_workload"]


class TestReplication:
    def test_hot_clusters_replicated(self):
        sizes = np.full(10, 1000, dtype=np.int64)
        freqs = np.array([0.91] + [0.01] * 9)
        pl = place_clusters(sizes, freqs, 8, max_dpu_vectors=10**6)
        assert len(pl.replicas[0]) > max(len(r) for r in pl.replicas[1:])

    def test_uniform_frequencies_little_replication(self):
        sizes = np.full(64, 100, dtype=np.int64)
        freqs = np.full(64, 1 / 64)
        pl = place_clusters(
            sizes, freqs, 8, max_dpu_vectors=10**6, replication_headroom=1.0
        )
        # Each cluster carries 1/64 of total workload over 8 DPUs -> 1/8
        # of a DPU each -> single replicas.
        assert all(len(r) == 1 for r in pl.replicas)

    def test_headroom_scales_replicas(self):
        sizes, freqs, n = make_inputs()
        lo = place_clusters(
            sizes, freqs, n, max_dpu_vectors=10**6, replication_headroom=1.0
        )
        hi = place_clusters(
            sizes, freqs, n, max_dpu_vectors=10**6, replication_headroom=3.0
        )
        assert sum(len(r) for r in hi.replicas) > sum(len(r) for r in lo.replicas)

    def test_replicas_capped_at_ndpus(self):
        sizes = np.array([1000, 1])
        freqs = np.array([0.999, 0.001])
        pl = place_clusters(
            sizes, freqs, 4, max_dpu_vectors=10**6, replication_headroom=3.0
        )
        assert len(pl.replicas[0]) <= 4


class TestBalance:
    def test_estimated_load_ratio_near_one(self):
        sizes, freqs, n = make_inputs(m=200, n_dpus=16)
        pl = place_clusters(sizes, freqs, n, max_dpu_vectors=10**7)
        assert pl.load_ratio() < 1.6

    def test_beats_random_on_skew(self):
        sizes, freqs, n = make_inputs(m=200, n_dpus=16, sigma=1.5)
        smart = place_clusters(sizes, freqs, n, max_dpu_vectors=10**7)
        rand = random_placement(sizes, n, max_dpu_vectors=10**7)
        # Compare estimated workload ratios under the true frequencies.
        def realized_ratio(pl):
            w = np.zeros(n)
            for c, dpus in enumerate(pl.replicas):
                for d in dpus:
                    w[d] += sizes[c] * freqs[c] / len(dpus)
            return w.max() / w.mean()

        assert realized_ratio(smart) < realized_ratio(rand)


class TestRandomPlacement:
    def test_single_replica_each(self):
        sizes, _, n = make_inputs()
        pl = random_placement(sizes, n, max_dpu_vectors=10**6)
        assert all(len(r) == 1 for r in pl.replicas)

    def test_capacity_respected(self):
        sizes = np.full(10, 100, dtype=np.int64)
        pl = random_placement(sizes, 5, max_dpu_vectors=200)
        assert (pl.dpu_vectors <= 200).all()

    def test_infeasible_raises(self):
        sizes = np.full(10, 100, dtype=np.int64)
        with pytest.raises(PlacementError):
            random_placement(sizes, 2, max_dpu_vectors=150)

    def test_deterministic_with_seed(self):
        sizes, _, n = make_inputs()
        a = random_placement(sizes, n, max_dpu_vectors=10**6, rng=np.random.default_rng(5))
        b = random_placement(sizes, n, max_dpu_vectors=10**6, rng=np.random.default_rng(5))
        assert a.replicas == b.replicas


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(2, 60),
    n=st.integers(1, 24),
    seed=st.integers(0, 999),
    headroom=st.floats(1.0, 4.0),
)
def test_placement_properties(m, n, seed, headroom):
    """Property: for any skew, placement covers all clusters, never
    duplicates a DPU within a cluster, and respects capacity."""
    rng = np.random.default_rng(seed)
    sizes = np.maximum(1, rng.lognormal(3, 1.2, size=m).astype(np.int64))
    freqs = rng.random(m) + 1e-6
    freqs /= freqs.sum()
    cap = int(sizes.sum()) + 1
    pl = place_clusters(
        sizes, freqs, n, max_dpu_vectors=cap, replication_headroom=headroom
    )
    pl.validate(sizes, cap)
    assert len(pl.replicas) == m
