"""Algorithm 2 (query scheduling) tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import place_clusters, random_placement
from repro.core.scheduling import AdaptivePolicy, Assignment, schedule_batch
from repro.errors import SchedulingError
from repro.data.skew import zipf_weights


def setup(m=30, n_dpus=8, nq=50, nprobe=4, seed=0, headroom=3.0):
    rng = np.random.default_rng(seed)
    sizes = np.maximum(1, rng.lognormal(4, 1.0, size=m).astype(np.int64))
    freqs = zipf_weights(m, 0.8)
    rng.shuffle(freqs)
    pl = place_clusters(
        sizes, freqs, n_dpus, max_dpu_vectors=10**7, replication_headroom=headroom
    )
    probes = np.stack(
        [rng.choice(m, size=nprobe, replace=False, p=freqs) for _ in range(nq)]
    )
    return sizes, pl, probes


class TestAssignmentCorrectness:
    def test_every_pair_assigned_exactly_once(self):
        sizes, pl, probes = setup()
        a = schedule_batch(probes, sizes, pl)
        seen = sorted(
            (qi, c) for d in range(pl.n_dpus) for qi, c in a.per_dpu[d]
        )
        expected = sorted(
            (qi, int(c)) for qi in range(probes.shape[0]) for c in probes[qi]
        )
        assert seen == expected

    def test_pairs_only_on_replica_holders(self):
        sizes, pl, probes = setup()
        a = schedule_batch(probes, sizes, pl)
        for d in range(pl.n_dpus):
            for _, c in a.per_dpu[d]:
                assert d in pl.replicas[c]

    def test_workload_bookkeeping(self):
        sizes, pl, probes = setup()
        a = schedule_batch(probes, sizes, pl)
        recomputed = np.zeros(pl.n_dpus)
        for d in range(pl.n_dpus):
            recomputed[d] = sum(sizes[c] for _, c in a.per_dpu[d])
        np.testing.assert_allclose(a.dpu_workload, recomputed)

    def test_missing_replica_raises(self):
        sizes, pl, probes = setup()
        pl.replicas[int(probes[0, 0])] = []
        with pytest.raises(SchedulingError):
            schedule_batch(probes, sizes, pl)

    def test_total_pairs(self):
        sizes, pl, probes = setup(nq=20, nprobe=3)
        a = schedule_batch(probes, sizes, pl)
        assert a.total_pairs() == 60

    def test_queries_per_dpu(self):
        sizes, pl, probes = setup(nq=10, nprobe=2)
        a = schedule_batch(probes, sizes, pl)
        assert a.queries_per_dpu().sum() >= 10  # each query >= 1 DPU


class TestBalance:
    def test_beats_forced_single_replica(self):
        """With replication + greedy choice, balance beats the naive
        (random single-replica) mapping on skewed traffic."""
        rng = np.random.default_rng(3)
        m, n_dpus, nq, nprobe = 60, 16, 200, 4
        sizes = np.maximum(1, rng.lognormal(4, 1.0, size=m).astype(np.int64))
        freqs = zipf_weights(m, 1.0)
        rng.shuffle(freqs)
        probes = np.stack(
            [rng.choice(m, size=nprobe, replace=False, p=freqs) for _ in range(nq)]
        )
        smart_pl = place_clusters(
            sizes, freqs, n_dpus, max_dpu_vectors=10**7, replication_headroom=3.0
        )
        naive_pl = random_placement(sizes, n_dpus, max_dpu_vectors=10**7, rng=rng)
        smart = schedule_batch(probes, sizes, smart_pl)
        naive = schedule_batch(probes, sizes, naive_pl)
        assert smart.load_ratio() < naive.load_ratio()

    def test_refinement_never_hurts(self):
        sizes, pl, probes = setup(m=60, n_dpus=16, nq=150)
        refined = schedule_batch(probes, sizes, pl, refine=True)
        greedy = schedule_batch(probes, sizes, pl, refine=False)
        assert refined.load_ratio() <= greedy.load_ratio() + 1e-9

    def test_refinement_preserves_assignment_validity(self):
        sizes, pl, probes = setup(m=60, n_dpus=16, nq=150)
        a = schedule_batch(probes, sizes, pl, refine=True)
        for d in range(pl.n_dpus):
            for _, c in a.per_dpu[d]:
                assert d in pl.replicas[c]
        seen = sum(len(p) for p in a.per_dpu)
        assert seen == probes.size

    def test_load_ratio_on_empty(self):
        a = Assignment.empty(4)
        assert a.load_ratio() == 1.0


class TestAdaptivePolicy:
    def test_thresholds(self):
        p = AdaptivePolicy(replicate_threshold=0.05, relocate_threshold=0.25)
        assert p.decide(0.01) == "keep"
        assert p.decide(0.10) == "rereplicate"
        assert p.decide(0.50) == "relocate"

    def test_history_recorded(self):
        p = AdaptivePolicy()
        p.decide(0.0)
        p.decide(0.9)
        assert p.history() == ["keep", "relocate"]


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(4, 40),
    n_dpus=st.integers(1, 16),
    nq=st.integers(1, 40),
    nprobe=st.integers(1, 4),
    seed=st.integers(0, 500),
)
def test_scheduling_properties(m, n_dpus, nq, nprobe, seed):
    """Property: every (query, probe) pair lands on exactly one replica
    holder, for arbitrary skew and topology."""
    nprobe = min(nprobe, m)
    rng = np.random.default_rng(seed)
    sizes = np.maximum(1, rng.lognormal(2, 1.0, size=m).astype(np.int64))
    freqs = rng.random(m) + 1e-9
    freqs /= freqs.sum()
    pl = place_clusters(sizes, freqs, n_dpus, max_dpu_vectors=int(sizes.sum()) + 1)
    probes = np.stack(
        [rng.choice(m, size=nprobe, replace=False) for _ in range(nq)]
    )
    a = schedule_batch(probes, sizes, pl)
    assert a.total_pairs() == nq * nprobe
    for d in range(n_dpus):
        for _, c in a.per_dpu[d]:
            assert d in pl.replicas[c]
