"""K-means tests: correctness, degenerate cases, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.ivfpq import IVFPQIndex
from repro.ivfpq.kmeans import (
    _centroid_sums,
    _EinsumSqDistances,
    assign_to_centroids,
    kmeans,
    kmeans_pp_init,
    squared_distances,
)


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(0)
    centers = rng.normal(0, 10, size=(5, 8)).astype(np.float32)
    labels = rng.integers(0, 5, size=500)
    return (centers[labels] + rng.normal(0, 0.3, size=(500, 8))).astype(
        np.float32
    ), labels, centers


class TestSquaredDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 6)).astype(np.float32)
        c = rng.normal(size=(7, 6)).astype(np.float32)
        d2 = squared_distances(x, c)
        naive = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(d2, naive, rtol=1e-4, atol=1e-3)

    def test_chunking_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 4)).astype(np.float32)
        c = rng.normal(size=(9, 4)).astype(np.float32)
        np.testing.assert_allclose(
            squared_distances(x, c, chunk=7), squared_distances(x, c), atol=1e-4
        )

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3)).astype(np.float32)
        assert (squared_distances(x, x[:5]) >= 0).all()

    def test_self_distance_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 5)).astype(np.float32)
        d2 = squared_distances(x, x)
        np.testing.assert_allclose(np.diag(d2), 0.0, atol=1e-3)


class TestAssign:
    def test_assignment_is_nearest(self, blobs):
        x, _, _ = blobs
        c = x[:6].copy()
        labels, dists = assign_to_centroids(x, c)
        full = squared_distances(x, c)
        np.testing.assert_array_equal(labels, full.argmin(axis=1))
        np.testing.assert_allclose(dists, full.min(axis=1), rtol=1e-3, atol=1e-2)


class TestKMeansPP:
    def test_returns_k_centroids(self, blobs):
        x, _, _ = blobs
        c = kmeans_pp_init(x, 7, np.random.default_rng(0))
        assert c.shape == (7, x.shape[1])

    def test_degenerate_identical_points(self):
        x = np.ones((20, 3), dtype=np.float32)
        c = kmeans_pp_init(x, 4, np.random.default_rng(0))
        assert c.shape == (4, 3)


class TestKMeans:
    def test_recovers_blob_structure(self, blobs):
        x, true_labels, _ = blobs
        res = kmeans(x, 5, n_iter=25, rng=np.random.default_rng(0))
        # Each found cluster should be dominated by one true blob.
        for c in range(5):
            members = true_labels[res.assignments == c]
            if members.size:
                dominant = np.bincount(members).max() / members.size
                assert dominant > 0.9

    def test_no_empty_clusters(self, blobs):
        x, _, _ = blobs
        res = kmeans(x, 32, n_iter=10, rng=np.random.default_rng(0))
        assert np.bincount(res.assignments, minlength=32).min() >= 1

    def test_inertia_improves_over_random_init_assignment(self, blobs):
        x, _, _ = blobs
        r1 = kmeans(x, 5, n_iter=1, rng=np.random.default_rng(0))
        r20 = kmeans(x, 5, n_iter=20, rng=np.random.default_rng(0))
        assert r20.inertia <= r1.inertia * 1.001

    def test_deterministic_given_seed(self, blobs):
        x, _, _ = blobs
        a = kmeans(x, 5, rng=np.random.default_rng(42))
        b = kmeans(x, 5, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_k_equals_one(self, blobs):
        x, _, _ = blobs
        res = kmeans(x, 1, n_iter=3)
        np.testing.assert_allclose(res.centroids[0], x.mean(axis=0), atol=1e-2)

    def test_k_equals_n(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3)).astype(np.float32)
        res = kmeans(x, 10, n_iter=5)
        assert res.inertia == pytest.approx(0.0, abs=1e-2)

    def test_rejects_k_over_n(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2), dtype=np.float32), 5)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2), dtype=np.float32), 0)

    def test_rejects_unknown_init(self, blobs):
        x, _, _ = blobs
        with pytest.raises(ConfigError):
            kmeans(x, 3, init="bogus")

    def test_random_init_works(self, blobs):
        x, _, _ = blobs
        res = kmeans(x, 5, n_iter=15, init="random", rng=np.random.default_rng(0))
        assert res.centroids.shape == (5, x.shape[1])

    def test_assignments_match_centroids(self, blobs):
        """Post-condition: every point is assigned to its nearest centroid."""
        x, _, _ = blobs
        res = kmeans(x, 5, n_iter=10)
        d2 = squared_distances(x, res.centroids)
        np.testing.assert_array_equal(res.assignments, d2.argmin(axis=1))


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _reference_pp_init(x, k, rng):
    """The straightforward k-means++ seeding the fast one must reproduce."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float32)
    centroids[0] = x[int(rng.integers(n))]
    closest = np.full(n, np.inf, dtype=np.float32)
    for i in range(1, k):
        new_d = np.einsum("ij,ij->i", x - centroids[i - 1], x - centroids[i - 1])
        np.minimum(closest, new_d, out=closest)
        total = float(closest.sum())
        if total <= 0:
            centroids[i] = x[int(rng.integers(n))]
            continue
        centroids[i] = x[int(rng.choice(n, p=closest / total))]
    return centroids


class TestBitIdentity:
    """The fast k-means paths equal the straightforward ones bit for bit.

    Trained centroids feed every golden, so these fail loudly where a
    NumPy build sums in another order, instead of moving the goldens.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 40),
        log_scale=st.floats(-15, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lane_order_matches_einsum_at_every_width(self, n, log_scale, seed):
        rng = np.random.default_rng(seed)
        for d in range(1, 71):
            x = (rng.normal(size=(n, d)) * 10.0**log_scale).astype(np.float32)
            c = (rng.normal(size=d) * 10.0**log_scale).astype(np.float32)
            want = np.einsum("ij,ij->i", x - c, x - c)
            got = _EinsumSqDistances(x)(c)
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"d={d}")

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 36),
        k_frac=st.floats(0.0, 1.0),
        log_scale=st.floats(-4, 4),
        duplicates=st.sampled_from(["none", "half", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pp_init_matches_reference(self, n, d, k_frac, log_scale, duplicates, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(n, d)) * 10.0**log_scale).astype(np.float32)
        if duplicates == "half":
            x[: n // 2] = x[0]
        elif duplicates == "all":  # total <= 0 after the first step
            x[:] = x[0]
        k = 1 + int(k_frac * (min(n, 48) - 1))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = kmeans_pp_init(x, k, ours)
        want = _reference_pp_init(x, k, theirs)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 400),
        d=st.integers(1, 20),
        k=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_centroid_sums_match_add_at(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        # A wide dynamic range makes the float64 sums inexact, so the
        # addition order shows in the bits.
        scale = 10.0 ** rng.uniform(-10, 10, size=(n, d))
        x = (rng.normal(size=(n, d)) * scale).astype(np.float32)
        labels = rng.integers(0, k, size=n)
        want = np.zeros((k, d), dtype=np.float64)
        np.add.at(want, labels, x)
        np.testing.assert_array_equal(_bits(_centroid_sums(x, labels, k)), _bits(want))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, blobs, bad):
        x = blobs[0].copy()
        x[17, 3] = bad
        with pytest.raises(ConfigError, match="not finite"):
            kmeans(x, 5, rng=np.random.default_rng(0))

    def test_float32_overflow_rejected(self):
        x = np.full((40, 4), 3e38, dtype=np.float32)
        x[::2] = -3e38
        with pytest.raises(ConfigError, match="not finite"):
            kmeans(x, 3, rng=np.random.default_rng(0))

    def test_index_train_rejects_nan(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(600, 16)).astype(np.float32)
        x[::50] = np.nan
        with pytest.raises(ConfigError, match="not finite"):
            IVFPQIndex(16, 8, 4).train(x, n_iter=2, rng=rng)
