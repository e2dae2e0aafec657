"""Lloyd's k-means with k-means++ seeding and empty-cluster repair.

Used twice in the IVFPQ offline phase (paper section 2.1): once for the
coarse quantizer (|C| clusters over the full vectors) and once per PQ
subspace (256 codewords over sub-vectors).  Implemented fully vectorized
with chunked distance computation to bound peak memory (guide: beware of
cache effects; use views, broadcast small arrays).

Bit-identity contract: the trained centroids feed every golden and
digest in the repo, so the fast paths here reproduce, bit for bit, the
straightforward formulation they replace:

* :func:`kmeans_pp_init` computes each step's
  ``np.einsum("ij,ij->i", x - c, x - c)`` with whole-array ufuncs that
  replay einsum's summation order: the four-lane float32 accumulator of
  NumPy's baseline (128-bit SIMD, no FMA) build, see
  :class:`_EinsumSqDistances`.  ``tests/ivfpq/test_kmeans.py`` checks
  this against ``np.einsum`` bitwise, so a NumPy build with another
  order fails there instead of silently moving goldens.
* The D^2 draw is ``Generator.choice(n, p=...)``'s own CDF search,
  inlined: it consumes exactly one double from the generator.
* Lloyd centroid sums use one ``np.bincount`` per column, which adds the
  float64 values in row order exactly as ``np.add.at`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass
class KMeansResult:
    """Output of :func:`kmeans`."""

    centroids: np.ndarray  # (k, d) float32
    assignments: np.ndarray  # (n,) int64
    inertia: float
    n_iter: int


def squared_distances(x: np.ndarray, centroids: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """All-pairs squared L2 distances, chunked over rows of ``x``.

    Uses the ||x||^2 - 2 x.c + ||c||^2 expansion so the inner step is a
    GEMM (the fastest primitive available), computed in float32.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    centroids = np.ascontiguousarray(centroids, dtype=np.float32)
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    out = np.empty((x.shape[0], centroids.shape[0]), dtype=np.float32)
    for start in range(0, x.shape[0], chunk):
        xs = x[start : start + chunk]
        x_norms = np.einsum("ij,ij->i", xs, xs)
        dot = xs @ centroids.T
        block = x_norms[:, None] - 2.0 * dot + c_norms[None, :]
        np.maximum(block, 0.0, out=block)
        out[start : start + xs.shape[0]] = block
    return out


def assign_to_centroids(
    x: np.ndarray, centroids: np.ndarray, chunk: int = 4096
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment; returns (labels, squared distances)."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    centroids = np.ascontiguousarray(centroids, dtype=np.float32)
    n = x.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float32)
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, n, chunk):
        xs = x[start : start + chunk]
        block = xs @ centroids.T
        block *= -2.0
        block += c_norms[None, :]
        idx = np.argmin(block, axis=1)
        labels[start : start + xs.shape[0]] = idx
        x_norms = np.einsum("ij,ij->i", xs, xs)
        best = block[np.arange(xs.shape[0]), idx] + x_norms
        dists[start : start + xs.shape[0]] = np.maximum(best, 0.0)
    return labels, dists


class _EinsumSqDistances:
    """``np.einsum("ij,ij->i", x - c, x - c)`` for a fixed ``x``, bit for bit.

    Holds ``x`` transposed into zero-padded 4-row blocks
    (``xt[b, lane] == x[:, 4 * b + lane]``) so each call is a few
    whole-array ufuncs over rows ``n`` long instead of einsum's per-row
    loop over rows only ``d`` wide.  The blocks are summed in the order
    of einsum's float32 inner loop: each full 16-element group four
    blocks at a time, last block first; then the remaining blocks (the
    last one zero-filled) in order; then ``(l0 + l1) + (l2 + l3)``
    across the four lanes.
    """

    def __init__(self, x: np.ndarray) -> None:
        n, self.d = x.shape
        n_blocks = -(-self.d // 4)
        xt = np.zeros((n_blocks * 4, n), dtype=np.float32)
        xt[: self.d] = x.T
        self.xt = xt.reshape(n_blocks, 4, n)
        self.c_pad = np.zeros((n_blocks, 4, 1), dtype=np.float32)
        self.diff = np.empty_like(self.xt)
        full = self.d // 16
        self.order = [4 * g + b for g in range(full) for b in (3, 2, 1, 0)]
        self.order += range(4 * full, n_blocks)

    def __call__(self, c: np.ndarray) -> np.ndarray:
        """Distances from every row to ``c``; a view, valid until the next call."""
        self.c_pad.reshape(-1)[: self.d] = c
        diff = np.subtract(self.xt, self.c_pad, out=self.diff)
        np.multiply(diff, diff, out=diff)
        lanes = diff[self.order[0]]
        for b in self.order[1:]:
            lanes += diff[b]
        lanes[0] += lanes[1]
        lanes[2] += lanes[3]
        lanes[0] += lanes[2]
        return lanes[0]


def kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling.

    Bitwise equal to computing each step's distances with
    ``np.einsum("ij,ij->i", x - c, x - c)`` and drawing with
    ``rng.choice(n, p=closest / total)`` (see the module docstring).
    Raises :class:`ConfigError` when the distances are not finite.
    """
    n, d = x.shape
    centroids = np.empty((k, d), dtype=np.float32)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest = np.full(n, np.inf, dtype=np.float32)
    sq_distances = _EinsumSqDistances(x)
    probs = np.empty(n, dtype=np.float32)
    cdf = np.empty(n, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, k):
            np.minimum(closest, sq_distances(centroids[i - 1]), out=closest)
            total = float(closest.sum())
            if not np.isfinite(total):
                raise ConfigError(
                    "k-means++ distances are not finite: the training "
                    "vectors contain NaN or inf, or are so large that "
                    "their squared distances overflow float32"
                )
            if total <= 0:
                # All points coincide with chosen centroids; fall back to
                # uniform sampling so we still return k centroids.
                centroids[i] = x[int(rng.integers(n))]
                continue
            # Generator.choice(n, p=closest / total) without its per-call
            # copies and checks: the same float64 CDF, normalised by its
            # last entry, searched with one uniform double.  Its checks
            # cannot fire here: closest >= 0 and is finite, and dividing
            # by its own sum leaves p within float32 rounding of summing
            # to 1, far inside choice's tolerance.
            np.divide(closest, total, out=probs)
            cdf[...] = probs
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            centroids[i] = x[int(cdf.searchsorted(rng.random(), side="right"))]
    return centroids


def _centroid_sums(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster float64 sums of ``x``; bitwise equal to ``np.add.at``."""
    sums = np.empty((k, x.shape[1]), dtype=np.float64)
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
    return sums


def kmeans(
    x: np.ndarray,
    k: int,
    *,
    n_iter: int = 20,
    rng: np.random.Generator | None = None,
    tol: float = 1e-4,
    init: str = "k-means++",
) -> KMeansResult:
    """Cluster ``x`` into ``k`` groups with Lloyd's algorithm.

    Empty clusters are repaired each iteration by re-seeding them at the
    point farthest from its current centroid (splitting the worst-fit
    region), so the result always has k non-degenerate centroids —
    required downstream because IVF lists index by cluster id.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    n, _d = x.shape
    if k < 1:
        raise ConfigError("k must be >= 1")
    if n < k:
        raise ConfigError(f"cannot form {k} clusters from {n} points")
    rng = rng if rng is not None else np.random.default_rng(0)

    if init == "k-means++":
        centroids = kmeans_pp_init(x, k, rng)
    elif init == "random":
        centroids = x[rng.choice(n, size=k, replace=False)].astype(np.float32)
    else:
        raise ConfigError(f"unknown init {init!r}")

    labels = np.zeros(n, dtype=np.int64)
    prev_inertia = np.inf
    it = 0
    for it in range(1, n_iter + 1):
        labels, dists = assign_to_centroids(x, centroids)
        inertia = float(dists.sum())

        counts = np.bincount(labels, minlength=k)
        sums = _centroid_sums(x, labels, k)
        nonempty = counts > 0
        centroids[nonempty] = (
            sums[nonempty] / counts[nonempty, None]
        ).astype(np.float32)

        empty = np.flatnonzero(~nonempty)
        if empty.size:
            # Re-seed empties at the currently worst-fit points.
            order = np.argsort(dists)[::-1]
            centroids[empty] = x[order[: empty.size]]

        if prev_inertia - inertia <= tol * max(prev_inertia, 1e-12):
            break
        prev_inertia = inertia

    labels, dists = assign_to_centroids(x, centroids)
    return KMeansResult(
        centroids=centroids,
        assignments=labels,
        inertia=float(dists.sum()),
        n_iter=it,
    )
