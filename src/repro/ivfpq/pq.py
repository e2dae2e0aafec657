"""Product quantizer: train, encode, decode, LUTs (paper section 2.1).

A vector of dimension D is split into M sub-vectors of dimension D/M;
each sub-vector is quantized against a 2^nbits-entry codebook trained per
subspace.  A 128-d float vector becomes M uint8 codes — the paper's 8x
compression example (512 B -> 64 B with M=16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, NotTrainedError
from repro.ivfpq.kmeans import assign_to_centroids, kmeans


@dataclass
class ProductQuantizer:
    """Per-subspace codebooks and the encode/decode/LUT operations."""

    dim: int
    m: int
    nbits: int = 8
    codebooks: np.ndarray | None = field(default=None, repr=False)  # (m, ksub, dsub)
    # (codebooks it was computed from, (m, ksub) squared codeword norms,
    # (m, dsub, ksub) contiguous transposed codebooks).
    _gemm_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dim % self.m != 0:
            raise ConfigError(f"dim {self.dim} not divisible by m {self.m}")
        if not 1 <= self.nbits <= 8:
            raise ConfigError("nbits must be in [1, 8] (codes stored as uint8)")

    @property
    def dsub(self) -> int:
        return self.dim // self.m

    @property
    def ksub(self) -> int:
        return 1 << self.nbits

    @property
    def is_trained(self) -> bool:
        return self.codebooks is not None

    @property
    def code_bytes(self) -> int:
        """Bytes per encoded vector (one uint8 per sub-quantizer)."""
        return self.m

    def _require_trained(self) -> np.ndarray:
        if self.codebooks is None:
            raise NotTrainedError("ProductQuantizer.train() has not been called")
        return self.codebooks

    def train(
        self,
        x: np.ndarray,
        *,
        n_iter: int = 20,
        rng: np.random.Generator | None = None,
    ) -> "ProductQuantizer":
        """Fit one k-means codebook per subspace on training vectors."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        if x.shape[1] != self.dim:
            raise ConfigError(f"training data dim {x.shape[1]} != {self.dim}")
        if x.shape[0] < self.ksub:
            raise ConfigError(
                f"need >= {self.ksub} training vectors, got {x.shape[0]}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        books = np.empty((self.m, self.ksub, self.dsub), dtype=np.float32)
        for sub in range(self.m):
            sl = x[:, sub * self.dsub : (sub + 1) * self.dsub]
            books[sub] = kmeans(sl, self.ksub, n_iter=n_iter, rng=rng).centroids
        self.codebooks = books
        return self

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Quantize vectors to (n, m) uint8 codes."""
        books = self._require_trained()
        x = np.ascontiguousarray(x, dtype=np.float32)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.dim:
            raise ConfigError(f"data dim {x.shape[1]} != {self.dim}")
        codes = np.empty((x.shape[0], self.m), dtype=np.uint8)
        for sub in range(self.m):
            sl = x[:, sub * self.dsub : (sub + 1) * self.dsub]
            labels, _ = assign_to_centroids(sl, books[sub])
            codes[:, sub] = labels.astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct (approximate) vectors from codes."""
        books = self._require_trained()
        codes = np.atleast_2d(codes)
        if codes.shape[1] != self.m:
            raise ConfigError(f"codes have {codes.shape[1]} columns, expected {self.m}")
        out = np.empty((codes.shape[0], self.dim), dtype=np.float32)
        for sub in range(self.m):
            out[:, sub * self.dsub : (sub + 1) * self.dsub] = books[sub][codes[:, sub]]
        return out

    def compute_lut(self, query: np.ndarray) -> np.ndarray:
        """Per-subspace squared distances from a query to every codeword.

        Returns the (m, ksub) float32 lookup table of paper stage (b):
        ``lut[sub, j] = || q_sub - codebook[sub][j] ||^2``.  ADC distance
        to any encoded point is then a sum of M table lookups.
        """
        books = self._require_trained()
        query = np.asarray(query, dtype=np.float32).reshape(self.dim)
        lut = np.empty((self.m, self.ksub), dtype=np.float32)
        for sub in range(self.m):
            diff = books[sub] - query[sub * self.dsub : (sub + 1) * self.dsub]
            lut[sub] = np.einsum("ij,ij->i", diff, diff)
        return lut

    def compute_luts(
        self, queries: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched :meth:`compute_lut` -> (nq, m, ksub).

        Row i depends only on ``queries[i]``, never on the other rows
        of the stack: a table built alone has the same bits as the same
        table built among many.  NumPy sends a one-row product to gemv,
        whose rounding differs from gemm's, so a single query is
        computed as a two-row stack.  ``out`` (an (nq, m, ksub) float32
        array, possibly a strided view) receives the tables in place.
        """
        books = self._require_trained()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        nq = queries.shape[0]
        shape = (nq, self.m, self.ksub)
        if out is None:
            out = np.empty(shape, dtype=np.float32)
        elif out.shape != shape or out.dtype != np.float32:
            raise ConfigError(f"out must be a float32 array of shape {shape}")
        if nq == 1:
            out[...] = self.compute_luts(np.repeat(queries, 2, axis=0))[:1]
            return out
        norms, books_t = self._gemm_operands(books)
        for sub in range(self.m):
            qs = queries[:, sub * self.dsub : (sub + 1) * self.dsub]
            # max(qn - 2 * cross + cn, 0) by expansion, the same float32
            # operations in the same order, in place on the product.
            # Scaling the codebook by 2 instead would change subnormal
            # results, so the product is doubled.
            dist = qs @ books_t[sub]
            dist *= 2
            np.subtract(np.einsum("ij,ij->i", qs, qs)[:, None], dist, out=dist)
            dist += norms[sub]
            np.maximum(dist, 0.0, out=out[:, sub, :])
        return out

    def _gemm_operands(self, books: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m, ksub) squared codeword norms and the (m, dsub, ksub)
        contiguous transposed codebooks, cached per codebook array.

        The transposed copy gives gemm the layout it is fastest on
        (about 5x over a transposed view at 256 rows) with the same
        bits.  Keyed on the array's identity, so :meth:`train` and any
        assignment to :attr:`codebooks` (an index load) invalidate it.
        """
        cached = self._gemm_cache
        if cached is None or cached[0] is not books:
            norms = np.stack([np.einsum("ij,ij->i", cb, cb) for cb in books])
            books_t = np.ascontiguousarray(books.transpose(0, 2, 1))
            cached = self._gemm_cache = (books, norms, books_t)
        return cached[1], cached[2]

    def quantization_error(self, x: np.ndarray) -> float:
        """Mean squared reconstruction error on ``x`` (training sanity)."""
        rec = self.decode(self.encode(x))
        diff = np.asarray(x, dtype=np.float32) - rec
        return float(np.mean(np.einsum("ij,ij->i", diff, diff)))
