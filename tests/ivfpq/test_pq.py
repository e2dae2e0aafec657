"""Product quantizer tests: training, coding, LUTs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, NotTrainedError
from repro.ivfpq.pq import ProductQuantizer


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return rng.normal(0, 1, size=(2000, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def pq(data):
    return ProductQuantizer(dim=16, m=4).train(data, n_iter=8)


class TestConstruction:
    def test_dim_divisibility(self):
        with pytest.raises(ConfigError):
            ProductQuantizer(dim=10, m=3)

    def test_nbits_range(self):
        with pytest.raises(ConfigError):
            ProductQuantizer(dim=8, m=2, nbits=9)

    def test_geometry(self, pq):
        assert pq.dsub == 4
        assert pq.ksub == 256
        assert pq.code_bytes == 4

    def test_small_nbits(self, data):
        small = ProductQuantizer(dim=16, m=4, nbits=4).train(data, n_iter=5)
        codes = small.encode(data[:50])
        assert codes.max() < 16


class TestTraining:
    def test_untrained_raises(self):
        p = ProductQuantizer(dim=8, m=2)
        with pytest.raises(NotTrainedError):
            p.encode(np.zeros((1, 8), dtype=np.float32))
        with pytest.raises(NotTrainedError):
            p.compute_lut(np.zeros(8, dtype=np.float32))

    def test_needs_enough_vectors(self):
        with pytest.raises(ConfigError):
            ProductQuantizer(dim=8, m=2).train(np.zeros((10, 8), dtype=np.float32))

    def test_wrong_dim_rejected(self, data):
        with pytest.raises(ConfigError):
            ProductQuantizer(dim=8, m=2).train(data)

    def test_codebook_shape(self, pq):
        assert pq.codebooks.shape == (4, 256, 4)


class TestCoding:
    def test_code_shape_and_dtype(self, pq, data):
        codes = pq.encode(data[:100])
        assert codes.shape == (100, 4)
        assert codes.dtype == np.uint8

    def test_single_vector_encode(self, pq, data):
        codes = pq.encode(data[0])
        assert codes.shape == (1, 4)

    def test_decode_shape(self, pq, data):
        rec = pq.decode(pq.encode(data[:10]))
        assert rec.shape == (10, 16)

    def test_roundtrip_reduces_error_vs_mean(self, pq, data):
        """PQ reconstruction must beat the trivial mean predictor."""
        err = pq.quantization_error(data[:500])
        mean_err = float(
            np.mean(((data[:500] - data[:500].mean(axis=0)) ** 2).sum(axis=1))
        )
        assert err < 0.25 * mean_err

    def test_codeword_roundtrip_is_exact(self, pq):
        """Encoding a codeword reconstruction returns the same code."""
        codes = np.array([[1, 2, 3, 4], [250, 0, 17, 99]], dtype=np.uint8)
        rec = pq.decode(codes)
        np.testing.assert_array_equal(pq.encode(rec), codes)

    def test_encode_rejects_wrong_dim(self, pq):
        with pytest.raises(ConfigError):
            pq.encode(np.zeros((3, 7), dtype=np.float32))

    def test_decode_rejects_wrong_m(self, pq):
        with pytest.raises(ConfigError):
            pq.decode(np.zeros((3, 5), dtype=np.uint8))


class TestLUT:
    def test_lut_shape(self, pq, data):
        lut = pq.compute_lut(data[0])
        assert lut.shape == (4, 256)
        assert lut.dtype == np.float32

    def test_lut_values_match_naive(self, pq, data):
        q = data[0]
        lut = pq.compute_lut(q)
        for sub in range(4):
            qs = q[sub * 4 : (sub + 1) * 4]
            naive = ((pq.codebooks[sub] - qs) ** 2).sum(axis=1)
            np.testing.assert_allclose(lut[sub], naive, rtol=1e-4, atol=1e-4)

    def test_batched_luts_match_single(self, pq, data):
        qs = data[:5]
        batched = pq.compute_luts(qs)
        for i in range(5):
            np.testing.assert_allclose(
                batched[i], pq.compute_lut(qs[i]), rtol=1e-4, atol=1e-3
            )

    def test_lut_non_negative(self, pq, data):
        assert (pq.compute_luts(data[:20]) >= 0).all()

    def test_adc_distance_via_lut_approximates_true(self, pq, data):
        """sum(LUT[code]) == || q - decode(code) ||^2 exactly."""
        q = data[1]
        codes = pq.encode(data[2:12])
        lut = pq.compute_lut(q)
        adc = np.array(
            [sum(lut[s, c] for s, c in enumerate(row)) for row in codes]
        )
        true = ((pq.decode(codes) - q) ** 2).sum(axis=1)
        np.testing.assert_allclose(adc, true, rtol=1e-3, atol=1e-2)


@pytest.fixture(scope="module")
def quantizers():
    """One quantizer per subvector width: dsub 4, 8 and 16."""
    rng = np.random.default_rng(5)
    train = rng.normal(0, 1, size=(600, 32)).astype(np.float32)
    return {
        32 // m: ProductQuantizer(dim=32, m=m).train(train, n_iter=2)
        for m in (8, 4, 2)
    }


class TestLutComposition:
    """A LUT's bits depend on its own residual only, never on the stack
    it is built in: a table rebuilt alone (after a cache eviction, under
    nprobe=1) must equal the same table built among many."""

    @settings(max_examples=40, deadline=None)
    @given(
        dsub=st.sampled_from([4, 8, 16]),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_row_independent_of_stack(self, quantizers, dsub, n, seed, data):
        pq = quantizers[dsub]
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-3, 1.0, 30.0])
        stack = (rng.normal(0, 1, size=(n, 32)) * scale).astype(np.float32)
        i = data.draw(st.integers(0, n - 1), label="i")
        a = data.draw(st.integers(0, i), label="a")
        b = data.draw(st.integers(i + 1, n), label="b")
        full = pq.compute_luts(stack)[i].view(np.uint32)
        alone = pq.compute_luts(stack[i : i + 1])[0].view(np.uint32)
        window = pq.compute_luts(stack[a:b])[i - a].view(np.uint32)
        np.testing.assert_array_equal(alone, full)
        np.testing.assert_array_equal(window, full)

    @staticmethod
    def reference_luts(pq, queries):
        """The expansion as first written: a gemm against each
        codebook's transposed view, the product doubled afterwards."""
        out = np.empty((queries.shape[0], pq.m, pq.ksub), dtype=np.float32)
        for sub in range(pq.m):
            qs = queries[:, sub * pq.dsub : (sub + 1) * pq.dsub]
            cb = pq.codebooks[sub]
            dist = qs @ cb.T
            dist *= 2
            np.subtract(np.einsum("ij,ij->i", qs, qs)[:, None], dist, out=dist)
            dist += np.einsum("ij,ij->i", cb, cb)
            np.maximum(dist, 0.0, out=out[:, sub, :])
        return out

    @settings(max_examples=40, deadline=None)
    @given(
        dsub=st.sampled_from([4, 8, 16]),
        n=st.integers(2, 300),
        exponent=st.sampled_from([0, -63, -70, -75]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_expansion(self, quantizers, dsub, n, exponent, seed):
        """The contiguous transposed codebooks change no bit, down to
        residuals whose products with the codewords are float32
        subnormals (exponents -63 to -75 against unit codewords scaled
        alike).  Scaling the codebook by 2 instead of the product does
        change bits there, so the product stays doubled."""
        base = quantizers[dsub]
        scale = np.float32(2.0**exponent)
        pq = ProductQuantizer(dim=32, m=base.m, codebooks=base.codebooks * scale)
        rng = np.random.default_rng(seed)
        stack = (rng.normal(0, 1, size=(n, 32)) * scale).astype(np.float32)
        np.testing.assert_array_equal(
            pq.compute_luts(stack).view(np.uint32),
            self.reference_luts(pq, stack).view(np.uint32),
        )

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 40), pad=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
    def test_out_rows_equal_returned_stack(self, quantizers, n, pad, seed):
        """``out=`` may be a strided view (the LUT block of a wider
        table buffer): its rows get the returned stack's bits and the
        columns past it are untouched."""
        pq = quantizers[8]
        rng = np.random.default_rng(seed)
        stack = rng.normal(0, 1, size=(n, 32)).astype(np.float32)
        size = pq.m * pq.ksub
        buf = np.full((n, size + pad), 7.0, dtype=np.float32)
        out = buf[:, :size].reshape(n, pq.m, pq.ksub)
        assert pq.compute_luts(stack, out=out) is out
        np.testing.assert_array_equal(
            buf[:, :size].view(np.uint32),
            pq.compute_luts(stack).reshape(n, size).view(np.uint32),
        )
        np.testing.assert_array_equal(buf[:, size:], 7.0)
        with pytest.raises(ConfigError):
            pq.compute_luts(stack, out=np.empty((n + 1, pq.m, pq.ksub), np.float32))

    def test_cached_norms_follow_training(self, data):
        """Retraining replaces the codebooks, so the cached codeword
        norms must be recomputed: LUTs equal a fresh quantizer's."""
        pq = ProductQuantizer(dim=16, m=4).train(data[:1000], n_iter=2)
        pq.compute_luts(data[:3])  # caches the first codebooks' norms
        pq.train(data[1000:], n_iter=2, rng=np.random.default_rng(1))
        pq.compute_luts(data[:2])
        books, _, books_t = pq._gemm_cache
        assert books is pq.codebooks
        np.testing.assert_array_equal(books_t, pq.codebooks.transpose(0, 2, 1))
        fresh = ProductQuantizer(dim=16, m=4, codebooks=pq.codebooks.copy())
        assert (
            pq.compute_luts(data[:7]).tobytes()
            == fresh.compute_luts(data[:7]).tobytes()
        )

    def test_cached_norms_follow_assigned_codebooks(self, pq, data):
        """Assigning ``codebooks`` (what an index load does) must drop
        the cached norms too."""
        mine = ProductQuantizer(dim=16, m=4, codebooks=pq.codebooks.copy())
        mine.compute_luts(data[:3])
        loaded = np.ascontiguousarray(pq.codebooks[:, ::-1] * 2.0)
        mine.codebooks = loaded
        mine.compute_luts(data[:2])
        books, _, books_t = mine._gemm_cache
        assert books is loaded
        np.testing.assert_array_equal(books_t, loaded.transpose(0, 2, 1))
        fresh = ProductQuantizer(dim=16, m=4, codebooks=loaded.copy())
        assert (
            mine.compute_luts(data[:7]).tobytes()
            == fresh.compute_luts(data[:7]).tobytes()
        )
