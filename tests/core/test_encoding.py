"""Opt3 re-encoding tests: the central invariant is that CAE never
changes a distance (paper: 'without compromising accuracy')."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cooccurrence import CooccurrenceModel, mine_combinations
from repro.core.encoding import (
    build_flat_table,
    decode_distances,
    encode_cluster,
    pack_device_rows,
    unpack_device_rows,
)
from repro.errors import ConfigError
from repro.ivfpq.adc import adc_distances


def random_case(n, m, seed, fraction=0.3, top_m=32):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, size=(n, m)).astype(np.uint8)
    if m >= 3 and fraction > 0:
        triple = tuple(int(x) for x in rng.integers(0, 256, size=3))
        pos = int(rng.integers(0, m - 2))
        hit = rng.random(n) < fraction
        codes[hit, pos : pos + 3] = triple
    model = mine_combinations(codes, top_m=top_m, min_count=2)
    encoded = encode_cluster(codes, model)
    lut = rng.random((m, 256)).astype(np.float32)
    return codes, model, encoded, lut


class TestDistancePreservation:
    @given(
        n=st.integers(1, 60),
        m=st.sampled_from([4, 8, 16]),
        seed=st.integers(0, 10_000),
        fraction=st.floats(0.0, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_cae_distances_equal_plain_adc(self, n, m, seed, fraction):
        """Property: for any codes/mined combos/LUT, the re-encoded
        distance equals the plain ADC distance."""
        codes, model, encoded, lut = random_case(n, m, seed, fraction)
        table = build_flat_table(lut, model)
        cae = decode_distances(encoded, table)
        plain = adc_distances(codes, lut)
        np.testing.assert_allclose(cae, plain, rtol=1e-5, atol=1e-4)

    def test_real_cluster_distances_preserved(self, cluster_codes):
        rng = np.random.default_rng(0)
        m = cluster_codes.shape[1]
        model = mine_combinations(cluster_codes, top_m=256)
        encoded = encode_cluster(cluster_codes, model)
        lut = rng.random((m, 256)).astype(np.float32)
        table = build_flat_table(lut, model)
        np.testing.assert_allclose(
            decode_distances(encoded, table),
            adc_distances(cluster_codes, lut),
            rtol=1e-5,
            atol=1e-4,
        )


class TestBatchedFlatTable:
    """Flat tables built in place in one batch buffer equal the
    per-table form bit for bit, row by row."""

    @staticmethod
    def models(rng, m, combo_length, count):
        """Mined models over repetitive codes, some of them empty, some
        of a shorter combination length."""
        out = []
        for _ in range(count):
            if rng.random() < 0.25:
                out.append(CooccurrenceModel(m=m, combos=[]))
                continue
            codes = rng.integers(0, 3, size=(int(rng.integers(2, 80)), m))
            out.append(
                mine_combinations(
                    codes.astype(np.uint8),
                    top_m=int(rng.integers(1, 64)),
                    combo_length=int(rng.choice([combo_length, 2])),
                )
            )
        return out

    @staticmethod
    def buffer(rng, luts, models, plain_rows):
        """(buffer, segments, rows): the LUTs of ``models`` (1-3 rows
        each, as a cluster's tables sit in the engine's buffer) with
        ``plain_rows`` plain LUT rows between them."""
        width = luts.shape[1] * 256 + max(mod.n_slots for mod in models) + 1
        groups = [[None]] * plain_rows + [
            [j] * int(rng.integers(1, 4)) for j in range(len(models))
        ]
        kinds = [kind for i in rng.permutation(len(groups)) for kind in groups[i]]
        buf = np.full((len(kinds), width), 7.0, dtype=np.float32)
        rows = []
        for r, j in enumerate(kinds):
            lut = luts[int(rng.integers(len(luts)))]
            buf[r, : lut.size] = lut.reshape(-1)
            rows.append((j, lut))
        segments = []
        for j, model in enumerate(models):
            members = [r for r, (kind, _) in enumerate(rows) if kind == j]
            segments.append((members[0], members[-1] + 1, model.slot_lanes()))
        return buf, segments, rows

    @settings(max_examples=40, deadline=None)
    @given(
        combo_length=st.integers(2, 7),
        extra_m=st.integers(0, 3),
        count=st.integers(1, 6),
        plain_rows=st.integers(0, 3),
        log_scale=st.floats(-30, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_per_table(
        self, combo_length, extra_m, count, plain_rows, log_scale, seed
    ):
        rng = np.random.default_rng(seed)
        m = combo_length + extra_m
        models = self.models(rng, m, combo_length, count)
        luts = (rng.random((count + 2, m, 256)) * 2.0**log_scale).astype(np.float32)
        luts[rng.random(luts.shape) < 0.05] = -0.0
        buf, segments, rows = self.buffer(rng, luts, models, plain_rows)
        before = buf.copy()
        assert build_flat_table(buf, segments, m) is buf
        for r, (j, lut) in enumerate(rows):
            if j is None:  # a plain row: untouched
                np.testing.assert_array_equal(buf[r].view(np.uint32), before[r].view(np.uint32))
                continue
            want = build_flat_table(lut, models[j])
            np.testing.assert_array_equal(
                buf[r, : want.size].view(np.uint32), want.view(np.uint32)
            )
            assert buf[r, want.size].view(np.uint32) == 0  # +0.0 sentinel
            np.testing.assert_array_equal(buf[r, want.size + 1 :], 7.0)

    def test_every_model_empty(self):
        luts = np.ones((3, 4, 256), dtype=np.float32)
        buf = np.full((3, 4 * 256 + 1), 7.0, dtype=np.float32)
        buf[:, :-1] = luts.reshape(3, -1)
        empty = CooccurrenceModel(m=4, combos=[])
        build_flat_table(buf, [(0, 2, empty.slot_lanes()), (2, 3, empty.slot_lanes())], 4)
        for lut, table in zip(luts, buf):
            np.testing.assert_array_equal(table[:-1], lut.reshape(-1))
            assert table[-1] == 0.0

    def test_mismatched_inputs_rejected(self):
        three = mine_combinations(np.zeros((10, 8), dtype=np.uint8), combo_length=3)
        buf = np.zeros((2, 8 * 256 + three.n_slots + 1), dtype=np.float32)
        lanes3 = three.slot_lanes()
        with pytest.raises(ConfigError):
            build_flat_table(buf, [(0, 1, lanes3)])  # no m
        with pytest.raises(ConfigError):
            build_flat_table(buf, [(0, 3, lanes3)], 8)  # past the last row
        with pytest.raises(ConfigError):
            build_flat_table(buf[:, ::2], [(0, 2, lanes3)], 8)  # not contiguous
        narrow = np.zeros((2, 8 * 256 + three.n_slots), dtype=np.float32)
        with pytest.raises(ConfigError):
            build_flat_table(narrow, [(0, 2, lanes3)], 8)  # no sentinel column
        with pytest.raises(ConfigError):
            build_flat_table(buf.astype(np.float64), [(0, 2, lanes3)], 8)


class TestLengthReduction:
    def test_planted_data_shrinks(self):
        codes, model, encoded, _ = random_case(300, 16, seed=1, fraction=0.6)
        assert encoded.length_reduction_rate() > 0.05

    def test_random_data_barely_shrinks(self):
        codes, model, encoded, _ = random_case(300, 16, seed=2, fraction=0.0)
        assert encoded.length_reduction_rate() < 0.05

    def test_paper_example_rate(self):
        """Figure 8: a 16-code vector with three disjoint triples packs
        to 12 tokens (the paper says the new length is at most 16; two
        full triples + one pair leaves 3x1 + 2 + 5 singles... our greedy
        replaces the two full triples it mined)."""
        m = 16
        base = np.arange(m, dtype=np.uint8)[None, :].repeat(50, axis=0)
        model = mine_combinations(base, top_m=16, min_count=2)
        encoded = encode_cluster(base, model)
        # Greedy replaces floor(16/3)=5 disjoint triples: 16 -> 6 tokens.
        assert int(encoded.lengths[0]) == 6

    def test_lengths_never_exceed_m(self):
        codes, model, encoded, _ = random_case(100, 8, seed=3)
        assert (encoded.lengths <= 8).all()
        assert (encoded.lengths >= 1).all()

    def test_nbytes_accounts_tokens(self):
        codes, model, encoded, _ = random_case(10, 8, seed=4)
        assert encoded.nbytes == 2 * int(encoded.lengths.sum()) + 2 * 10


class TestAddressLayout:
    def test_plain_addresses_are_premultiplied(self):
        """Original code c at position p -> 256*p + c (no runtime mul)."""
        codes = np.array([[3, 200, 77, 4]], dtype=np.uint8)
        model = mine_combinations(codes, top_m=1, min_count=5)  # no combos
        encoded = encode_cluster(codes, model)
        np.testing.assert_array_equal(
            encoded.addresses[0], [3, 256 + 200, 512 + 77, 768 + 4]
        )

    def test_combo_addresses_offset_past_lut(self):
        codes = np.tile(np.array([9, 8, 7, 1], dtype=np.uint8), (5, 1))
        model = mine_combinations(codes, top_m=2, min_count=2)
        encoded = encode_cluster(codes, model)
        combo_addr = encoded.addresses[0, 0]
        assert combo_addr >= 256 * 4

    def test_mismatched_model_rejected(self):
        codes = np.zeros((3, 8), dtype=np.uint8)
        model = mine_combinations(np.zeros((3, 4), dtype=np.uint8), top_m=1)
        with pytest.raises(ConfigError):
            encode_cluster(codes, model)

    def test_bad_table_size_rejected(self):
        codes, model, encoded, lut = random_case(5, 4, seed=5)
        with pytest.raises(ConfigError):
            decode_distances(encoded, np.zeros(3, dtype=np.float32))

    def test_empty_cluster(self):
        model = mine_combinations(np.empty((0, 8), dtype=np.uint8))
        encoded = encode_cluster(np.empty((0, 8), dtype=np.uint8), model)
        assert encoded.size == 0
        assert encoded.length_reduction_rate() == 0.0


class TestDeviceWireFormat:
    @given(n=st.integers(1, 40), seed=st.integers(0, 5000), fraction=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, n, seed, fraction):
        """Property: the in-band second-digit length encoding of Figure 8
        round-trips for any mix of shortened and full-length rows."""
        codes, model, encoded, _ = random_case(n, 16, seed, fraction)
        rows = pack_device_rows(encoded)
        addresses, lengths = unpack_device_rows(rows, 16)
        np.testing.assert_array_equal(lengths, encoded.lengths)
        np.testing.assert_array_equal(addresses, encoded.addresses)

    def test_full_length_row_stored_verbatim(self):
        codes = np.array([[3, 200, 77, 4]], dtype=np.uint8)
        model = mine_combinations(codes, top_m=1, min_count=5)
        encoded = encode_cluster(codes, model)
        rows = pack_device_rows(encoded)
        assert rows[0].shape[0] == 4  # no in-band length needed

    def test_shortened_row_second_digit_is_length(self):
        codes = np.tile(np.arange(16, dtype=np.uint8), (4, 1))
        model = mine_combinations(codes, top_m=8, min_count=2)
        encoded = encode_cluster(codes, model)
        rows = pack_device_rows(encoded)
        assert int(rows[0][1]) == int(encoded.lengths[0])
        assert int(rows[0][1]) < 256  # distinguishable from addresses
