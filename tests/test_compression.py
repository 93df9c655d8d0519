import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyfed import (
    CompressorSpec,
    DimensionMismatch,
    InvalidConfig,
    encode,
    nominal_bytes,
)
from heavyfed.compression import keep_mask
from oracles import effective_delta


def heavy_vectors(count, d, seed):
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal((count // 2, d))
    heavy = rng.lognormal(0.0, 1.5, size=(count - count // 2, d)) * rng.choice([-1.0, 1.0], size=(count - count // 2, d))
    return np.vstack([normal, heavy])


def encode_row(spec, x, rng=None):
    """Per-vector reference codec: the decoded row and the count of values it kept."""
    d = len(x)
    if spec.kind == "identity":
        return x.copy(), d
    if spec.kind == "l1":
        scale = float(np.abs(x).sum() / d)
        signs = np.where(x < 0.0, -1, 1).astype(np.int8)  # sign(0) = +1
        return scale * signs.astype(float), d
    if spec.kind == "topk":
        idx = np.sort(np.argsort(-np.abs(x), kind="stable")[: spec.k])  # ties: lowest index
    else:
        idx = np.flatnonzero(rng.random(d) < spec.p)
    out = np.zeros(d)
    out[idx] = x[idx]
    return out, len(idx)


def encode_rows(spec, U, rng=None):
    rows = [encode_row(spec, x, rng) for x in U]
    return np.array([r for r, _ in rows]), np.array([k for _, k in rows])


def encode_one(spec, x, rng=None):
    rows = np.asarray(x, dtype=float)[None, :]
    wire, kept = encode(spec, rows, mask=keep_mask(spec, rows.shape, rng))
    return wire[0], int(kept[0])


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestEncodeMatchesPerRow:
    """The batched codec against the per-vector reference, bit for bit."""

    SPECS = [CompressorSpec(), CompressorSpec(kind="topk", k=1), CompressorSpec(kind="topk", k=7), CompressorSpec(kind="l1")]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.k}")
    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_tailed_arrays(self, spec, seed):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(1, 30)), int(rng.integers(7, 50))
        U = heavy_vectors(m, d, seed)
        wire, kept = encode(spec, U)
        ref_wire, ref_kept = encode_rows(spec, U)
        assert_same_bits(wire, ref_wire)
        assert np.array_equal(kept, ref_kept)

    def test_topk_tied_and_all_equal_rows(self):
        U = np.array([
            [2.0, -2.0, 2.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
            [-3.0, -3.0, -3.0, -3.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, -0.0, 5.0, -5.0],
        ])
        for k in range(1, 5):
            spec = CompressorSpec(kind="topk", k=k)
            wire, kept = encode(spec, U)
            ref_wire, _ = encode_rows(spec, U)
            assert_same_bits(wire, ref_wire)
            assert np.array_equal(kept, np.full(len(U), k))

    def test_topk_with_k_equal_to_dimension_is_lossless(self):
        U = heavy_vectors(6, 9, seed=11)
        wire, kept = encode(CompressorSpec(kind="topk", k=9), U)
        assert_same_bits(wire, U)
        assert np.array_equal(kept, np.full(6, 9))

    def test_l1_zero_entries_and_all_zero_row(self):
        U = np.array([
            [0.0, -2.0, 3.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [-0.0, -1.0, -1.0, -1.0],
        ])
        spec = CompressorSpec(kind="l1")
        wire, kept = encode(spec, U)
        ref_wire, _ = encode_rows(spec, U)
        assert_same_bits(wire, ref_wire)
        assert np.array_equal(wire[1], np.zeros(4))
        assert np.array_equal(kept, np.full(3, 4))

    def test_randk_keeps_exactly_the_drawn_mask_unscaled(self):
        U = heavy_vectors(12, 30, seed=12)
        spec = CompressorSpec(kind="randk", p=0.3)
        wire, kept = encode(spec, U, mask=keep_mask(spec, U.shape, np.random.default_rng(3)))
        mask = np.random.default_rng(3).random(U.shape) < spec.p
        assert_same_bits(wire, np.where(mask, U, 0.0))
        assert np.array_equal(kept, mask.sum(axis=1))
        # one (m, d) draw is the row-by-row draws of one stream
        ref_wire, ref_kept = encode_rows(spec, U, rng=np.random.default_rng(3))
        assert_same_bits(wire, ref_wire)
        assert np.array_equal(kept, ref_kept)


class TestTopK:
    def test_hand_example(self):
        wire, kept = encode_one(CompressorSpec(kind="topk", k=2), [3.0, -1.0, 2.0])
        assert np.array_equal(wire, [3.0, 0.0, 2.0])
        assert kept == 2

    def test_tie_break_lowest_index(self):
        wire, _ = encode_one(CompressorSpec(kind="topk", k=1), [2.0, -2.0, 2.0])
        assert np.array_equal(wire, [2.0, 0.0, 0.0])

    def test_round_trip_keeps_coordinates_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32)
        wire, kept = encode_one(CompressorSpec(kind="topk", k=7), x)
        top = np.argsort(-np.abs(x))[:7]
        assert kept == 7
        assert np.array_equal(wire[top], x[top])
        mask = np.ones(32, dtype=bool)
        mask[top] = False
        assert np.all(wire[mask] == 0.0)

    def test_effective_delta_is_kept_energy_share(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(16) * rng.lognormal(0, 1, 16)
            k = int(rng.integers(1, 16))
            spec = CompressorSpec(kind="topk", k=k)
            energy = np.sort(x**2)[::-1]
            share = energy[:k].sum() / energy.sum()
            assert effective_delta(spec, x) == pytest.approx(share, abs=1e-12)
            assert effective_delta(spec, x) >= k / 16 - 1e-12

    def test_k_larger_than_dimension(self):
        with pytest.raises(InvalidConfig):
            encode_one(CompressorSpec(kind="topk", k=5), np.ones(3))


class TestIdentity:
    def test_bit_exact(self):
        U = heavy_vectors(4, 5, seed=13)
        wire, kept = encode(CompressorSpec(), U)
        assert wire is U  # no copy
        assert np.array_equal(kept, np.full(4, 5))

    def test_delta_is_one(self):
        assert effective_delta(CompressorSpec(), np.array([1.0, 2.0])) == 1.0


class TestL1Quant:
    def test_equal_magnitude_is_lossless(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        wire, kept = encode_one(CompressorSpec(kind="l1"), x)
        assert np.array_equal(wire, x)
        assert kept == 4

    def test_sign_of_zero_is_positive(self):
        wire, _ = encode_one(CompressorSpec(kind="l1"), [0.0, -2.0])
        assert np.array_equal(wire, [1.0, -1.0])

    def test_round_trip_norm_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(24)
        d = len(x)
        out, _ = encode_one(CompressorSpec(kind="l1"), x)
        assert np.linalg.norm(out) == pytest.approx(math.sqrt(d) * np.abs(x).sum() / d, rel=1e-12)

    def test_effective_delta_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(12) * rng.lognormal(0, 1.5, 12)
            expected = np.abs(x).sum() ** 2 / (12 * float(x @ x))
            assert effective_delta(CompressorSpec(kind="l1"), x) == pytest.approx(expected, abs=1e-12)


class TestRandK:
    def test_requires_rng(self):
        # the codec draws nothing: random-k codes only with a keep_mask drawn from a stream
        with pytest.raises(InvalidConfig):
            encode(CompressorSpec(kind="randk", p=0.5), np.ones((1, 4)))

    def test_deterministic_given_seed(self):
        U = np.random.default_rng(4).standard_normal((3, 40))
        spec = CompressorSpec(kind="randk", p=0.3)
        a, _ = encode(spec, U, mask=keep_mask(spec, U.shape, np.random.default_rng(99)))
        b, _ = encode(spec, U, mask=keep_mask(spec, U.shape, np.random.default_rng(99)))
        assert np.array_equal(a, b)

    def test_kept_coordinates_unscaled(self):
        x = np.random.default_rng(5).standard_normal(40)
        wire, kept = encode_one(CompressorSpec(kind="randk", p=0.5), x, rng=np.random.default_rng(1))
        nonzero = wire != 0.0
        assert np.array_equal(wire[nonzero], x[nonzero])
        assert kept == np.count_nonzero(nonzero)

    def test_keep_mask_only_for_randk(self):
        for spec in (CompressorSpec(), CompressorSpec(kind="topk", k=2), CompressorSpec(kind="l1")):
            assert keep_mask(spec, (3, 4), np.random.default_rng(0)) is None
        with pytest.raises(InvalidConfig):
            keep_mask(CompressorSpec(kind="randk", p=0.5), (3, 4), None)

    def test_mask_must_match_the_uploads(self):
        with pytest.raises(DimensionMismatch):
            encode(CompressorSpec(kind="randk", p=0.5), np.ones((3, 4)), mask=np.ones((3, 5), dtype=bool))

    def test_expected_contract(self):
        # E ||Q(x) - x||^2 = (1 - p) ||x||^2; allow 3 / sqrt(trials) slack
        x = np.random.default_rng(6).standard_normal(64)
        spec = CompressorSpec(kind="randk", p=0.4)
        trials = 1000
        errors = []
        for t in range(trials):
            q, _ = encode_one(spec, x, rng=np.random.default_rng(t))
            errors.append(float(np.sum((q - x) ** 2)))
        bound = (1.0 - spec.p) * float(x @ x) * (1.0 + 3.0 / math.sqrt(trials))
        assert np.mean(errors) <= bound


class TestBytes:
    def test_nominal_identity(self):
        spec = CompressorSpec()
        _, kept = encode(spec, np.zeros((3, 10)))
        assert nominal_bytes(spec, kept) == 240

    def test_nominal_topk(self):
        spec = CompressorSpec(kind="topk", k=5)
        _, kept = encode(spec, np.arange(20.0).reshape(2, 10))
        assert nominal_bytes(spec, kept) == 120

    def test_nominal_l1(self):
        spec = CompressorSpec(kind="l1")
        _, kept = encode(spec, np.ones((3, 16)))
        assert nominal_bytes(spec, kept) == 3 * 10
        _, kept = encode(spec, np.ones((2, 17)))
        assert nominal_bytes(spec, kept) == 2 * (8 + 3)

    def test_topk_half_halves_payload(self):
        U = np.random.default_rng(7).standard_normal((4, 10))
        _, dense = encode(CompressorSpec(), U)
        _, sparse = encode(CompressorSpec(kind="topk", k=5), U)
        assert sparse.sum() * 2 == dense.sum()

    def test_randk_kept_zero_still_costs_a_value(self):
        # p = 1 keeps every coordinate: zeros in the input are sent and paid for,
        # 8 bytes a value, as the positions come from the shared keep mask
        spec = CompressorSpec(kind="randk", p=1.0)
        U = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        wire, kept = encode(spec, U, mask=keep_mask(spec, U.shape, np.random.default_rng(0)))
        assert np.count_nonzero(wire) == 1
        assert np.array_equal(kept, [3, 3])
        assert nominal_bytes(spec, kept) == 8 * 6


class TestEffectiveDeltaPerRow:
    @pytest.mark.parametrize("spec", [CompressorSpec(kind="topk", k=6), CompressorSpec(kind="l1"), CompressorSpec()],
                             ids=lambda s: s.kind)
    def test_rows_equal_vector_calls(self, spec):
        U = heavy_vectors(25, 20, seed=15)
        U[3] = 0.0
        per_row = effective_delta(spec, U)
        assert per_row.shape == (25,)
        assert np.array_equal(per_row, [effective_delta(spec, x) for x in U])
        assert per_row[3] == 1.0

    def test_randk_rows_equal_vector_calls_on_one_stream(self):
        U = heavy_vectors(25, 20, seed=16)
        spec = CompressorSpec(kind="randk", p=0.4)
        per_row = effective_delta(spec, U, rng=np.random.default_rng(8))
        rng = np.random.default_rng(8)
        assert np.array_equal(per_row, [effective_delta(spec, x, rng=rng) for x in U])


class TestContracts:
    def test_topk_per_instance(self):
        d, k = 32, 8
        spec = CompressorSpec(kind="topk", k=k)
        for x in heavy_vectors(1000, d, seed=8):
            assert effective_delta(spec, x) >= k / d - 1e-12

    def test_l1_per_instance(self):
        d = 32
        spec = CompressorSpec(kind="l1")
        for x in heavy_vectors(1000, d, seed=9):
            assert effective_delta(spec, x) >= 1.0 / d - 1e-12

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=4, max_size=24))
    @settings(max_examples=200)
    def test_topk_contract_property(self, values):
        x = np.array(values)
        k = max(1, len(values) // 3)
        assert effective_delta(CompressorSpec(kind="topk", k=k), x) >= k / len(values) - 1e-9


class TestValidation:
    def test_zero_vector_delta(self):
        assert effective_delta(CompressorSpec(kind="l1"), np.zeros(5)) == 1.0

    def test_bad_specs(self):
        with pytest.raises(InvalidConfig):
            CompressorSpec(kind="gzip")
        with pytest.raises(InvalidConfig):
            CompressorSpec(kind="topk", k=0)
        with pytest.raises(InvalidConfig):
            CompressorSpec(kind="randk", p=0.0)

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 2), (0, 4), (3, 0), ()])
    @pytest.mark.parametrize("kind", ["identity", "topk", "randk", "l1"])
    def test_non_2d_or_empty_input(self, shape, kind):
        with pytest.raises(DimensionMismatch):
            encode(CompressorSpec(kind=kind), np.zeros(shape))

    def test_non_vector_input(self):
        # effective_delta takes a vector or an (m, d) array, nothing else
        for shape in [(), (2, 2, 2), (0,)]:
            with pytest.raises(DimensionMismatch):
                effective_delta(CompressorSpec(), np.zeros(shape))
