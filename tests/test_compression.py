import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyfed import (
    CompressorSpec,
    DimensionMismatch,
    InvalidConfig,
    compress,
    decompress,
    effective_delta,
    nominal_bytes,
)


def heavy_vectors(count, d, seed):
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal((count // 2, d))
    heavy = rng.lognormal(0.0, 1.5, size=(count - count // 2, d)) * rng.choice([-1.0, 1.0], size=(count - count // 2, d))
    return np.vstack([normal, heavy])


class TestTopK:
    def test_hand_example(self):
        msg = compress(CompressorSpec(kind="topk", k=2), np.array([3.0, -1.0, 2.0]))
        assert np.array_equal(decompress(msg), [3.0, 0.0, 2.0])

    def test_tie_break_lowest_index(self):
        msg = compress(CompressorSpec(kind="topk", k=1), np.array([2.0, -2.0, 2.0]))
        assert np.array_equal(decompress(msg), [2.0, 0.0, 0.0])

    def test_round_trip_keeps_coordinates_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32)
        msg = compress(CompressorSpec(kind="topk", k=7), x)
        out = decompress(msg)
        assert np.array_equal(out[msg.indices], x[msg.indices])
        mask = np.ones(32, dtype=bool)
        mask[msg.indices] = False
        assert np.all(out[mask] == 0.0)

    def test_effective_delta_is_kept_energy_share(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(16) * rng.lognormal(0, 1, 16)
            k = int(rng.integers(1, 16))
            spec = CompressorSpec(kind="topk", k=k)
            energy = np.sort(x**2)[::-1]
            share = energy[:k].sum() / energy.sum()
            assert effective_delta(spec, x) == pytest.approx(share, abs=1e-12)
            assert effective_delta(spec, x) >= spec.declared_delta(16) - 1e-12

    def test_k_larger_than_dimension(self):
        with pytest.raises(InvalidConfig):
            compress(CompressorSpec(kind="topk", k=5), np.ones(3))


class TestIdentity:
    def test_bit_exact(self):
        x = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(decompress(compress(CompressorSpec(), x)), x)

    def test_delta_is_one(self):
        assert effective_delta(CompressorSpec(), np.array([1.0, 2.0])) == 1.0


class TestL1Quant:
    def test_equal_magnitude_is_lossless(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        msg = compress(CompressorSpec(kind="l1"), x)
        assert msg.scale == 1.0
        assert np.array_equal(msg.signs, [1, -1, 1, -1])
        assert np.array_equal(decompress(msg), x)

    def test_sign_of_zero_is_positive(self):
        msg = compress(CompressorSpec(kind="l1"), np.array([0.0, -2.0]))
        assert np.array_equal(msg.signs, [1, -1])
        assert np.array_equal(decompress(msg), [1.0, -1.0])

    def test_round_trip_norm_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(24)
        d = len(x)
        out = decompress(compress(CompressorSpec(kind="l1"), x))
        assert np.linalg.norm(out) == pytest.approx(math.sqrt(d) * np.abs(x).sum() / d, rel=1e-12)

    def test_effective_delta_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(12) * rng.lognormal(0, 1.5, 12)
            expected = np.abs(x).sum() ** 2 / (12 * float(x @ x))
            assert effective_delta(CompressorSpec(kind="l1"), x) == pytest.approx(expected, abs=1e-12)


class TestRandK:
    def test_requires_rng(self):
        with pytest.raises(InvalidConfig):
            compress(CompressorSpec(kind="randk", p=0.5), np.ones(4))

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(4).standard_normal(40)
        spec = CompressorSpec(kind="randk", p=0.3)
        a = decompress(compress(spec, x, rng=np.random.default_rng(99)))
        b = decompress(compress(spec, x, rng=np.random.default_rng(99)))
        assert np.array_equal(a, b)

    def test_kept_coordinates_unscaled(self):
        x = np.random.default_rng(5).standard_normal(40)
        msg = compress(CompressorSpec(kind="randk", p=0.5), x, rng=np.random.default_rng(1))
        assert np.array_equal(msg.values, x[msg.indices])

    def test_expected_contract(self):
        # E ||Q(x) - x||^2 = (1 - p) ||x||^2; allow 3 / sqrt(trials) slack
        x = np.random.default_rng(6).standard_normal(64)
        spec = CompressorSpec(kind="randk", p=0.4)
        trials = 1000
        errors = []
        for t in range(trials):
            q = decompress(compress(spec, x, rng=np.random.default_rng(t)))
            errors.append(float(np.sum((q - x) ** 2)))
        bound = (1.0 - spec.p) * float(x @ x) * (1.0 + 3.0 / math.sqrt(trials))
        assert np.mean(errors) <= bound


class TestBytes:
    def test_nominal_identity(self):
        msg = compress(CompressorSpec(), np.zeros(10))
        assert nominal_bytes(msg) == 80

    def test_nominal_topk(self):
        msg = compress(CompressorSpec(kind="topk", k=5), np.arange(10.0))
        assert nominal_bytes(msg) == 60

    def test_nominal_l1(self):
        msg = compress(CompressorSpec(kind="l1"), np.ones(16))
        assert nominal_bytes(msg) == 10

    def test_topk_half_halves_payload(self):
        x = np.random.default_rng(7).standard_normal(10)
        dense = compress(CompressorSpec(), x)
        sparse = compress(CompressorSpec(kind="topk", k=5), x)
        assert sparse.values.size * 2 == dense.values.size


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

    def test_non_vector_input(self):
        with pytest.raises(DimensionMismatch):
            compress(CompressorSpec(), np.zeros((2, 2)))

    def test_declared_deltas(self):
        assert CompressorSpec().declared_delta(10) == 1.0
        assert CompressorSpec(kind="topk", k=5).declared_delta(10) == 0.5
        assert CompressorSpec(kind="randk", p=0.25).declared_delta(10) == 0.25
        assert CompressorSpec(kind="l1").declared_delta(10) == 0.1
