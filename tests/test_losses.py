import math

import numpy as np
import pytest

from heavyfed import (
    Dataset,
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    LossModel,
    empirical_risk,
    per_sample_gradients,
    per_sample_losses,
)
from heavyfed.losses import _sigmoid, mean_gradients
from oracles import STACKED_MODELS, stacked_shards


def one_row(x, y):
    """The one-sample dataset holding ``(x, y)``."""
    return Dataset(np.atleast_2d(np.asarray(x, dtype=float)), np.array([y], dtype=float))


def finite_difference(model, w, sample, step=1e-5):
    grad = np.empty(model.dim)
    for k in range(model.dim):
        hi, lo = w.copy(), w.copy()
        hi[k] += step
        lo[k] -= step
        grad[k] = (per_sample_losses(model, hi, sample)[0] - per_sample_losses(model, lo, sample)[0]) / (2 * step)
    return grad


def random_case(model, rng):
    w = rng.standard_normal(model.dim) / math.sqrt(model.dim)
    x = rng.standard_normal(model.features)
    if model.kind == "linear" or (model.kind == "mlp" and model.objective == "squared"):
        y = rng.standard_normal()
    else:
        y = rng.choice([-1.0, 1.0])
    return w, one_row(x, y)


class TestLinear:
    def test_zero_everything(self):
        model = LossModel("linear", 3)
        out = per_sample_gradients(model, np.zeros(3), one_row([1.0, 2.0, 3.0], 0.0))[0]
        assert np.all(out == 0.0)

    def test_hand_computed(self):
        model = LossModel("linear", 2)
        out = per_sample_gradients(model, np.array([1.0, 0.0]), one_row([1.0, 1.0], 3.0))[0]
        assert np.allclose(out, [-2.0, -2.0])

    def test_loss_value(self):
        model = LossModel("linear", 2)
        assert per_sample_losses(model, np.array([1.0, 0.0]), one_row([1.0, 1.0], 3.0))[0] == pytest.approx(2.0)


class TestLogistic:
    def test_zero_margin(self):
        model = LossModel("logistic", 3)
        x = np.array([0.5, -1.0, 2.0])
        out = per_sample_gradients(model, np.zeros(3), one_row(x, 1.0))[0]
        assert np.allclose(out, -x / 2.0)
        assert per_sample_losses(model, np.zeros(3), one_row(x, 1.0))[0] == pytest.approx(math.log(2.0))

    def test_extreme_margin_is_stable(self):
        model = LossModel("logistic", 1)
        out = per_sample_gradients(model, np.array([1000.0]), one_row([1.0], 1.0))[0]
        assert np.all(np.isfinite(out))
        assert per_sample_losses(model, np.array([1000.0]), one_row([1.0], -1.0))[0] == pytest.approx(1000.0)

    def test_sigmoid_matches_its_two_branch_form_bit_for_bit(self):
        # numpy's exp, not math.exp: the two differ in the last bit on about
        # 2% of these inputs
        rng = np.random.default_rng(14)
        t = rng.standard_normal(20000) * 10.0 ** rng.integers(0, 4, 20000)
        t = np.concatenate([t, [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 750.0, -750.0]])
        exp = np.exp
        reference = np.array([1.0 / (1.0 + exp(-x)) if x >= 0 else exp(x) / (1.0 + exp(x)) for x in t])
        assert _sigmoid(t).tobytes() == reference.tobytes()
        assert np.isnan(_sigmoid(np.array([np.nan]))).all()


class TestGradientConsistency:
    @pytest.mark.parametrize(
        "model",
        [
            LossModel("linear", 5),
            LossModel("logistic", 5),
            LossModel("mlp", 4, hidden=3, objective="squared"),
            LossModel("mlp", 4, hidden=3, objective="logistic"),
        ],
        ids=["linear", "logistic", "mlp-squared", "mlp-logistic"],
    )
    def test_matches_finite_differences(self, model):
        rng = np.random.default_rng(42)
        for _ in range(100):
            w, sample = random_case(model, rng)
            exact = per_sample_gradients(model, w, sample)[0]
            approx = finite_difference(model, w, sample)
            denom = max(float(np.linalg.norm(approx)), 1e-8)
            assert np.linalg.norm(exact - approx) / denom <= 1e-4


class TestConvexity:
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_interpolation_inequality(self, kind):
        model = LossModel(kind, 4)
        rng = np.random.default_rng(7)
        for _ in range(200):
            w1 = rng.standard_normal(4)
            w2 = rng.standard_normal(4)
            lam = rng.random()
            _, sample = random_case(model, rng)
            mixed = per_sample_losses(model, lam * w1 + (1 - lam) * w2, sample)[0]
            bound = lam * per_sample_losses(model, w1, sample)[0] + (1 - lam) * per_sample_losses(model, w2, sample)[0]
            assert mixed <= bound + 1e-10


class TestEmpiricalRisk:
    def test_perfect_fit(self):
        rng = np.random.default_rng(0)
        model = LossModel("linear", 4)
        w = rng.standard_normal(4)
        X = rng.standard_normal((20, 4))
        assert empirical_risk(model, w, Dataset(X, X @ w)) == 0.0

    def test_logistic_at_origin(self):
        rng = np.random.default_rng(1)
        model = LossModel("logistic", 3)
        data = Dataset(rng.standard_normal((15, 3)), rng.choice([-1.0, 1.0], 15))
        assert empirical_risk(model, np.zeros(3), data) == pytest.approx(math.log(2.0))

    def test_singleton(self):
        model = LossModel("linear", 2)
        data = one_row([1.0, 2.0], 5.0)
        w = np.array([0.5, -0.5])
        assert empirical_risk(model, w, data) == pytest.approx(per_sample_losses(model, w, data)[0])

    def test_empty_raises(self):
        model = LossModel("linear", 2)
        with pytest.raises(EmptyInput):
            empirical_risk(model, np.zeros(2), Dataset(np.zeros((0, 2)), np.zeros(0)))


class TestShapes:
    def test_mlp_dimension_formula(self):
        model = LossModel("mlp", 7, hidden=5)
        assert model.dim == (7 + 1) * 5 + 5 + 1

    def test_gradient_matrix_shape(self):
        rng = np.random.default_rng(2)
        model = LossModel("mlp", 3, hidden=2)
        data = Dataset(rng.standard_normal((6, 3)), rng.standard_normal(6))
        out = per_sample_gradients(model, rng.standard_normal(model.dim), data)
        assert out.shape == (6, model.dim)

    def test_dimension_mismatch(self):
        model = LossModel("linear", 3)
        data = Dataset(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            per_sample_gradients(model, np.zeros(4), data)
        with pytest.raises(DimensionMismatch):
            per_sample_losses(LossModel("linear", 4), np.zeros(4), data)

    def test_invalid_model(self):
        with pytest.raises(InvalidConfig):
            LossModel("quadratic", 3)
        with pytest.raises(InvalidConfig):
            LossModel("mlp", 3, hidden=0)
        with pytest.raises(InvalidConfig):
            LossModel("mlp", 3, objective="hinge")

    def test_dataset_validation(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((2, 3, 2)), np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(np.array([[math.inf, 0.0]]), np.zeros(1))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([1.0, math.nan]))


class TestStackedShards:
    @pytest.mark.parametrize("model", STACKED_MODELS, ids=lambda m: f"{m.kind}-{m.objective}")
    def test_gradients_equal_per_shard_calls_bit_for_bit(self, model):
        shards, w = stacked_shards(model)
        batched = per_sample_gradients(model, w, shards)
        per_shard = np.stack(
            [per_sample_gradients(model, w, Dataset(X, y)) for X, y in zip(shards.features, shards.labels)]
        )
        assert batched.shape == (3, 20, model.dim)
        assert np.array_equal(batched, per_shard)


class TestMeanGradients:
    @pytest.mark.parametrize("model", STACKED_MODELS[:2], ids=lambda m: m.kind)
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_matches_mean_of_per_sample_gradients(self, model, seed):
        shards, w = stacked_shards(model, m=4, n=50, seed=seed)
        G = per_sample_gradients(model, w, shards)
        out = mean_gradients(model, w, shards)
        assert out.shape == (4, model.dim)
        # only the summation order differs, so the error is measured against
        # the size of the terms summed (the means themselves may cancel)
        assert np.all(np.abs(out - G.mean(axis=-2)) <= 1e-13 * np.abs(G).mean(axis=-2))

    def test_single_shard(self):
        model = LossModel("linear", 2)
        data = Dataset(np.array([[1.0, 1.0], [2.0, 0.0]]), np.array([3.0, 1.0]))
        # residuals x . w - y are -2 and 1
        assert np.array_equal(mean_gradients(model, np.array([1.0, 0.0]), data), [0.0, -1.0])

    def test_rejects_mlp_and_empty_shards(self):
        shards, w = stacked_shards(STACKED_MODELS[2])
        with pytest.raises(InvalidConfig):
            mean_gradients(STACKED_MODELS[2], w, shards)
        with pytest.raises(EmptyInput):
            mean_gradients(LossModel("linear", 2), np.zeros(2), Dataset(np.zeros((3, 0, 2)), np.zeros((3, 0))))
