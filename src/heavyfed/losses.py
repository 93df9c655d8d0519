"""Loss models: per-sample losses and gradients plus empirical risk.

Three model families are supported: linear regression under quadratic loss,
logistic regression with labels in {-1, +1}, and a one-hidden-layer tanh
network with either a squared or a logistic output objective.  All gradients
are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, InvalidConfig

MODEL_KINDS = ("linear", "logistic", "mlp")
MLP_OBJECTIVES = ("squared", "logistic")


@dataclass(frozen=True)
class LossModel:
    """Model family plus the shape information that sizes the parameter vector.

    For the network, the parameter vector packs, in order: input weights
    (hidden x features, row major), hidden biases, output weights, output
    bias -- so dim = (features + 1) * hidden + hidden + 1.
    """

    kind: str
    features: int
    hidden: int = 8
    objective: str = "squared"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidConfig(f"unknown model kind {self.kind!r}")
        if self.features < 1:
            raise InvalidConfig(f"feature count must be >= 1, got {self.features}")
        if self.kind == "mlp":
            if self.hidden < 1:
                raise InvalidConfig(f"hidden width must be >= 1, got {self.hidden}")
            if self.objective not in MLP_OBJECTIVES:
                raise InvalidConfig(f"unknown mlp objective {self.objective!r}")

    @property
    def dim(self) -> int:
        if self.kind == "mlp":
            return (self.features + 1) * self.hidden + self.hidden + 1
        return self.features


@dataclass
class Dataset:
    """Features ``(..., n, p)`` plus labels ``(..., n)``; the sample axis is -2
    of the features and -1 of the labels.

    A plain dataset is ``(n, p)`` / ``(n,)``.  Leading axes stack equal-sized
    shards, e.g. ``(m, n, p)`` / ``(m, n)`` for m devices; only the trailing
    axes are validated and ``len`` counts the samples of one shard.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim < 2 or self.features.shape[:-1] != self.labels.shape:
            raise DimensionMismatch(
                f"features must be (..., n, p) and labels (..., n), got {self.features.shape} "
                f"and {self.labels.shape}"
            )
        if self.features.size and not (
            np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.labels))
        ):
            raise ValueError("dataset entries must be finite")

    def __len__(self) -> int:
        return self.labels.shape[-1]

    def take(self, indices) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices])


def _sigmoid(t):
    # 1 / (1 + exp(-t)) for t >= 0, exp(t) / (1 + exp(t)) below: the exp
    # that cannot overflow on either side
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check(model, w, data):
    w = np.asarray(w, dtype=float)
    if w.shape != (model.dim,):
        raise DimensionMismatch(f"parameter vector has shape {w.shape}, model needs ({model.dim},)")
    if data.features.shape[-1] != model.features:
        raise DimensionMismatch(
            f"dataset has {data.features.shape[-1]} features, model expects {model.features}"
        )
    return w


def _unpack_mlp(model, w):
    h, p = model.hidden, model.features
    w1 = w[: h * p].reshape(h, p)
    b1 = w[h * p : h * p + h]
    w2 = w[h * p + h : h * p + 2 * h]
    b2 = w[-1]
    return w1, b1, w2, b2


def per_sample_losses(model: LossModel, w, data: Dataset) -> np.ndarray:
    """Vector of the loss at each sample."""
    w = _check(model, w, data)
    X, y = data.features, data.labels
    if model.kind == "linear":
        return 0.5 * (y - X @ w) ** 2
    if model.kind == "logistic":
        return np.logaddexp(0.0, -y * (X @ w))
    w1, b1, w2, b2 = _unpack_mlp(model, w)
    out = np.tanh(X @ w1.T + b1) @ w2 + b2
    if model.objective == "squared":
        return 0.5 * (y - out) ** 2
    return np.logaddexp(0.0, -y * out)


def _margin_weights(model, w, X, y):
    # linear and logistic losses depend on a sample only through x . w, so
    # each per-sample gradient is x times the loss's derivative at x . w
    if model.kind == "linear":
        return X @ w - y
    return -y * _sigmoid(-y * (X @ w))


def per_sample_gradients(model: LossModel, w, data: Dataset, entries=None) -> np.ndarray:
    """Per-sample loss gradients, one row per sample: ``(..., n, dim)`` for
    features ``(..., n, p)``.

    ``entries``, index arrays of k ``(..., dim)`` entries as ``np.nonzero``
    gives them, returns only those entries' gradients, ``(k, n)``: row e holds
    entry e at every sample of its shard, with the same bytes as the full
    tensor.  Linear and logistic models build only the selected products.
    """
    if len(data) == 0:
        raise EmptyInput("per_sample_gradients needs a non-empty dataset")
    w = _check(model, w, data)
    X, y = data.features, data.labels
    if model.kind != "mlp":
        c = _margin_weights(model, w, X, y)
        if entries is None:
            return c[..., None] * X
        # one weight per sample times one feature column per entry
        return c[entries[:-1]] * np.moveaxis(X, -2, -1)[entries]
    grads = _mlp_gradients(model, w, X, y)
    return grads if entries is None else np.moveaxis(grads, -2, -1)[entries]


def _mlp_gradients(model, w, X, y):
    w1, b1, w2, b2 = _unpack_mlp(model, w)
    hid = np.tanh(X @ w1.T + b1)
    out = hid @ w2 + b2
    if model.objective == "squared":
        err = out - y
    else:
        err = -y * _sigmoid(-y * out)
    back = err[..., None] * (w2 * (1.0 - hid**2))
    g_w1 = (back[..., :, None] * X[..., None, :]).reshape(*X.shape[:-1], -1)
    return np.concatenate([g_w1, back, err[..., None] * hid, err[..., None]], axis=-1)


def mean_gradients(model: LossModel, w, data: Dataset) -> np.ndarray:
    """Mean loss gradient of each stacked shard, ``(..., dim)`` for features
    ``(..., n, p)``, for linear and logistic models.

    One batched product of the per-sample weights with the features; it
    equals ``per_sample_gradients(...).mean(axis=-2)`` up to summation order,
    without building the ``(..., n, dim)`` tensor.
    """
    if model.kind == "mlp":
        raise InvalidConfig("mean_gradients covers linear and logistic models; average per_sample_gradients for mlp")
    if len(data) == 0:
        raise EmptyInput("mean_gradients needs a non-empty dataset")
    w = _check(model, w, data)
    X, y = data.features, data.labels
    c = _margin_weights(model, w, X, y)
    return np.matmul(c[..., None, :], X)[..., 0, :] / len(data)


def empirical_risk(model: LossModel, w, data: Dataset) -> float:
    """Mean per-sample loss over the dataset."""
    if len(data) == 0:
        raise EmptyInput("empirical_risk needs a non-empty dataset")
    return float(per_sample_losses(model, w, data).mean())
