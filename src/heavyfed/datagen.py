"""Heavy-tailed synthetic data, CSV ingestion, partitioning and splits.

``NoiseSpec`` centers both label-noise kinds exactly (the raw distributions
have positive means), and draws Pareto noise by inverse CDF so that the same
seed reproduces the same data on any platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleSplit, InvalidConfig, MissingColumn, ParseError
from .losses import Dataset

# Each kind and the NoiseSpec fields it reads.
NOISE_READS = {"lognormal": ("mu", "sigma"), "pareto": ("scale", "shape")}
NOISE_KINDS = tuple(NOISE_READS)


@dataclass(frozen=True)
class NoiseSpec:
    """Centered label-noise distribution."""

    kind: str = "lognormal"
    mu: float = 0.0
    sigma: float = 0.55848
    scale: float = 1.0
    shape: float = 3.26953

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidConfig(f"unknown noise kind {self.kind!r}")
        if self.kind == "lognormal" and self.sigma <= 0.0:
            raise InvalidConfig(f"lognormal sigma must be > 0, got {self.sigma}")
        if self.kind == "pareto":
            if self.shape <= 2.0:
                raise InvalidConfig(f"pareto shape must exceed 2, got {self.shape}")
            if self.scale <= 0.0:
                raise InvalidConfig(f"pareto scale must be > 0, got {self.scale}")
        try:
            variance = self.variance()
        except OverflowError:
            variance = math.inf
        if not math.isfinite(variance):
            raise InvalidConfig(f"noise variance must be finite, got {variance}")

    def sample(self, rng, size=None):
        """Draws minus the distribution's mean: exp(mu + sigma^2/2) for
        log-normal, shape*scale/(shape-1) for Pareto, whose centered support
        is one-sided: every draw is >= scale - mean."""
        if self.kind == "lognormal":
            return rng.lognormal(self.mu, self.sigma, size) - math.exp(self.mu + self.sigma * self.sigma / 2.0)
        u = rng.random(size)
        return self.scale * (1.0 - u) ** (-1.0 / self.shape) - self.shape * self.scale / (self.shape - 1.0)

    def variance(self) -> float:
        if self.kind == "lognormal":
            s2 = self.sigma * self.sigma
            return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)
        a = self.shape
        return self.scale * self.scale * a / ((a - 1.0) ** 2 * (a - 2.0))


@dataclass(frozen=True)
class SyntheticSpec:
    """Declarative description of one synthetic dataset."""

    model_kind: str = "linear"
    d: int = 10
    feature_sigma: float = 0.78
    noise: NoiseSpec = NoiseSpec()
    n_train: int = 1000
    n_test: int = 200
    w_star: np.ndarray | None = None

    def __post_init__(self):
        if self.model_kind not in ("linear", "logistic"):
            raise InvalidConfig(f"synthetic data supports linear/logistic, got {self.model_kind!r}")
        if self.d < 1:
            raise InvalidConfig(f"dimension must be >= 1, got {self.d}")
        if self.feature_sigma <= 0.0:
            raise InvalidConfig(f"feature sigma must be > 0, got {self.feature_sigma}")
        if self.n_train < 1 or self.n_test < 0:
            raise InvalidConfig("need n_train >= 1 and n_test >= 0")
        if self.w_star is not None:
            w = np.asarray(self.w_star, dtype=float)
            if w.shape != (self.d,):
                raise InvalidConfig(f"w_star must have shape ({self.d},), got {w.shape}")
            object.__setattr__(self, "w_star", w)


def _stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def draw_w_star(d, seed) -> np.ndarray:
    """True parameter drawn uniformly from the unit sphere; deterministic."""
    v = _stream(seed, 0).standard_normal(d)
    return v / np.linalg.norm(v)


def gen_synthetic(spec: SyntheticSpec, seed) -> tuple[Dataset, Dataset]:
    """Train and test data for ``spec.model_kind``; bit-identical for a given seed.

    Linear: y = <x, w*> + noise.  Logistic: y = sign(sigmoid(<x, w*> + noise)
    - 1/2), sign(0) = +1.  w* is ``spec.w_star``, else ``draw_w_star(spec.d, seed)``.
    """
    w_star = draw_w_star(spec.d, seed) if spec.w_star is None else spec.w_star
    out = []
    for key, count in ((1, spec.n_train), (2, spec.n_test)):
        rng = _stream(seed, key)
        X = rng.lognormal(0.0, spec.feature_sigma, size=(count, spec.d))
        z = X @ w_star + spec.noise.sample(rng, count)
        out.append(Dataset(X, z if spec.model_kind == "linear" else np.where(z >= 0.0, 1.0, -1.0)))
    return out[0], out[1]


def partition(data: Dataset, m: int, seed=0) -> Dataset:
    """Even split into m shards after a seeded shuffle.

    Returns the shards stacked: features ``(m, n/m, p)`` and labels
    ``(m, n/m)``, shard i holding shuffled samples ``i*n/m`` to ``(i+1)*n/m``.
    """
    if m < 1:
        raise InvalidConfig(f"device count must be >= 1, got {m}")
    n = len(data)
    if n % m != 0:
        raise IndivisibleSplit(f"{n} samples cannot be split evenly across {m} devices")
    perm = np.random.default_rng(np.random.SeedSequence(entropy=seed)).permutation(n)
    return Dataset(data.features[perm].reshape(m, n // m, -1), data.labels[perm].reshape(m, n // m))


def split_train_test(data: Dataset, n_test: int, seed=0) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then hold out the first n_test records as the test set."""
    if not 0 <= n_test < len(data):
        raise InvalidConfig(f"test size {n_test} invalid for {len(data)} records")
    perm = np.random.default_rng(np.random.SeedSequence(entropy=seed)).permutation(len(data))
    return data.take(perm[n_test:]), data.take(perm[:n_test])


@dataclass(frozen=True)
class CsvSchema:
    """How to read a numeric CSV: which columns, and optional preprocessing.
    A feature list that names the label column or a column twice is refused."""

    label_column: str
    feature_columns: tuple[str, ...] | None = None  # None: every other column
    standardize: bool = False
    add_bias: bool = False

    def __post_init__(self):
        features = self.feature_columns or ()
        if self.label_column in features:
            raise InvalidConfig(f"feature columns name the label column {self.label_column!r}")
        repeated = _repeated(features)
        if repeated is not None:
            raise InvalidConfig(f"feature columns name {repeated!r} more than once")


def _repeated(names):
    # the first name that occurs earlier in names, or None
    return next((name for i, name in enumerate(names) if name in names[:i]), None)


def _cell(row_num, row, name, idx) -> float:
    try:
        value = float(row[idx])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"row {row_num}, column {name!r}: not a finite number: {row[idx]!r}")
    return value


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Read a numeric, comma-separated, header-first CSV into a Dataset; a
    cell that is not a finite number is a ParseError naming its row and column,
    and so is a header that repeats a name and a file that cannot be opened.

    Standardization (when enabled) makes every feature column zero mean and
    unit variance over the loaded rows; constant columns are left centered.
    A bias feature of ones is appended last when ``add_bias`` is set.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: empty file, header row required") from None
        repeated = _repeated(header)
        if repeated is not None:
            raise ParseError(f"{path}: header names column {repeated!r} more than once")
        if schema.label_column not in header:
            raise MissingColumn(f"label column {schema.label_column!r} not in header {header}")
        if schema.feature_columns is None:
            feature_names = [h for h in header if h != schema.label_column]
        else:
            feature_names = list(schema.feature_columns)
            for name in feature_names:
                if name not in header:
                    raise MissingColumn(f"feature column {name!r} not in header {header}")
        if not feature_names:
            raise InvalidConfig("no feature columns left after removing the label column")
        label_idx = header.index(schema.label_column)
        feat_idx = [header.index(name) for name in feature_names]

        features, labels = [], []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"row {row_num}: expected {len(header)} fields, found {len(row)}")
            features.append([_cell(row_num, row, name, idx) for name, idx in zip(feature_names, feat_idx)])
            labels.append(_cell(row_num, row, schema.label_column, label_idx))

    if not features:
        raise ParseError(f"{path}: no data rows")
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if schema.standardize:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        X = (X - mean) / std
    if schema.add_bias:
        X = np.hstack([X, np.ones((X.shape[0], 1))])
    return Dataset(X, y)
