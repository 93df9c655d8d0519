import math
from statistics import NormalDist

import numpy as np
import pytest

from heavyfed import (
    CsvSchema,
    IndivisibleSplit,
    InvalidConfig,
    MissingColumn,
    NoiseSpec,
    ParseError,
    SyntheticSpec,
    draw_w_star,
    gen_synthetic,
    load_csv,
    partition,
    split_train_test,
)
from heavyfed.losses import Dataset

LN_SIGMA = 0.55848
PARETO_SHAPE = 3.26953


class TestLogNormalCentered:
    def test_mean_is_zero(self):
        rng = np.random.default_rng(0)
        draws = NoiseSpec(sigma=LN_SIGMA).sample(rng, 10**6)
        assert abs(draws.mean()) <= 0.003

    def test_variance_matches_closed_form(self):
        rng = np.random.default_rng(1)
        draws = NoiseSpec(sigma=LN_SIGMA).sample(rng, 10**6)
        expected = (math.exp(LN_SIGMA**2) - 1.0) * math.exp(LN_SIGMA**2)
        assert expected == pytest.approx(0.5, abs=2e-4)
        assert draws.var() == pytest.approx(expected, abs=0.02)

    def test_degenerate_sigma_limit(self):
        rng = np.random.default_rng(2)
        draws = NoiseSpec(sigma=1e-12).sample(rng, 1000)
        assert np.max(np.abs(draws)) < 1e-9

    def test_invalid_sigma(self):
        for sigma in (0.0, -0.5):
            with pytest.raises(InvalidConfig, match="sigma must be > 0"):
                NoiseSpec(sigma=sigma)


class TestParetoCentered:
    def test_variance_matches_lognormal_calibration(self):
        rng = np.random.default_rng(3)
        draws = NoiseSpec(kind="pareto", shape=PARETO_SHAPE).sample(rng, 10**6)
        a = PARETO_SHAPE
        expected = a / ((a - 1.0) ** 2 * (a - 2.0))
        assert expected == pytest.approx(0.5, abs=1e-5)
        assert draws.var() == pytest.approx(expected, abs=0.02)
        assert abs(draws.mean()) <= 0.005

    def test_one_sided_support(self):
        rng = np.random.default_rng(4)
        draws = NoiseSpec(kind="pareto", shape=PARETO_SHAPE).sample(rng, 10**5)
        mean = PARETO_SHAPE / (PARETO_SHAPE - 1.0)
        assert np.min(draws) >= 1.0 - mean - 1e-12
        assert np.all(draws > -mean)  # the loose bound -shape*scale/(shape-1)

    def test_median(self):
        rng = np.random.default_rng(5)
        draws = NoiseSpec(kind="pareto", shape=PARETO_SHAPE).sample(rng, 10**6)
        expected = 2.0 ** (1.0 / PARETO_SHAPE) - PARETO_SHAPE / (PARETO_SHAPE - 1.0)
        assert np.median(draws) == pytest.approx(expected, abs=0.005)

    def test_shape_must_exceed_two(self):
        for shape in (2.0, 1.5):
            with pytest.raises(InvalidConfig, match="shape must exceed 2"):
                NoiseSpec(kind="pareto", shape=shape)


class TestNoiseSpec:
    def test_variance_closed_forms(self):
        rng = np.random.default_rng(6)
        for spec in (NoiseSpec(), NoiseSpec(kind="pareto")):
            draws = spec.sample(rng, 10**6)
            assert draws.var() == pytest.approx(spec.variance(), abs=0.02)

    def test_invalid_kind(self):
        with pytest.raises(InvalidConfig):
            NoiseSpec(kind="cauchy")

    @pytest.mark.parametrize("overrides", [{"mu": 800.0}, {"sigma": 30.0}, {"kind": "pareto", "scale": 1e200}])
    def test_variance_must_be_finite(self, overrides):
        with pytest.raises(InvalidConfig, match="variance must be finite"):
            NoiseSpec(**overrides)


class TestGenLinear:
    def test_noiseless_identifiability(self):
        spec = SyntheticSpec(noise=NoiseSpec(sigma=1e-9), n_train=1000)
        train, _ = gen_synthetic(spec, seed=0)
        w_star = draw_w_star(spec.d, 0)
        recovered, *_ = np.linalg.lstsq(train.features, train.labels, rcond=None)
        assert np.linalg.norm(recovered - w_star) < 1e-6

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec()
        a_train, a_test = gen_synthetic(spec, seed=42)
        b_train, b_test = gen_synthetic(spec, seed=42)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.features, b_test.features)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_default_spec(self):
        spec = SyntheticSpec()
        assert (spec.d, spec.feature_sigma, spec.n_train, spec.n_test) == (10, 0.78, 1000, 200)
        assert (spec.noise.kind, spec.noise.sigma) == ("lognormal", 0.55848)
        train, test = gen_synthetic(spec, seed=1)
        assert (len(train), len(test)) == (1000, 200)

    def test_explicit_w_star_used(self):
        w = np.zeros(10)
        w[0] = 1.0
        spec = SyntheticSpec(w_star=w, noise=NoiseSpec(sigma=1e-9))
        train, _ = gen_synthetic(spec, seed=3)
        assert np.allclose(train.labels, train.features[:, 0], atol=1e-6)


class TestGenLogistic:
    def test_positive_margin_gives_positive_label(self):
        # all-positive w* and log-normal (positive) features force z > 0
        w = np.full(10, 1.0) / math.sqrt(10.0)
        spec = SyntheticSpec(model_kind="logistic", w_star=w, noise=NoiseSpec(sigma=1e-9))
        train, test = gen_synthetic(spec, seed=0)
        assert np.all(train.labels == 1.0)
        assert np.all(test.labels == 1.0)

    def test_labels_are_signs(self):
        spec = SyntheticSpec(model_kind="logistic", feature_sigma=3.0)
        train, _ = gen_synthetic(spec, seed=1)
        assert set(np.unique(train.labels)) <= {-1.0, 1.0}

    def test_label_balance_under_null_model(self):
        # with w* = 0 the label is the sign of the noise; compare the
        # positive fraction against P(xi >= 0) = Phi(-sigma/2)
        spec = SyntheticSpec(model_kind="logistic", w_star=np.zeros(10), n_train=200_000)
        train, _ = gen_synthetic(spec, seed=2)
        frac = float((train.labels == 1.0).mean())
        expected = NormalDist().cdf(-LN_SIGMA / 2.0)
        assert frac == pytest.approx(expected, abs=0.005)

    def test_labels_are_the_signs_of_the_linear_response(self):
        # one generator: the model kind picks the label rule, nothing else
        linear, _ = gen_synthetic(SyntheticSpec(), seed=4)
        logistic, _ = gen_synthetic(SyntheticSpec(model_kind="logistic"), seed=4)
        assert np.array_equal(linear.features, logistic.features)
        assert np.array_equal(logistic.labels, np.where(linear.labels >= 0.0, 1.0, -1.0))

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(model_kind="logistic")
        a_train, _ = gen_synthetic(spec, seed=9)
        b_train, _ = gen_synthetic(spec, seed=9)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_train.labels, b_train.labels)


class TestPartition:
    def _data(self, n=1000, p=3, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(rng.standard_normal((n, p)), rng.standard_normal(n))

    def test_even_split(self):
        shards = partition(self._data(), 10, seed=1)
        assert shards.features.shape == (10, 100, 3)
        assert shards.labels.shape == (10, 100)
        assert len(shards) == 100

    def test_single_shard(self):
        data = self._data(n=50)
        shards = partition(data, 1, seed=2)
        assert shards.features.shape == (1, 50, 3)

    def test_union_is_input_multiset(self):
        data = self._data(n=200)
        shards = partition(data, 4, seed=3)
        assert np.array_equal(np.sort(shards.labels.ravel()), np.sort(data.labels))
        rows = shards.features.reshape(-1, 3)
        assert np.array_equal(
            rows[np.lexsort(rows.T)], data.features[np.lexsort(data.features.T)]
        )

    def test_shards_keep_sample_rows_together(self):
        data = self._data(n=60)
        shards = partition(data, 3, seed=4)
        for features, labels in zip(shards.features, shards.labels):
            for x, y in zip(features, labels):
                (row,) = np.flatnonzero(data.labels == y)
                assert np.array_equal(data.features[row], x)

    def test_indivisible(self):
        with pytest.raises(IndivisibleSplit):
            partition(self._data(n=101), 10)

    def test_deterministic(self):
        data = self._data(n=100)
        a = partition(data, 5, seed=7)
        b = partition(data, 5, seed=7)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.features, b.features)


class TestSplitTrainTest:
    def test_sizes_and_determinism(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((100, 2)), rng.standard_normal(100))
        train_a, test_a = split_train_test(data, 25, seed=5)
        train_b, test_b = split_train_test(data, 25, seed=5)
        assert (len(train_a), len(test_a)) == (75, 25)
        assert np.array_equal(train_a.labels, train_b.labels)
        assert np.array_equal(test_a.labels, test_b.labels)

    def test_invalid_size(self):
        data = Dataset(np.zeros((10, 1)), np.zeros(10))
        with pytest.raises(InvalidConfig):
            split_train_test(data, 10)


class TestLoadCsv:
    def test_exact_values(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        data = load_csv(path, CsvSchema(label_column="y"))
        assert np.array_equal(data.features, [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]])
        assert np.array_equal(data.labels, [3.0, 6.0, 9.0])

    def test_standardize(self, tmp_path):
        path = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        rows = ["a,b,y"] + [f"{rng.normal(5, 3)},{rng.normal(-2, 0.5)},{rng.normal()}" for _ in range(50)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        data = load_csv(path, CsvSchema(label_column="y", standardize=True))
        assert np.allclose(data.features.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(data.features.var(axis=0), 1.0, atol=1e-9)

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\noops,4\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"row 3.*'a'"):
            load_csv(path, CsvSchema(label_column="y"))

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, text):
        # float() reads these; a loaded dataset must still be finite
        path = tmp_path / "d.csv"
        path.write_text(f"a,y\n1,2\n3,{text}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"row 3, column 'y': not a finite number"):
            load_csv(path, CsvSchema(label_column="y"))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_csv(path, CsvSchema(label_column="target"))
        with pytest.raises(MissingColumn):
            load_csv(path, CsvSchema(label_column="y", feature_columns=("a", "b")))

    def test_repeated_header_is_refused(self, tmp_path):
        # a name that maps to its first column would read [1, 1] as the features
        path = tmp_path / "d.csv"
        path.write_text("a,y,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header names column 'a' more than once"):
            load_csv(path, CsvSchema(label_column="y"))

    @pytest.mark.parametrize(
        "features, reason",
        [(("a", "y"), "the label column 'y'"), (("a", "b", "a"), "'a' more than once")],
        ids=["label", "repeated"],
    )
    def test_feature_list_is_checked(self, features, reason):
        with pytest.raises(InvalidConfig, match=reason):
            CsvSchema(label_column="y", feature_columns=features)

    def test_add_bias(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n2,3\n4,5\n", encoding="utf-8")
        data = load_csv(path, CsvSchema(label_column="y", add_bias=True))
        assert np.array_equal(data.features, [[2.0, 1.0], [4.0, 1.0]])

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n4,5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path, CsvSchema(label_column="y"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            load_csv(path, CsvSchema(label_column="y"))

    def test_label_column_alone(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y\n1\n2\n", encoding="utf-8")
        with pytest.raises(InvalidConfig, match="no feature columns left"):
            load_csv(path, CsvSchema(label_column="y"))

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n", encoding="utf-8")
        with pytest.raises(ParseError, match="d.csv: no data rows"):
            load_csv(path, CsvSchema(label_column="y"))
