import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavyfed import (
    AggregatorSpec,
    InvalidConfig,
    LossModel,
    TooFewVectors,
    aggregate,
    bulyan,
    coord_median,
    coord_trimmed_mean,
    geometric_median,
    krum,
    mean,
    norm_trimmed_mean,
)
from heavyfed import engine
from heavyfed.aggregation import AGGREGATOR_KINDS, RULES, trim_count
from oracles import bulyan_reference, krum_reference, stacked_shards


def vec(*values):
    return [np.array([v], dtype=float) for v in values]


def random_vectors(seed, m=9, d=4, scale=1.0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(d) * scale for _ in range(m)]


class TestTrimCount:
    def test_examples(self):
        assert trim_count(0.2, 5) == 1
        assert trim_count(0.25, 10) == 3
        assert trim_count(0.0, 10) == 0

    def test_float_noise_near_integer(self):
        # 0.07 * 100 overshoots 7.0 in binary; the ceiling must not jump to 8
        assert trim_count(0.07, 100) == 7


class TestCoordTrimmedMean:
    def test_hand_sorted_example(self):
        out = coord_trimmed_mean(vec(1, 2, 3, 4, 5), beta=0.2)
        assert out[0] == pytest.approx(3.0)

    def test_zero_trim_is_plain_mean(self):
        vectors = random_vectors(0)
        assert np.array_equal(coord_trimmed_mean(vectors, 0.0), mean(vectors))

    def test_identical_vectors(self):
        v = np.array([2.0, -1.0, 0.5])
        assert np.allclose(coord_trimmed_mean([v] * 6, 0.3), v)

    def test_over_trim(self):
        with pytest.raises(TooFewVectors):
            coord_trimmed_mean(vec(1, 2, 3), beta=0.4)  # k = 2 removes everything

    def test_output_within_coordinate_range(self):
        vectors = random_vectors(1, m=11, d=5, scale=3.0)
        out = coord_trimmed_mean(vectors, 0.2)
        U = np.array(vectors)
        assert np.all(out >= U.min(axis=0) - 1e-12)
        assert np.all(out <= U.max(axis=0) + 1e-12)


class TestNormTrimmedMean:
    def test_drops_largest_norms(self):
        vectors = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([10.0, 0.0])]
        out = norm_trimmed_mean(vectors, beta=1 / 3)
        assert np.allclose(out, np.array([0.5, 1.0]))

    def test_zero_trim_is_plain_mean(self):
        vectors = random_vectors(2)
        assert np.array_equal(norm_trimmed_mean(vectors, 0.0), mean(vectors))

    def test_positive_scaling_equivariance(self):
        vectors = random_vectors(3)
        scaled = [4.5 * v for v in vectors]
        assert np.allclose(norm_trimmed_mean(scaled, 0.25), 4.5 * norm_trimmed_mean(vectors, 0.25))

    def test_over_trim(self):
        with pytest.raises(TooFewVectors):
            norm_trimmed_mean(vec(1), beta=0.4999)  # k = 1 removes the only vector


class TestCoordMedian:
    def test_odd(self):
        assert coord_median(vec(1, 5, 100))[0] == 5.0

    def test_even(self):
        assert coord_median(vec(1, 2, 3, 100))[0] == 2.5

    def test_identical(self):
        v = np.array([1.0, -2.0])
        assert np.array_equal(coord_median([v] * 4), v)

    def test_output_within_coordinate_range(self):
        vectors = random_vectors(4, m=8, d=3, scale=5.0)
        out = coord_median(vectors)
        U = np.array(vectors)
        assert np.all(out >= U.min(axis=0)) and np.all(out <= U.max(axis=0))


class TestGeometricMedian:
    def test_single_vector(self):
        v = np.array([3.0, -1.0])
        assert np.array_equal(geometric_median([v]), v)

    def test_equilateral_triangle(self):
        pts = [
            np.array([1.0, 0.0]),
            np.array([-0.5, np.sqrt(3) / 2]),
            np.array([-0.5, -np.sqrt(3) / 2]),
        ]
        assert np.allclose(geometric_median(pts, tol=1e-10), [0.0, 0.0], atol=1e-8)

    def test_objective_no_worse_than_mean(self):
        def objective(y, pts):
            return sum(np.linalg.norm(y - p) for p in pts)

        for seed in range(100):
            pts = random_vectors(seed, m=7, d=3, scale=2.0)
            gm = geometric_median(pts)
            assert objective(gm, pts) <= objective(mean(pts), pts) + 1e-9

    def test_coincident_point_safeguard(self):
        # an input point that is also the current iterate must not break it
        pts = [np.zeros(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.zeros(2)]
        out = geometric_median(pts)
        assert np.allclose(out, [0.0, 0.0], atol=1e-6)

    def test_all_identical(self):
        v = np.array([2.0, 2.0])
        assert np.allclose(geometric_median([v] * 5), v)


class TestKrum:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(krum([v] * 5, f=0), v)

    def test_outlier_rejected(self):
        rng = np.random.default_rng(0)
        cluster = [rng.normal(0, 0.1, 3) for _ in range(3)]
        outlier = np.full(3, 100.0)
        vectors = cluster + [outlier]
        # brute-force score oracle
        def score(i):
            dists = sorted(
                float(np.sum((vectors[i] - vectors[j]) ** 2)) for j in range(4) if j != i
            )
            return sum(dists[: 4 - 0 - 2])

        expected = min(range(4), key=lambda i: (score(i), i))
        assert expected != 3
        assert np.array_equal(krum(vectors, f=0), vectors[expected])

    def test_output_is_an_input(self):
        vectors = random_vectors(5, m=8)
        out = krum(vectors, f=2)
        assert any(np.array_equal(out, v) for v in vectors)

    def test_too_few(self):
        with pytest.raises(TooFewVectors):
            krum(vec(1, 2, 3), f=1)
        with pytest.raises(TooFewVectors):
            krum(np.zeros((10, 2)), f=7)  # max_f("krum", 10) = 3
        with pytest.raises(InvalidConfig):
            krum(vec(1, 2, 3, 4), f=-1)

    def test_exact_tie_goes_to_the_smallest_upload_in_any_order(self):
        # [0, 0] and [1, 0] are each other's nearest peer, so they score the same
        vectors = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(krum(vectors[list(perm)], f=0), [0.0, 0.0])


class TestBulyan:
    def test_identical_vectors(self):
        v = np.array([0.5, -0.5])
        assert np.allclose(bulyan([v] * 7, f=1), v)

    def test_f_zero_is_mean(self):
        vectors = random_vectors(6, m=5)
        assert np.allclose(bulyan(vectors, f=0), mean(vectors), atol=1e-12)

    def test_outlier_within_cluster_range(self):
        rng = np.random.default_rng(1)
        cluster = [rng.normal(0, 0.5, 4) for _ in range(6)]
        vectors = cluster + [np.full(4, 50.0)]
        out = bulyan(vectors, f=1)
        U = np.array(cluster)
        assert np.all(out >= U.min(axis=0) - 1e-12)
        assert np.all(out <= U.max(axis=0) + 1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewVectors):
            bulyan(random_vectors(0, m=6), f=1)  # needs 4f + 3 = 7

    @pytest.mark.parametrize("where", ["row", "entry"])
    def test_nan_upload_gives_nan_aggregate(self, where):
        U = np.array(random_vectors(2, m=11, d=3))
        if where == "row":
            U[4] = np.nan
        else:
            U[4, 1] = np.nan
        for f in (0, 1, 2):
            assert np.all(np.isnan(bulyan(U, f)))

    def test_inf_upload_scored_against_itself_gives_nan_aggregate(self):
        # with f = 0 every upload is picked, and the inf row's score comes to
        # include its own distance inf - inf = nan
        U = np.array(random_vectors(3, m=5, d=3))
        U[1] = np.inf
        assert np.all(np.isnan(bulyan(U, 0)))

    def test_inf_upload_outvoted_when_f_allows(self):
        # the inf row scores inf and is never among the m - 2f picks
        U = np.array(random_vectors(3, m=7, d=3))
        U[1] = -np.inf
        out = bulyan(U, 1)
        assert np.all(np.isfinite(out))
        finite = np.delete(U, 1, axis=0)
        assert np.all(out >= finite.min(axis=0)) and np.all(out <= finite.max(axis=0))


def selection_case(kind, seed, m, d):
    """Upload arrays that stress krum's and bulyan's selection: plain
    gaussian rows, rounded rows full of exact score ties, duplicated rows,
    a block of identical sign-flipped rows of random size, and the
    benchmark's block of floor(0.2 m) of them."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((m, d))
    if kind == "rounded":
        return np.round(U * rng.integers(1, 3))
    if kind == "duplicates":
        return U[rng.integers(0, max(1, m // 3), size=m)]
    if kind in ("sign_flip", "byz_block"):
        nb = int(rng.integers(0, m // 2 + 1)) if kind == "sign_flip" else m // 5
        U[:nb] = -5.0 * U[nb:].mean(axis=0)
    return U


KINDS = st.sampled_from(["gaussian", "rounded", "duplicates", "sign_flip", "byz_block"])


def selection_sizes(quotient):
    # (m, f) up to the aggregation microbenchmark's m = 100, with f within
    # the rule's limit: m >= quotient * f + 3
    return st.integers(3, 100).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (m - 3) // quotient)))


class TestBulyanMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(kind=KINDS, seed=st.integers(0, 2**32 - 1), size=selection_sizes(4), d=st.integers(1, 12))
    @example(kind="byz_block", seed=0, size=(40, 8), d=10)  # late picks tie its 8 identical rows
    @example(kind="sign_flip", seed=0, size=(40, 8), d=10)
    @example(kind="rounded", seed=1, size=(60, 14), d=2)
    @example(kind="duplicates", seed=2, size=(7, 1), d=3)
    @example(kind="rounded", seed=3, size=(3, 0), d=1)
    def test_byte_identical(self, kind, seed, size, d):
        m, f = size
        U = selection_case(kind, seed, m, d)
        assert bulyan(U, f).tobytes() == bulyan_reference(U, f).tobytes()


class TestKrumMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(kind=KINDS, seed=st.integers(0, 2**32 - 1), size=selection_sizes(2), d=st.integers(1, 12))
    # each of these ends in an exact tie between distinct positions
    @example(kind="duplicates", seed=2, size=(40, 18), d=10)
    @example(kind="rounded", seed=1, size=(60, 28), d=2)
    @example(kind="duplicates", seed=2, size=(7, 2), d=3)
    @example(kind="rounded", seed=3, size=(3, 0), d=1)
    def test_byte_identical(self, kind, seed, size, d):
        m, f = size
        U = selection_case(kind, seed, m, d)
        assert krum(U, f).tobytes() == krum_reference(U, f).tobytes()


@pytest.mark.parametrize("rule,quotient", [(krum, 2), (bulyan, 4)], ids=["krum", "bulyan"])
@settings(max_examples=100, deadline=None)
@given(kind=KINDS, seed=st.integers(0, 2**32 - 1), m=st.integers(3, 40), d=st.integers(1, 6))
def test_selection_does_not_depend_on_upload_order(rule, quotient, kind, seed, m, d):
    U = selection_case(kind, seed, m, d)
    f = (m - 3) // quotient
    perm = np.random.default_rng(seed).permutation(m)
    # equal, not byte-equal: -0.0 and 0.0 tie as values, so either may win
    assert np.array_equal(rule(U[perm], f), rule(U, f))


class TestMean:
    def test_singleton(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(mean([v]), v)

    def test_opposite_vectors_cancel(self):
        v = np.array([3.0, -4.0])
        assert np.array_equal(mean([v, -v]), np.zeros(2))

    def test_scaling_linearity(self):
        vectors = random_vectors(7)
        assert np.allclose(mean([2.0 * v for v in vectors]), 2.0 * mean(vectors))

    def test_empty(self):
        with pytest.raises(TooFewVectors):
            mean([])


AGGREGATORS = [
    ("mean", lambda vs: mean(vs)),
    ("coord_trimmed", lambda vs: coord_trimmed_mean(vs, 0.2)),
    ("norm_trimmed", lambda vs: norm_trimmed_mean(vs, 0.2)),
    ("coord_median", lambda vs: coord_median(vs)),
    ("geo_median", lambda vs: geometric_median(vs)),
    ("krum", lambda vs: krum(vs, 1)),
    ("bulyan", lambda vs: bulyan(vs, 1)),
]


class TestSharedInvariants:
    @pytest.mark.parametrize("name,rule", AGGREGATORS, ids=[n for n, _ in AGGREGATORS])
    def test_permutation_invariance(self, name, rule):
        vectors = random_vectors(10, m=9, d=4)
        perm = np.random.default_rng(0).permutation(9)
        base = rule(vectors)
        shuffled = rule([vectors[i] for i in perm])
        assert np.allclose(base, shuffled, atol=1e-11)

    @pytest.mark.parametrize(
        "rule",
        [
            lambda vs: mean(vs),
            lambda vs: coord_trimmed_mean(vs, 0.2),
            lambda vs: coord_median(vs),
            lambda vs: geometric_median(vs, tol=1e-12),
        ],
        ids=["mean", "coord_trimmed", "coord_median", "geo_median"],
    )
    def test_translation_equivariance(self, rule):
        vectors = random_vectors(11, m=7, d=3)
        shift = np.array([5.0, -2.0, 0.25])
        assert np.allclose(rule([v + shift for v in vectors]), rule(vectors) + shift, atol=1e-6)

    def test_krum_selection_is_translation_invariant(self):
        vectors = random_vectors(12, m=8, d=3)
        shift = np.full(3, 17.0)
        assert np.array_equal(krum([v + shift for v in vectors], 1), krum(vectors, 1) + shift)

    def test_trim_free_rules_agree_exactly(self):
        vectors = random_vectors(13, m=6, d=5)
        assert np.array_equal(coord_trimmed_mean(vectors, 0.0), mean(vectors))
        assert np.array_equal(norm_trimmed_mean(vectors, 0.0), mean(vectors))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_trimmed_mean_permutation_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 12))
        vectors = [rng.standard_normal(3) * 10 for _ in range(m)]
        perm = rng.permutation(m)
        a = coord_trimmed_mean(vectors, 0.2)
        b = coord_trimmed_mean([vectors[i] for i in perm], 0.2)
        assert np.allclose(a, b, atol=1e-11)


class TestDispatch:
    def test_aggregate_routes_by_kind(self):
        vectors = random_vectors(14, m=7)
        assert np.array_equal(aggregate(AggregatorSpec(kind="mean"), vectors), mean(vectors))
        assert np.array_equal(
            aggregate(AggregatorSpec(kind="coord_trimmed", beta=0.2), vectors),
            coord_trimmed_mean(vectors, 0.2),
        )
        assert np.array_equal(
            aggregate(AggregatorSpec(kind="krum", f=1), vectors), krum(vectors, 1)
        )
        assert np.array_equal(
            aggregate(AggregatorSpec(kind="mkrum", f=1), vectors), krum(vectors, 1)
        )

    def test_spec_validation(self):
        with pytest.raises(InvalidConfig):
            AggregatorSpec(kind="average")
        with pytest.raises(InvalidConfig):
            AggregatorSpec(beta=0.5)
        with pytest.raises(InvalidConfig):
            AggregatorSpec(f=-1)


# What each rule reads of its spec, stated apart from aggregation.RULES: the
# trimmed means their trim fraction, the selection rules f, mkrum also the
# devices' momentum, and the geometric median its stopping rule.
_READS = {
    "mean": set(),
    "coord_trimmed": {"beta"},
    "norm_trimmed": {"beta"},
    "coord_median": set(),
    "geo_median": {"tol", "max_iter"},
    "krum": {"f"},
    "bulyan": {"f"},
    "mkrum": {"f", "momentum"},
}
# a spec, and another value of each field; on the fixed input below every
# rule that reads a field gives another output for its other value
_SPEC = {"beta": 0.1, "f": 1, "momentum": 0.9, "tol": 1e-8, "max_iter": 1000}
_OTHER = {"beta": 0.3, "f": 2, "momentum": 0.5, "tol": 1.0, "max_iter": 1}


def _run_bytes(spec):
    # what a round computes under the spec: the baseline local stage's
    # uploads, where mkrum's momentum enters, and the aggregate
    model = LossModel("linear", 4)
    shards, w = stacked_shards(model)
    uploads = engine._local_stage(model, shards, None, spec)(w)
    return uploads.tobytes() + aggregate(spec, random_vectors(3, m=11)).tobytes()


class TestRuleReads:
    @pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
    def test_a_rule_reads_exactly_its_declared_fields(self, kind):
        base = _run_bytes(AggregatorSpec(kind, **_SPEC))
        changed = {name for name in _SPEC if _run_bytes(AggregatorSpec(kind, **{**_SPEC, name: _OTHER[name]})) != base}
        assert changed == set(RULES[kind].reads) == _READS[kind]
