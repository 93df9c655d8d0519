import math
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavyfed import (
    Dataset,
    EmptyInput,
    EstimatorParams,
    DimensionMismatch,
    InvalidConfig,
    LossModel,
    TRUNCATION_CAP,
    default_params,
    per_sample_gradients,
    robust_gradient,
    smoothed_truncate,
    soft_truncate,
)
from heavyfed import estimator
from oracles import (
    STACKED_MODELS,
    concentration_failures,
    continuity_constant,
    continuity_worst_ratio,
    exact_smoothed,
    mc_smoothed,
    robust_mean,
    schedule,
    stacked_shards,
)

SQRT2 = math.sqrt(2.0)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSoftTruncate:
    def test_fixed_point_at_zero(self):
        assert soft_truncate(0.0) == 0.0

    def test_upper_branch(self):
        assert soft_truncate(2.0) == pytest.approx(2.0 * SQRT2 / 3.0, abs=1e-15)

    def test_cubic_core(self):
        assert soft_truncate(1.0) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_lower_branch(self):
        assert soft_truncate(-3.0) == pytest.approx(-2.0 * SQRT2 / 3.0, abs=1e-15)

    @given(finite_floats)
    def test_odd_and_bounded(self, x):
        assert soft_truncate(-x) == -soft_truncate(x)
        assert abs(soft_truncate(x)) <= TRUNCATION_CAP + 1e-15

    def test_vectorized(self):
        out = soft_truncate(np.array([0.0, 2.0, -3.0]))
        assert np.allclose(out, [0.0, TRUNCATION_CAP, -TRUNCATION_CAP])


def cubic_core_correction(a, b):
    # what the gaussian smoothing adds on top of the smoothed cubic core,
    # E[soft_truncate(a + b*u)] - (a*(1 - b^2/2) - a^3/6)
    return smoothed_truncate(a, b) - (a * (1.0 - b * b / 2.0) - a**3 / 6.0)


class TestSmoothingCorrection:
    def test_zero_noise_small_argument(self):
        assert cubic_core_correction(0.5, 0.0) == 0.0

    def test_zero_noise_clipped_argument(self):
        # b -> 0 limit must equal soft_truncate(2) - (2 - 2**3/6)
        expected = 2.0 * SQRT2 / 3.0 - (2.0 - 8.0 / 6.0)
        assert cubic_core_correction(2.0, 0.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.2761423749153967, abs=1e-12)

    def test_matches_monte_carlo(self):
        mc_mean, mc_se = mc_smoothed(1.0, 1.0, 10**6)
        oracle = mc_mean - (1.0 * (1.0 - 0.5) - 1.0 / 6.0)
        assert cubic_core_correction(1.0, 1.0) == pytest.approx(oracle, abs=3.0 * mc_se)


class TestSmoothedTruncate:
    def test_zero_argument_is_zero(self):
        for b in (0.0, 0.5, 2.0, 10.0):
            assert smoothed_truncate(0.0, b) == pytest.approx(0.0, abs=1e-15)

    def test_zero_noise_reduces_to_truncation(self):
        assert smoothed_truncate(1.0, 0.0) == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert smoothed_truncate(2.0, 0.0) == TRUNCATION_CAP
        assert smoothed_truncate(-3.0, 0.0) == -TRUNCATION_CAP

    def test_matches_monte_carlo(self):
        mc_mean, mc_se = mc_smoothed(1.0, 1.0, 10**6)
        assert smoothed_truncate(1.0, 1.0) == pytest.approx(mc_mean, abs=3.0 * mc_se)

    def test_continuous_at_zero_noise(self):
        for a in (-3.0, -1.0, 0.0, 1.0, 3.0):
            assert smoothed_truncate(a, 1e-9) == pytest.approx(smoothed_truncate(a, 0.0), abs=1e-6)

    @pytest.mark.parametrize("tau", [16.9, 32.0])
    def test_exact_on_the_estimator_line(self, tau):
        # the estimator's table is built from smoothed_truncate at
        # b = |a| / sqrt(tau), across both branches and the 1e4 table end
        r = np.geomspace(1e-5, 1e5, 400)
        b = r / math.sqrt(tau)
        exact = np.array([exact_smoothed(x, y) for x, y in zip(r, b)])
        assert np.abs(smoothed_truncate(r, b) - exact).max() <= 1e-13

    def test_closed_form_grid_against_exact(self):
        # b >> |a| cancels in the closed form; the limit |a| + b <= 10 keeps
        # it where it does not (a limit of 1e3 reached 6.8e-9 on this grid)
        g = np.geomspace(1e-3, 1e3, 50)
        a, b = (x.ravel() for x in np.meshgrid(g, g))
        inside = a + b <= 1e3
        a, b = a[inside], b[inside]
        exact = np.array([exact_smoothed(x, y) for x, y in zip(a, b)])
        assert np.abs(smoothed_truncate(a, b) - exact).max() <= 1e-13

    def test_quadrature_branch_against_exact(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0.0, 3e3, 4000), rng.uniform(1.0, 1.5e3, 4000)
        extreme = a + b > 1e3
        a, b = a[extreme][:500], b[extreme][:500]
        exact = np.array([exact_smoothed(x, y) for x, y in zip(a, b)])
        assert np.abs(smoothed_truncate(a, b) - exact).max() <= 1e-15

    @given(finite_floats, st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=300)
    @example(a=54.401733337612995, b=54.40625)
    def test_odd_in_first_argument(self, a, b):
        assert abs(smoothed_truncate(-a, b) + smoothed_truncate(a, b)) <= 1e-12

    @given(finite_floats, finite_floats)
    @settings(max_examples=300)
    def test_bounded(self, a, b):
        assert abs(smoothed_truncate(a, b)) <= TRUNCATION_CAP + 1e-12


class TestLineTable:
    """The estimator's per-tau table of smoothed_truncate on b = |a| / sqrt(tau)."""

    @pytest.mark.parametrize("tau", [0.25, 16.9, 32.0, 200.0])
    def test_exact_on_the_estimator_line(self, tau):
        # past r = 1e4 the table switches to its piece in 1e4 / r
        r = np.geomspace(1e-6, 1e6, 400)
        exact = np.array([exact_smoothed(x, x / math.sqrt(tau)) for x in r])
        assert np.abs(estimator._smoothed_values(r, EstimatorParams(1.0, tau)) - exact).max() <= 1e-12

    def test_odd_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x = rng.standard_cauchy(5000) * np.exp(rng.uniform(-10.0, 10.0, 5000))
        x[:3] = (0.0, 1e300, 2e4)
        params = EstimatorParams(0.3, 16.9)
        assert estimator._smoothed_values(-x, params).tobytes() == (-estimator._smoothed_values(x, params)).tobytes()

    def test_bounded_by_the_cap(self):
        x = np.geomspace(1e-8, 1e300, 4000)
        for tau in (0.25, 3.0, 200.0):
            assert np.abs(estimator._smoothed_values(x, EstimatorParams(1.0, tau))).max() <= TRUNCATION_CAP

    def test_non_finite_input_stays_non_finite(self):
        # a NaN or infinite gradient coordinate must reach the engine's
        # finiteness check, not a table index
        x = np.array([math.nan, math.inf, -math.inf, 0.0, 1.0])
        out = estimator._smoothed_values(x, EstimatorParams(1.0, 16.9))
        assert np.isnan(out[:3]).all()
        assert out[3] == 0.0 and np.isfinite(out[4])

    def test_too_coarse_table_is_refused(self):
        with pytest.raises(InvalidConfig, match="tau=16.9"):
            estimator._LineTable(16.9, 2)

    # 0.0464 to 215: degree-4 taus whose check also passes at 2048 pieces
    @pytest.mark.parametrize(
        "tau", [1e-4, 1e-2, 0.0464, 0.1, 1.0, 16.902992986180593, 31.967, 32.0, 46.4, 100.0, 215.0, 1e3, 1e5]
    )
    def test_the_lowest_degree_that_meets_the_tolerance(self, tau):
        table = estimator._line_table(tau)
        assert table.degree in estimator._TABLE_DEGREES
        r = np.exp(np.random.default_rng(12).uniform(math.log(1e-6), math.log(1e6), 20000))
        got = estimator._smoothed_values(r, EstimatorParams(1.0, tau))
        assert np.abs(got - smoothed_truncate(r, r / math.sqrt(tau))).max() <= estimator._TABLE_TOL
        if table.degree > estimator._TABLE_DEGREES[0]:
            with pytest.raises(InvalidConfig, match=f"degree {table.degree - 1}"):
                estimator._LineTable(tau, table.degree - 1)

    @pytest.mark.parametrize(
        "tau, degree",
        [
            (1e-4, 7), (1e-3, 5), (1e-2, 4), (0.0464, 4), (0.1, 4), (0.25, 3), (1.0, 3), (3.03, 3),
            (16.903, 3), (25.0, 4), (31.967, 4), (46.4, 4), (100.0, 4), (215.0, 4), (1e3, 4),
            (1e4, 5), (1e5, 7), (2e5, 7),
        ],
    )
    def test_degree_across_the_tau_range(self, tau, degree):
        assert estimator._line_table(tau).degree == degree

    @pytest.mark.parametrize("tau, built", [(16.902992986180593, 1), (31.967, 2)])
    def test_one_table_built_per_degree_tried(self, tau, built, monkeypatch):
        degrees = []

        class Counted(estimator._LineTable):
            def __init__(self, tau, degree):
                degrees.append(degree)
                super().__init__(tau, degree)

        monkeypatch.setattr(estimator, "_LineTable", Counted)
        table = estimator._table_or_refusal.__wrapped__(tau)
        assert degrees == list(estimator._TABLE_DEGREES[:built])
        assert table.degree == degrees[-1]

    def test_the_check_margin_holds_between_the_check_points(self):
        # at this tau the degree-5 table meets 1e-12 at its check points
        # (9.34e-13) but misses by 1.04e-12 at these random points; the
        # check's margin moves the tau to degree 6
        tau = 29173.084879937058
        assert estimator._line_table(tau).degree == 6
        r = np.exp(np.random.default_rng(47).uniform(math.log(1e-6), math.log(1e6), 100000))
        got = estimator._smoothed_values(r, EstimatorParams(1.0, tau))
        assert np.abs(got - smoothed_truncate(r, r / math.sqrt(tau))).max() <= estimator._TABLE_TOL

    def test_every_tau_keeps_its_table(self, monkeypatch):
        # a cache of eight tables rebuilt the first of nine taus
        built = []

        class Counted(estimator._LineTable):
            def __init__(self, tau, degree):
                built.append(tau)
                super().__init__(tau, degree)

        monkeypatch.setattr(estimator, "_LineTable", Counted)
        taus = [2.001 + k / 7.0 for k in range(9)]  # degree-3 taus no other test asks for
        first = estimator._line_table(taus[0])
        for tau in taus[1:]:
            estimator._line_table(tau)
        assert estimator._line_table(taus[0]) is first
        assert built == taus

    def test_a_refused_tau_keeps_its_refusal(self, monkeypatch):
        # a refused config parse or sweep value must not search degrees 3-8 again
        built = []

        class Counted(estimator._LineTable):
            def __init__(self, tau, degree):
                built.append(degree)
                super().__init__(tau, degree)

        monkeypatch.setattr(estimator, "_LineTable", Counted)
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidConfig, match="tau=4000000.0 .* of degree 8") as info:
                estimator._line_table(4e6)  # a refused tau no other test asks for
            messages.append(str(info.value))
        assert built == list(estimator._TABLE_DEGREES)
        assert messages[0] == messages[1]

    def test_robust_ref_tau_gets_a_low_degree(self):
        tau = default_params(n=100, m=10, d=10, v=0.5, diameter=10.0, lipschitz=1.0).tau
        assert estimator._line_table(tau).degree <= 4

    def test_a_tau_without_a_table_is_refused_at_every_degree(self):
        with pytest.raises(InvalidConfig, match="tau=1e\\+200 .* of degree 8"):
            estimator._line_table(1e200)

    @pytest.mark.parametrize("tau, peak_bound", [(16.902992986180593, 1.0e6), (1e-4, 1.5e6)])
    def test_build_memory_is_bounded(self, tau, peak_bound):
        # building the whole degree-8 table at once peaked at 1.02 MB at
        # robust-ref's tau and 25 MB at 1e-4 (tracemalloc)
        tracemalloc.start()
        try:
            estimator._table_or_refusal.__wrapped__(tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"table build at tau={tau:g}: peak {peak / 1e6:.2f} MB")
        assert peak <= peak_bound

    def test_kept_buffers_carry_nothing_between_calls(self):
        # the kernel keeps its block buffers from one call to the next; a
        # smaller batch in between must not change a larger one's bytes
        x = np.random.default_rng(9).standard_cauchy(3 * estimator._BLOCK + 5)
        params = EstimatorParams(0.3, 16.9)
        first = estimator._smoothed_values(x, params)
        assert estimator._smoothed_values(x[:30], params).tobytes() == first[:30].tobytes()
        assert estimator._smoothed_values(x, params).tobytes() == first.tobytes()

    def test_threads_keep_their_own_buffers(self):
        rng = np.random.default_rng(10)
        batches = [rng.standard_cauchy(2 * estimator._BLOCK) * 10.0**k for k in range(-2, 2)]
        params = EstimatorParams(0.3, 16.9)
        serial = [estimator._smoothed_values(x, params).tobytes() for x in batches]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda x: estimator._smoothed_values(x, params).tobytes(), batches * 8))
        assert threaded == serial * 8

    def test_blocks_allocate_no_temporaries(self, monkeypatch):
        # fresh per-block temporaries (about six blocks of floats) are returned
        # to the system after every batch and faulted in again on the next;
        # beyond its output a batch allocates less than one block of floats
        # (boolean masks and numpy's casting buffers)
        monkeypatch.setattr(estimator, "_BLOCK", 16384)
        x = np.random.default_rng(11).standard_normal(4 * estimator._BLOCK)
        params = EstimatorParams(0.3, 16.9)
        estimator._smoothed_values(x, params)
        tracemalloc.start()
        try:
            out = estimator._smoothed_values(x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 8 * estimator._BLOCK


class TestRobustScalarMean:
    # the scalar estimator, measured through robust_gradient by oracles.robust_mean.
    # Empty samples are refused by robust_gradient (TestRobustGradient::test_empty_and_mismatch),
    # non-finite ones by Dataset (test_losses.py, TestShapes::test_dataset_validation).
    def test_all_zero_samples(self):
        assert robust_mean(np.zeros(25), EstimatorParams(1.0, 4.0)) == 0.0

    def test_constant_samples_with_large_scale(self):
        c = 0.37
        params = EstimatorParams(100.0 * abs(c), 9.0)
        assert robust_mean(np.full(40, c), params) == pytest.approx(c, rel=0.01)

    def test_output_bounded_by_scale(self):
        rng = np.random.default_rng(3)
        params = EstimatorParams(0.5, 9.0)
        samples = rng.standard_cauchy(200) * 50.0
        assert abs(robust_mean(samples, params)) <= TRUNCATION_CAP * params.s + 1e-12

    def test_concentration_bound(self):
        # empirical check of the deviation bound at zeta = 0.01
        rate, bound = concentration_failures(trials=1000)
        assert bound == pytest.approx(0.2853072807475895, abs=1e-12)
        assert rate <= 0.05

    def test_l1_continuity(self):
        assert continuity_worst_ratio(pairs=1000) <= 1.0 + 1e-9


class TestRobustGradient:
    def test_perfect_fit_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        model = LossModel("linear", 4)
        w = rng.standard_normal(4)
        X = rng.standard_normal((30, 4))
        data = Dataset(X, X @ w)
        out = robust_gradient(model, w, data, EstimatorParams(1.0, 4.0))
        assert np.all(out == 0.0)

    def test_single_sample_large_scale(self):
        rng = np.random.default_rng(1)
        model = LossModel("linear", 5)
        w = rng.standard_normal(5)
        data = Dataset(rng.standard_normal((1, 5)), rng.standard_normal(1))
        grad = per_sample_gradients(model, w, data)[0]
        params = EstimatorParams(100.0 * float(np.abs(grad).max()), 9.0)
        out = robust_gradient(model, w, data, params)
        assert np.allclose(out, grad, rtol=0.01)

    def test_matches_plain_mean_on_light_tails(self):
        # gaussian features with an offset keep every mean coordinate away
        # from zero, so a relative comparison is meaningful
        rng = np.random.default_rng(2)
        model = LossModel("linear", 6)
        w_true = np.ones(6) / math.sqrt(6.0)
        X = rng.normal(2.0, 0.5, size=(400, 6))
        data = Dataset(X, X @ w_true + 0.1 * rng.standard_normal(400))
        w = np.zeros(6)
        grads = (X @ w - data.labels)[:, None] * X
        plain = grads.mean(axis=0)
        params = EstimatorParams(100.0 * float(np.abs(grads).max()), 9.0)
        out = robust_gradient(model, w, data, params)
        assert np.allclose(out, plain, rtol=0.02)

    @pytest.mark.parametrize("model", STACKED_MODELS, ids=lambda m: f"{m.kind}-{m.objective}")
    def test_stacked_shards_equal_per_shard_calls_bit_for_bit(self, model):
        # 4 shards of 1100 samples reach past one kernel block for every model,
        # and the small scale sends some inputs into the table's tail piece
        shards, w = stacked_shards(model, m=4, n=1100)
        params = EstimatorParams(0.01, 16.9)
        batched = robust_gradient(model, w, shards, params)
        per_shard = np.stack(
            [robust_gradient(model, w, Dataset(X, y), params) for X, y in zip(shards.features, shards.labels)]
        )
        assert batched.shape == (4, model.dim)
        assert np.array_equal(batched, per_shard)

    def test_block_size_does_not_change_the_bytes(self, monkeypatch):
        model = LossModel("logistic", 4)
        shards, w = stacked_shards(model, m=4, n=600)
        params = EstimatorParams(0.01, 16.9)
        outputs = []
        for block in (7, 4096, 10**9):
            monkeypatch.setattr(estimator, "_BLOCK", block)
            outputs.append(robust_gradient(model, w, shards, params))
        assert all(out.tobytes() == outputs[0].tobytes() for out in outputs)

    @given(
        model=st.sampled_from(
            [
                LossModel("linear", 1),
                LossModel("linear", 2),
                LossModel("logistic", 1),
                LossModel("logistic", 2),
                LossModel("mlp", 1, hidden=1),
                LossModel("mlp", 2, hidden=2, objective="logistic"),
            ]
        ),
        m=st.sampled_from([None, 1, 3]),  # None: one plain (n, p) dataset
        n=st.sampled_from([1, 8, 9, 50]),
        kept=st.sampled_from(["none", "one", "all", "some", "rows"]),
        s=st.sampled_from([0.01, 1.0, 100.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    # one kept entry, dim == 1 and n == 1 on every run, not only when drawn
    @example(model=LossModel("linear", 3), m=3, n=9, kept="one", s=1.0, seed=1)
    @example(model=LossModel("logistic", 1), m=3, n=8, kept="some", s=0.01, seed=2)
    @example(model=LossModel("mlp", 2, hidden=2, objective="logistic"), m=None, n=1, kept="some", s=1.0, seed=3)
    @example(model=LossModel("linear", 1), m=None, n=1, kept="one", s=100.0, seed=4)
    def test_keep_mask_equals_masking_the_full_estimate(self, model, m, n, kept, s, seed):
        shards, w = stacked_shards(model, m=m or 1, n=n, seed=seed)
        data = shards if m else Dataset(shards.features[0], shards.labels[0])
        params = EstimatorParams(s, 16.9)
        full = robust_gradient(model, w, data, params)
        rng = np.random.default_rng(seed)
        keep = np.zeros(full.shape, dtype=bool)
        if kept == "one":
            keep.flat[rng.integers(keep.size)] = True
        elif kept == "all":
            keep[...] = True
        elif kept == "some":
            keep = rng.random(full.shape) < 0.5
        elif kept == "rows":
            keep[rng.random(full.shape[:-1]) < 0.5] = True
        masked = robust_gradient(model, w, data, params, keep=keep)
        assert masked.shape == full.shape
        assert masked.tobytes() == np.where(keep, full, 0.0).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_keep_mask_sums_signed_zeros_as_the_full_estimate_does(self, n):
        # a perfect fit's per-sample gradients are -0.0 at negative features;
        # a kept entry's sum must carry the sign that keep=None gives it
        model = LossModel("linear", 3)
        X = np.tile([[-1.0, 2.0, -3.0]], (n, 1))
        w = np.array([0.5, 0.25, 1.0])
        data = Dataset(X, X @ w)
        params = EstimatorParams(1.0, 16.9)
        full = robust_gradient(model, w, data, params)
        assert np.all(full == 0.0)
        for keep in (np.ones(3, dtype=bool), np.array([True, False, False]), np.array([False, False, True])):
            masked = robust_gradient(model, w, data, params, keep=keep)
            assert masked.tobytes() == np.where(keep, full, 0.0).tobytes()

    def test_keep_mask_must_match_the_result(self):
        model = LossModel("linear", 3)
        shards, w = stacked_shards(model, m=2, n=5)
        with pytest.raises(DimensionMismatch):
            robust_gradient(model, w, shards, EstimatorParams(1.0, 4.0), keep=np.ones(3, dtype=bool))

    def test_empty_and_mismatch(self):
        model = LossModel("linear", 3)
        with pytest.raises(EmptyInput):
            robust_gradient(model, np.zeros(3), Dataset(np.zeros((0, 3)), np.zeros(0)), EstimatorParams(1.0, 4.0))
        with pytest.raises(DimensionMismatch):
            robust_gradient(model, np.zeros(4), Dataset(np.zeros((2, 3)), np.zeros(2)), EstimatorParams(1.0, 4.0))


class TestSchedules:
    def test_plain_schedule_values(self):
        # oracle: materialize the product directly (no underflow at d = 10)
        product = (10.0 * 100 * 1.0) ** 10 * (10 + 1) * 10 * (10 * 100) ** 10
        expected_log = math.log(product)
        params = default_params(n=100, m=10, d=10, v=0.5, diameter=10.0, lipschitz=1.0, variant="plain")
        # tau = sqrt(2 ln(1/zeta))
        assert params.tau**2 / 2 == pytest.approx(expected_log, rel=1e-12)
        assert params.tau**2 / 2 == pytest.approx(142.85558594543517, abs=1e-9)
        assert params.s == pytest.approx(math.sqrt(100 * 0.5 / (2 * expected_log)), rel=1e-12)
        assert params.s == pytest.approx(0.41833229284580425, abs=1e-12)
        assert params.tau == pytest.approx(16.902992986180593, abs=1e-12)

    def test_compressed_schedule_values(self):
        product = 2.0 * (10.0 * math.sqrt(10 * 100)) ** 10 * 10 * (10 * 100) ** 10
        expected_log = math.log(product)
        params = default_params(n=100, m=10, d=10, v=0.5, diameter=10.0, lipschitz=1.0, variant="compressed")
        assert params.tau**2 / 2 == pytest.approx(expected_log, rel=1e-12)
        assert params.tau**2 / 2 == pytest.approx(129.6379123882265, abs=1e-9)
        assert params.s == pytest.approx(0.43914100346938456, abs=1e-12)

    def test_monotone_in_dimension(self):
        prev = None
        for d in (2, 5, 10, 20):
            params = default_params(n=100, m=10, d=d, v=0.5, diameter=10.0, lipschitz=1.0)
            if prev is not None:
                assert params.tau > prev.tau  # zeta = exp(-tau**2 / 2) strictly decreases
            prev = params

    def test_log_space_survives_large_dimension(self):
        # the confidence level itself underflows here; the schedule must not
        params = default_params(n=100, m=10, d=500, v=0.5, diameter=10.0, lipschitz=1.0)
        assert math.isfinite(params.s) and params.s > 0.0
        assert math.exp(-params.tau**2 / 2) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidConfig):
            default_params(n=0, m=10, d=10, v=0.5, diameter=10.0, lipschitz=1.0)
        with pytest.raises(InvalidConfig):
            default_params(n=100, m=10, d=10, v=-1.0, diameter=10.0, lipschitz=1.0)
        with pytest.raises(InvalidConfig):
            default_params(n=100, m=10, d=10, v=0.5, diameter=10.0, lipschitz=1.0, variant="bogus")

    def test_params_validation(self):
        with pytest.raises(InvalidConfig):
            EstimatorParams(s=0.0, tau=1.0)
        with pytest.raises(InvalidConfig):
            EstimatorParams(s=1.0, tau=math.nan)
        with pytest.raises(InvalidConfig, match="confidence level"):
            default_params(n=1, m=1, d=1, v=1.0, diameter=0.1, lipschitz=1.0)

    @pytest.mark.parametrize("tau", [1e6, 1e200])
    def test_tau_without_a_table_is_refused(self, tau):
        # the table's own check decides: beyond about tau = 1e5 it misses
        with pytest.raises(InvalidConfig, match="estimator table"):
            EstimatorParams(s=1.0, tau=tau)

    def test_from_zeta(self):
        params = schedule(0.01, 100, 0.5)
        assert params.s == pytest.approx(2.3299530089232805, abs=1e-12)
        assert params.tau == pytest.approx(3.034854258770293, abs=1e-12)
        assert math.exp(-params.tau**2 / 2) == pytest.approx(0.01, rel=1e-12)


class TestContinuityConstant:
    def test_limit_at_large_tau(self):
        assert continuity_constant(1e6) == pytest.approx(1.0, abs=1e-12)

    def test_tau_one(self):
        assert continuity_constant(1.0) == pytest.approx(1.1666309411753726, abs=1e-9)

    def test_tau_four(self):
        assert continuity_constant(4.0) == pytest.approx(1.0084907026168297, abs=1e-9)


def test_numpy_is_the_only_third_party_import():
    # the normal CDF comes from math.erfc, so importing heavyfed in a fresh
    # interpreter loads no third-party module but numpy
    src = str(Path(estimator.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); import heavyfed; "
        "print(sorted({name.partition('.')[0] for name in set(sys.modules) - before} - set(sys.stdlib_module_names)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['heavyfed', 'numpy']"
