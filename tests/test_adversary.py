import numpy as np
import pytest

from heavyfed import AttackSpec, InvalidConfig, byzantine_count, corrupt, select_byzantine
from heavyfed.adversary import ATTACK_KINDS, REPLACES_ROW
from oracles import corrupt_reference


def uploads(seed=0, m=8, d=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(d) for _ in range(m)]


class TestByzantineCount:
    def test_zero_alpha(self):
        assert byzantine_count(0.0, 10) == 0

    def test_paper_setup(self):
        assert byzantine_count(0.2, 10) == 2

    def test_floor_not_round(self):
        assert byzantine_count(0.19, 10) == 1
        assert byzantine_count(0.3, 10) == 3

    def test_float_noise_near_integer(self):
        # 0.29 * 100 lands just below 29.0 in binary; floor must still be 29
        assert byzantine_count(0.29, 100) == 29

    def test_invalid_alpha(self):
        with pytest.raises(InvalidConfig):
            byzantine_count(0.5, 10)


class TestSelectByzantine:
    # which generator a round draws from is the engine's policy: see
    # test_engine.py::TestByzantineSets
    def test_empty_when_alpha_zero(self):
        assert select_byzantine(10, 0.0, None) == frozenset()
        assert select_byzantine(10, 0.09, None) == frozenset()  # floor(0.9) = 0

    def test_count(self):
        chosen = select_byzantine(10, 0.2, np.random.default_rng(2))
        assert len(chosen) == 2
        assert all(0 <= i < 10 for i in chosen)
        assert select_byzantine(10, 0.2, np.random.default_rng(2)) == chosen


class TestCorrupt:
    def test_attack_none_is_identity(self):
        ups = uploads()
        out = corrupt(AttackSpec(kind="none"), ups, frozenset({1, 2}), np.random.default_rng(0))
        assert all(np.array_equal(a, b) for a, b in zip(out, ups))

    def test_empty_byzantine_set_is_identity(self):
        ups = uploads()
        spec = AttackSpec(kind="sign_flip", strength=5.0, alpha=0.2)
        out = corrupt(spec, ups, frozenset(), np.random.default_rng(0))
        assert all(np.array_equal(a, b) for a, b in zip(out, ups))

    def test_non_byzantine_entries_untouched(self):
        ups = uploads(m=6)
        spec = AttackSpec(kind="large_value", strength=9.0, alpha=0.3)
        out = corrupt(spec, ups, frozenset({0, 4}), np.random.default_rng(0))
        for i in (1, 2, 3, 5):
            assert np.array_equal(out[i], ups[i])

    def test_sign_flip_of_identical_uploads(self):
        g = np.array([1.0, -2.0, 3.0])
        ups = [g.copy() for _ in range(5)]
        spec = AttackSpec(kind="sign_flip", strength=1.0, alpha=0.2)
        out = corrupt(spec, ups, frozenset({2}), np.random.default_rng(0))
        assert np.allclose(out[2], -g)

    def test_sign_flip_scales_good_mean(self):
        ups = uploads(m=5)
        spec = AttackSpec(kind="sign_flip", strength=5.0, alpha=0.4)
        byz = frozenset({0, 1})
        out = corrupt(spec, ups, byz, np.random.default_rng(0))
        good_mean = np.mean([ups[i] for i in (2, 3, 4)], axis=0)
        assert np.allclose(out[0], -5.0 * good_mean)
        assert np.allclose(out[1], -5.0 * good_mean)

    def test_large_value(self):
        ups = uploads(m=4)
        spec = AttackSpec(kind="large_value", strength=100.0, alpha=0.25)
        out = corrupt(spec, ups, frozenset({3}), np.random.default_rng(0))
        assert np.array_equal(out[3], np.full(3, 100.0))

    def test_mean_shift_degenerate(self):
        ups = uploads(m=6)
        spec = AttackSpec(kind="mean_shift", strength=0.0, alpha=0.2)
        out = corrupt(spec, ups, frozenset({1}), np.random.default_rng(0))
        good_mean = np.mean([ups[i] for i in (0, 2, 3, 4, 5)], axis=0)
        assert np.allclose(out[1], good_mean)

    def test_mean_shift_uses_good_std(self):
        ups = uploads(m=6)
        spec = AttackSpec(kind="mean_shift", strength=2.0, alpha=0.2)
        out = corrupt(spec, ups, frozenset({0}), np.random.default_rng(0))
        good = np.array([ups[i] for i in range(1, 6)])
        assert np.allclose(out[0], good.mean(axis=0) + 2.0 * good.std(axis=0))

    def test_gaussian_noise_deterministic_given_rng(self):
        ups = uploads(m=5)
        spec = AttackSpec(kind="gaussian_noise", strength=0.5, alpha=0.2)
        a = corrupt(spec, ups, frozenset({2}), np.random.default_rng(11))
        b = corrupt(spec, ups, frozenset({2}), np.random.default_rng(11))
        assert np.array_equal(a[2], b[2])
        assert not np.array_equal(a[2], ups[2])

    def test_gaussian_noise_drawn_in_ascending_device_order(self):
        ups = np.array(uploads(m=6))
        spec = AttackSpec(kind="gaussian_noise", strength=0.5, alpha=0.3)
        out = corrupt(spec, ups, frozenset({4, 1}), np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for i in (1, 4):
            assert np.array_equal(out[i], ups[i] + rng.normal(0.0, 0.5, size=3))

    @pytest.mark.parametrize("kind", ["sign_flip", "large_value", "gaussian_noise", "mean_shift"])
    def test_array_and_list_inputs_agree(self, kind):
        ups = uploads(m=6)
        spec = AttackSpec(kind=kind, strength=2.0, alpha=0.3)
        a = corrupt(spec, np.array(ups), frozenset({1, 4}), np.random.default_rng(5))
        b = corrupt(spec, ups, frozenset({1, 4}), np.random.default_rng(5))
        assert isinstance(a, np.ndarray) and a.shape == (6, 3)
        assert np.array_equal(a, b)
        assert np.array_equal(np.delete(a, [1, 4], axis=0), np.delete(np.array(ups), [1, 4], axis=0))


    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_matches_the_delete_oracle_byte_for_byte(self, kind):
        spec = AttackSpec(kind=kind, strength=2.0, alpha=0.4)
        ups = np.random.default_rng(9).standard_normal((20, 40)) ** 3
        for byz in (frozenset(), frozenset({0}), frozenset({19, 3}), frozenset(range(0, 20, 3))):
            out = corrupt(spec, ups, byz, np.random.default_rng(7))
            expected = corrupt_reference(spec, ups, byz, np.random.default_rng(7))
            assert out.tobytes() == expected.tobytes()
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_a_replaced_row_does_not_read_its_own_upload(self, kind):
        # the engine leaves these rows unestimated: their uploads must not matter
        spec = AttackSpec(kind=kind, strength=2.0, alpha=0.3)
        ups = np.random.default_rng(12).standard_normal((10, 4))
        other = ups.copy()
        other[[2, 7]] = 0.0
        a = corrupt(spec, ups, frozenset({2, 7}), np.random.default_rng(1))
        b = corrupt(spec, other, frozenset({2, 7}), np.random.default_rng(1))
        assert np.array_equal(a, b) == (kind in REPLACES_ROW)


class TestAttackSpec:
    def test_alpha_bound(self):
        with pytest.raises(InvalidConfig):
            AttackSpec(kind="sign_flip", strength=5.0, alpha=0.5)

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfig):
            AttackSpec(kind="label_flip")

    def test_negative_strength(self):
        with pytest.raises(InvalidConfig):
            AttackSpec(kind="sign_flip", strength=-1.0)
