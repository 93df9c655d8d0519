import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavyfed import (
    ConfigError,
    aggregate,
    apply_axis,
    config_digest,
    echo_config,
    make_config,
    parse_config,
)
from heavyfed.aggregation import AGGREGATOR_KINDS
from heavyfed.config import ALGORITHMS, PRESETS


def write(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_empty_file_is_valid(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg.algorithm == "robust"
        assert cfg.rounds == 200
        assert cfg.devices == 10
        assert cfg.samples_per_device == 100
        assert cfg.dimension == 10
        assert cfg.repetitions == 10
        assert cfg.attack.kind == "sign_flip"
        assert cfg.attack.alpha == 0.0
        assert cfg.attack.strength == 5.0  # auto resolves to the kind default
        assert cfg.aggregator.beta == pytest.approx(0.05)  # alpha + 0.05
        assert cfg.v == pytest.approx(0.5, abs=2e-4)  # noise variance of the default generator
        assert cfg.space_radius == 10.0
        assert cfg.diameter == 10.0
        assert cfg.lipschitz == 1.0

    def test_defaults_echoed(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[experiment]\nrounds = 5\n"))
        echo = echo_config(cfg)
        assert "rounds = 5" in echo
        assert "algorithm = robust" in echo
        assert "beta = 0.05" in echo  # resolved, not "auto"

    def test_minimal_section_only(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[attack]\nalpha = 0.2\n"))
        assert cfg.attack.alpha == 0.2
        assert cfg.aggregator.beta == pytest.approx(0.25)


class TestValidation:
    def test_alpha_too_large(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha must be < 0.5"):
            parse_config(write(tmp_path, "[attack]\nalpha = 0.6\n"))

    def test_beta_below_alpha(self, tmp_path):
        text = "[attack]\nalpha = 0.3\n[aggregator]\nbeta = 0.2\n"
        with pytest.raises(ConfigError, match="beta must be at least alpha"):
            parse_config(write(tmp_path, text))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write(tmp_path, "[experiment]\nround = 5\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path, "[server]\nx = 1\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            parse_config(tmp_path / "absent.ini")

    def test_mlp_synthetic_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="linear and logistic"):
            parse_config(write(tmp_path, "[model]\nkind = mlp\n[experiment]\neta = 0.01\n"))

    def test_csv_requires_path(self, tmp_path):
        with pytest.raises(ConfigError, match="requires a file path"):
            parse_config(write(tmp_path, "[data]\nsource = csv\n"))

    def test_csv_requires_explicit_v(self, tmp_path):
        text = "[data]\nsource = csv\npath = x.csv\nlabel_column = y\n"
        with pytest.raises(ConfigError, match="estimator.v"):
            parse_config(write(tmp_path, text))

    def test_manual_schedule_needs_both_fields(self):
        with pytest.raises(ConfigError, match="both s and tau"):
            make_config({"estimator.s": 1.0})

    def test_manual_schedule_used(self):
        cfg = make_config({"estimator.s": 1.5, "estimator.tau": 4.0})
        params = cfg.estimator_params(n=100, m=10, d=10)
        assert (params.s, params.tau) == (1.5, 4.0)

    def test_over_trim_rejected(self):
        with pytest.raises(ConfigError, match="leaves no vectors"):
            make_config({"data.devices": 3, "aggregator.beta": 0.4, "attack.alpha": 0.3})

    def test_rule_without_trimming_admits_any_beta_from_alpha(self):
        cfg = make_config({
            "experiment.algorithm": "baseline",
            "aggregator.kind": "mean",
            "data.devices": 3,
            "aggregator.beta": 0.4,
            "attack.alpha": 0.3,
        })
        assert (cfg.aggregator.kind, cfg.aggregator.beta) == ("mean", 0.4)

    def test_robust_preset_refuses_an_infeasible_alpha_whatever_the_kind(self):
        with pytest.raises(ConfigError, match="no feasible trim fraction"):
            make_config({"aggregator.kind": "mean", "attack.alpha": 0.45})

    def test_trim_auto_caps_at_feasible(self):
        from heavyfed.aggregation import trim_count

        cfg = make_config({"data.devices": 4, "attack.alpha": 0.25})
        # ceil(beta * 4) must leave at least one vector after two-sided trim
        assert cfg.aggregator.beta >= 0.25
        assert 4 - 2 * trim_count(cfg.aggregator.beta, 4) >= 1

    def test_bulyan_f_auto_clamped(self):
        cfg = make_config({
            "experiment.algorithm": "baseline",
            "aggregator.kind": "bulyan",
            "attack.alpha": 0.2,
        })
        assert cfg.aggregator.f == 1  # floor(alpha*m) = 2 exceeds (m-3)//4

    def test_krum_f_explicit_too_large(self):
        with pytest.raises(ConfigError, match="floor"):
            make_config({
                "experiment.algorithm": "baseline",
                "aggregator.kind": "krum",
                "aggregator.f": 4,
            })

    def test_rounds_minimum(self):
        with pytest.raises(ConfigError, match=">= 1"):
            make_config({"experiment.rounds": 0})

    def test_unknown_make_config_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            make_config({"experiment.bogus": 1})

    def test_mlp_needs_step_size_information(self):
        with pytest.raises(ConfigError, match="eta or smoothness"):
            make_config({
                "model.kind": "mlp",
                "data.source": "csv",
                "data.path": "x.csv",
                "data.label_column": "y",
                "estimator.v": 1.0,
            })


class TestFeasibility:
    @settings(max_examples=400, deadline=None)
    @given(
        m=st.integers(1, 12),
        alpha=st.floats(0.0, 0.5, exclude_max=True),
        algorithm=st.sampled_from(ALGORITHMS),
        kind=st.sampled_from(AGGREGATOR_KINDS),
        beta=st.one_of(st.just("auto"), st.floats(0.0, 0.5, exclude_max=True)),
        f=st.one_of(st.just("auto"), st.integers(0, 4)),
    )
    @example(m=3, alpha=0.3, algorithm="baseline", kind="mean", beta=0.4, f="auto")
    @example(m=10, alpha=0.45, algorithm="robust", kind="mean", beta="auto", f="auto")
    def test_resolved_rule_aggregates_or_the_config_refuses(self, m, alpha, algorithm, kind, beta, f):
        try:
            cfg = make_config({
                "experiment.algorithm": algorithm,
                "data.devices": m,
                "attack.alpha": alpha,
                "aggregator.kind": kind,
                "aggregator.beta": beta,
                "aggregator.f": f,
            })
        except ConfigError as exc:
            assert str(exc).startswith(("aggregator.beta:", "aggregator.f:")), exc
            return
        assert cfg.aggregator.kind == (PRESETS[algorithm].rule or kind)
        assert aggregate(cfg.aggregator, np.zeros((m, 3))).shape == (3,)


class TestDigest:
    def test_stable_and_sensitive(self):
        a = make_config({"experiment.rounds": 7})
        b = make_config({"experiment.rounds": 7})
        c = make_config({"experiment.rounds": 8})
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)


# Digests of every preset under every aggregator kind at alpha = 0.2, m = 10,
# in the order of _BETA_F: beta and f auto, beta explicit, f explicit, both.
# The echo prints the raw kind and the resolved beta, f and k, so a change to
# how presets resolve their rule must leave every one of these in place.
_BETA_F = (
    {},
    {"aggregator.beta": 0.3},
    {"aggregator.f": 1},
    {"aggregator.beta": 0.3, "aggregator.f": 1},
)
_PINNED_GRID = {
    ("robust", "mean"): ("14eda80c5bcb0d83", "24a1d76851c4ea51", "d692996d22c039d0", "b3ece0dd12331f20"),
    ("robust", "coord_trimmed"): ("e964b937772c0160", "e3582dc3c49f7b6c", "4d3e1e8366585c9d", "0d856046fda113f0"),
    ("robust", "norm_trimmed"): ("ff84a1a4e8e1bb44", "fa9e8893292bbb77", "05fd284f8d66bfaf", "a47069205e07b0c5"),
    ("robust", "coord_median"): ("b6c33a915fd1a688", "6087f235db7cf444", "d5803fe82f764831", "a41257f1721874cb"),
    ("robust", "geo_median"): ("8330eb00e8ccf716", "93520ab4295be8df", "79021ff40807bef5", "28084340a6d4f834"),
    ("robust", "krum"): ("5f4e221c628e377d", "6b13999dfd23a3b4", "85a7d8ab4dbaef59", "52ffbc0432269e6f"),
    ("robust", "bulyan"): ("dcb6aef371ef6149", "a7a25280144af9fc", "e638351017dd043a", "3994d98ac1cb50d1"),
    ("robust", "mkrum"): ("4e045437c56ccf9b", "e85f3d25d31e8055", "2757ec2b60ef750e", "fa21b4f66247851a"),
    ("robust_compressed", "mean"): ("fdeaa5154f546ea3", "01463f8e9201d767", "31c243030e3ce20f", "6d19755e16a53636"),
    ("robust_compressed", "coord_trimmed"): ("cef7cdc86712b8fd", "355408e368e48152", "1e089908fc736b09", "c75324089d80192f"),
    ("robust_compressed", "norm_trimmed"): ("5680f13ca46e6081", "af37f479fc62703e", "37421a33e32adf63", "46fc1e74abb734a6"),
    ("robust_compressed", "coord_median"): ("c9f90b299a283a7a", "97e0e42a20f122f4", "c6f1a4f314f0cf5d", "44f2ad2d0532da72"),
    ("robust_compressed", "geo_median"): ("f7609b5a3830f649", "05b2e0eff487d0fe", "7ce299f742f90435", "b3909aa1d645d33d"),
    ("robust_compressed", "krum"): ("d76cba0404b58463", "8b438c7fac0a9de3", "4f7e43b5472b2f83", "4429bf3ca00a83eb"),
    ("robust_compressed", "bulyan"): ("1541ff6f3d5f623b", "fa90d8a4f7934c87", "a6cc40113e8fcae6", "6f86ea2f00516933"),
    ("robust_compressed", "mkrum"): ("60c0cb4df3b95822", "00f809f853ece36f", "3ec1d21c73938874", "3de761760443e6a4"),
    ("baseline", "mean"): ("d641923cb081eb6e", "2857e3adcf752ec9", "8f8dbeabd37e2a39", "f56a16144c44e4d6"),
    ("baseline", "coord_trimmed"): ("99865b3ce750cd61", "383da692c01bfa6f", "45a1a12d4ce336bb", "86db6637a3653692"),
    ("baseline", "norm_trimmed"): ("5817373f8657c39f", "57e6284d2ee6d4b5", "544eb393cea5f653", "88471fc8e88d6fa6"),
    ("baseline", "coord_median"): ("c6b8a057214cc5c5", "249b8ebe654a7d4a", "bf08ddd91843a7c5", "f0c15fd78ef4f1e6"),
    ("baseline", "geo_median"): ("20465fba37c72e3d", "8b24c0f6d85b8fac", "3d85d3cd2760afb0", "29d74b7b63ddf364"),
    ("baseline", "krum"): ("f3a60bc547634ee3", "ade35808d0a39740", "f347c811193b476c", "68885f4a5ad89e4d"),
    ("baseline", "bulyan"): ("08280d57a36a5a5c", "cdc5a6652cd40588", "08280d57a36a5a5c", "cdc5a6652cd40588"),
    ("baseline", "mkrum"): ("d4912faa1bd46bf4", "b989f7e7253bfe3a", "2a3f53f32595eb4a", "a235b1931e991bf2"),
}
# Points where a cap binds or a setting is configured but unused.
_PINNED_POINTS = {
    "robust-ignored-randk": ({"attack.alpha": 0.2, "compressor.kind": "randk", "compressor.p": 0.3}, "f1a434b044cc0cd4"),
    "robust-explicit-f": ({"attack.alpha": 0.2, "aggregator.f": 3}, "8f35e768f5dd48f1"),
    "robust-m4-capped-beta": ({"data.devices": 4, "attack.alpha": 0.25}, "85f34af98f5bc920"),
    "compressed-m3-capped-beta": (
        {"experiment.algorithm": "robust_compressed", "data.devices": 3, "attack.alpha": 0.45},
        "4ae05f09d76c201c",
    ),
    "baseline-bulyan-m40": (
        {"experiment.algorithm": "baseline", "aggregator.kind": "bulyan", "data.devices": 40, "attack.alpha": 0.2},
        "9565b2dbe1db5801",
    ),
    "baseline-krum-m7": (
        {"experiment.algorithm": "baseline", "aggregator.kind": "krum", "data.devices": 7, "attack.alpha": 0.4},
        "147666b87cfa96e2",
    ),
}


class TestDigestPins:
    def test_grid_covers_every_preset_and_kind(self):
        assert set(_PINNED_GRID) == {(a, k) for a in ALGORITHMS for k in AGGREGATOR_KINDS}

    @pytest.mark.parametrize("algorithm, kind", list(_PINNED_GRID), ids=lambda v: v)
    def test_preset_and_rule_grid(self, algorithm, kind):
        digests = tuple(
            config_digest(make_config({
                "attack.alpha": 0.2,
                "experiment.algorithm": algorithm,
                "aggregator.kind": kind,
                **extra,
            }))
            for extra in _BETA_F
        )
        assert digests == _PINNED_GRID[algorithm, kind]

    @pytest.mark.parametrize("name", list(_PINNED_POINTS))
    def test_single_points(self, name):
        overrides, digest = _PINNED_POINTS[name]
        assert config_digest(make_config(overrides)) == digest


class TestApplyAxis:
    def test_alpha_axis(self):
        cfg = make_config({"attack.alpha": 0.1})
        out = apply_axis(cfg, "alpha", 0.3)
        assert out.attack.alpha == 0.3
        assert out.aggregator.beta == pytest.approx(0.35)  # auto rule re-resolves

    def test_alpha_axis_with_fixed_beta(self):
        cfg = make_config({"aggregator.beta": 0.35})
        out = apply_axis(cfg, "alpha", 0.3)
        assert out.aggregator.beta == 0.35

    def test_n_axis(self):
        cfg = make_config({})
        out = apply_axis(cfg, "N", 4000)
        assert out.samples_per_device == 400
        assert out.devices == 10

    def test_n_axis_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            apply_axis(make_config({}), "N", 1001)

    def test_m_axis_keeps_total(self):
        cfg = make_config({})  # N = 1000
        out = apply_axis(cfg, "m", 20)
        assert out.devices == 20
        assert out.samples_per_device == 50

    def test_sigma_axis(self):
        out = apply_axis(make_config({}), "sigma_x", 0.3)
        assert out.resolved_feature_sigma() == 0.3

    def test_compressor_axis(self):
        cfg = make_config({"experiment.algorithm": "robust_compressed"})
        out = apply_axis(cfg, "compressor", "topk:4")
        assert (out.compressor.kind, out.compressor.k) == ("topk", 4)
        out2 = apply_axis(cfg, "compressor", "l1")
        assert out2.compressor.kind == "l1"

    @pytest.mark.parametrize("algorithm", ["robust", "baseline"])
    def test_compressor_axis_needs_a_preset_with_a_codec(self, algorithm):
        cfg = make_config({"experiment.algorithm": algorithm})
        with pytest.raises(ConfigError, match="sweep.compressor.*dense uploads"):
            apply_axis(cfg, "compressor", "topk:4")

    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="unknown axis"):
            apply_axis(make_config({}), "gamma", 1)
