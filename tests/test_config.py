import pytest

from heavyfed import (
    ConfigError,
    apply_axis,
    config_digest,
    echo_config,
    make_config,
    parse_config,
)


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
        params = cfg.estimator_params(n=100, m=10, d=10, variant="plain")
        assert (params.s, params.tau) == (1.5, 4.0)

    def test_over_trim_rejected(self):
        with pytest.raises(ConfigError, match="leaves no vectors"):
            make_config({"data.devices": 3, "aggregator.beta": 0.4, "attack.alpha": 0.3})

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


class TestDigest:
    def test_stable_and_sensitive(self):
        a = make_config({"experiment.rounds": 7})
        b = make_config({"experiment.rounds": 7})
        c = make_config({"experiment.rounds": 8})
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)


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

    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="unknown axis"):
            apply_axis(make_config({}), "gamma", 1)
