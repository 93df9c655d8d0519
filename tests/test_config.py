import configparser
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavyfed import (
    ConfigError,
    CsvSchema,
    aggregate,
    apply_axis,
    config_digest,
    echo_config,
    make_config,
    parse_config,
    run_experiment,
)
from heavyfed.aggregation import AGGREGATOR_KINDS
from heavyfed.compression import COMPRESSOR_KINDS
from heavyfed.config import ALGORITHMS, KEYS, PRESETS, _ignored, _resolve, axis_value


def write(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return path


# A csv config that builds without its file; a run reads data.csv in the
# working directory, which write_csv makes: 60 rows, 50 for training, 5 per device.
_CSV = {
    "data.source": "csv",
    "data.path": "data.csv",
    "data.label_column": "y",
    "data.test_samples": 10,
    "estimator.v": 1.0,
}


def write_csv(directory):
    rng = np.random.default_rng(0)
    rows = ["a,b,y"] + [f"{a},{b},{a - 2 * b + rng.standard_normal()}" for a, b in rng.standard_normal((60, 2))]
    (directory / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


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
        assert cfg.feature_sigma == 0.78  # auto resolves by model kind

    def test_auto_feature_sigma_of_logistic_models(self):
        cfg = make_config({"model.kind": "logistic"})
        assert cfg.feature_sigma == 3.0
        assert "feature_sigma = 3.0" in echo_config(cfg)

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

    def test_key_before_any_section(self, tmp_path):
        with pytest.raises(ConfigError, match="^config: parse failure"):
            parse_config(write(tmp_path, "rounds = 5\n"))

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

    def test_csv_keys_fill_one_schema(self):
        cfg = make_config({**_CSV, "data.feature_columns": "b, a", "data.standardize": True, "data.add_bias": True})
        assert cfg.csv == CsvSchema(label_column="y", feature_columns=("b", "a"), standardize=True, add_bias=True)
        assert make_config().csv is None

    @pytest.mark.parametrize("overrides", [
        {"experiment.algorithm": "baseline"},
        {"estimator.s": 1.5, "estimator.tau": 4.0},
    ], ids=["baseline", "manual-schedule"])
    def test_csv_without_a_derived_schedule_needs_no_v(self, tmp_path, overrides):
        cfg = make_config({"data.source": "csv", "data.path": "x.csv", "data.label_column": "y", **overrides})
        assert cfg.v is None
        assert "v = auto" in echo_config(cfg)
        assert config_digest(parse_config(write(tmp_path, echo_config(cfg)))) == config_digest(cfg)

    @pytest.mark.parametrize("tau", [1e6, 1e200])
    def test_manual_tau_without_an_estimator_table_is_refused(self, tau):
        with pytest.raises(ConfigError) as info:
            make_config({"estimator.s": 1.0, "estimator.tau": tau})
        assert info.value.field == "estimator.tau"
        assert "estimator table" in str(info.value)

    @pytest.mark.parametrize("v", ["auto", 1.0])
    def test_noise_needs_a_finite_variance_whatever_v(self, v):
        with pytest.raises(ConfigError) as info:
            make_config({"data.noise_mu": 800.0, "estimator.v": v})
        assert info.value.field == "data.noise"

    @pytest.mark.parametrize("overrides, fieldname, reason", [
        (
            {"experiment.algorithm": "baseline", "aggregator.kind": "bulyan", "data.devices": 2},
            "aggregator.f",
            "bulyan needs more than 2 devices",
        ),
        ({"data.source": "csv", "data.path": "x.csv"}, "data.label_column", "csv source requires a label column"),
        (
            {**_CSV, "experiment.algorithm": "robust_compressed", "compressor.kind": "topk"},
            "compressor.k",
            "set k explicitly for csv data (dimension unknown until load)",
        ),
        (
            {**_CSV, "data.feature_columns": "a, y"},
            "data.feature_columns",
            "feature columns name the label column 'y'",
        ),
        ({**_CSV, "data.feature_columns": "a, b, a"}, "data.feature_columns", "feature columns name 'a' more than once"),
        # the variance exp(2 mu + sigma^2) (exp(sigma^2) - 1) underflows to 0.0
        ({"data.noise_mu": -400.0}, "data.noise", "auto v needs a positive noise variance, got 0.0"),
    ], ids=["bulyan-m2", "csv-label", "csv-topk-auto-k", "csv-features-label", "csv-features-repeated", "zero-variance"])
    def test_a_refusal_names_its_key(self, overrides, fieldname, reason):
        with pytest.raises(ConfigError) as info:
            make_config(overrides)
        assert (info.value.field, info.value.reason) == (fieldname, reason)

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
        # mean reads no beta: a valid one is accepted, then resolved as auto (alpha)
        assert (cfg.aggregator.kind, cfg.aggregator.beta) == ("mean", 0.3)

    @pytest.mark.parametrize("overrides, fieldname", [
        ({"compressor.kind": "gzip"}, "compressor.kind"),
        ({"compressor.kind": "topk", "compressor.k": 11}, "compressor.k"),
        ({"aggregator.kind": "median"}, "aggregator.kind"),
        ({"aggregator.f": -1}, "aggregator"),
        ({"experiment.algorithm": "baseline", "aggregator.kind": "krum", "aggregator.beta": 0.1}, "aggregator.beta"),
        ({"aggregator.momentum": 1.5}, "aggregator"),
        ({"experiment.algorithm": "baseline", "estimator.v": -1}, "estimator.v"),
        ({"experiment.algorithm": "baseline", "estimator.s": 1.0, "estimator.tau": 1e6}, "estimator.tau"),
    ])
    def test_ignored_keys_are_still_validated(self, overrides, fieldname):
        with pytest.raises(ConfigError) as info:
            make_config({"attack.alpha": 0.2, **overrides})
        assert info.value.field == fieldname

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

    def test_out_dir_is_not_part_of_the_digest(self):
        # where a run is written does not change what it computes, through
        # experiment.out_dir as through --out
        a = make_config({"experiment.rounds": 7})
        b = make_config({"experiment.rounds": 7, "experiment.out_dir": "elsewhere/runs"})
        assert b.out_dir == "elsewhere/runs"
        assert config_digest(a) == config_digest(b)
        assert "out_dir = elsewhere/runs" in echo_config(b)


# Digests of every preset under every aggregator kind at alpha = 0.2, m = 10,
# in the order of _BETA_F: beta and f auto, beta explicit, f explicit, both.
# The echo prints the resolved beta, f and k, and a key the run does not read
# at its default: the compressor where uploads go dense, aggregator.kind where
# the preset fixes the rule, and f and beta where the rule reads none.  So
# robust and robust_compressed, whose rules read no f, give one digest per
# column under every kind, and a pin moves only where an ignored key is set.
_BETA_F = (
    {},
    {"aggregator.beta": 0.3},
    {"aggregator.f": 1},
    {"aggregator.beta": 0.3, "aggregator.f": 1},
)
_PRESET_COLUMNS = {
    "robust": ("14eda80c5bcb0d83", "24a1d76851c4ea51", "14eda80c5bcb0d83", "24a1d76851c4ea51"),
    "robust_compressed": ("fdeaa5154f546ea3", "01463f8e9201d767", "fdeaa5154f546ea3", "01463f8e9201d767"),
}
_PINNED_GRID = {
    ("baseline", "mean"): ("d641923cb081eb6e", "d641923cb081eb6e", "d641923cb081eb6e", "d641923cb081eb6e"),
    ("baseline", "coord_trimmed"): ("99865b3ce750cd61", "383da692c01bfa6f", "99865b3ce750cd61", "383da692c01bfa6f"),
    ("baseline", "norm_trimmed"): ("5817373f8657c39f", "57e6284d2ee6d4b5", "5817373f8657c39f", "57e6284d2ee6d4b5"),
    ("baseline", "coord_median"): ("c6b8a057214cc5c5", "c6b8a057214cc5c5", "c6b8a057214cc5c5", "c6b8a057214cc5c5"),
    ("baseline", "geo_median"): ("20465fba37c72e3d", "20465fba37c72e3d", "20465fba37c72e3d", "20465fba37c72e3d"),
    ("baseline", "krum"): ("f3a60bc547634ee3", "f3a60bc547634ee3", "f347c811193b476c", "f347c811193b476c"),
    ("baseline", "bulyan"): ("08280d57a36a5a5c", "08280d57a36a5a5c", "08280d57a36a5a5c", "08280d57a36a5a5c"),
    ("baseline", "mkrum"): ("d4912faa1bd46bf4", "d4912faa1bd46bf4", "2a3f53f32595eb4a", "2a3f53f32595eb4a"),
}
# Points where a cap binds or a setting is configured but unused.
_PINNED_POINTS = {
    "robust-ignored-randk": ({"attack.alpha": 0.2, "compressor.kind": "randk", "compressor.p": 0.3}, "14eda80c5bcb0d83"),
    "robust-explicit-f": ({"attack.alpha": 0.2, "aggregator.f": 3}, "14eda80c5bcb0d83"),
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
_GRID = [(algorithm, kind) for algorithm in ALGORITHMS for kind in AGGREGATOR_KINDS]


def _grid_overrides(algorithm, kind, extra):
    return {"attack.alpha": 0.2, "experiment.algorithm": algorithm, "aggregator.kind": kind, **extra}


class TestDigestPins:
    def test_grid_covers_every_preset_and_kind(self):
        assert set(_PRESET_COLUMNS) == {a for a in ALGORITHMS if PRESETS[a].rule is not None}
        assert set(_PINNED_GRID) | {(a, k) for a in _PRESET_COLUMNS for k in AGGREGATOR_KINDS} == set(_GRID)

    @pytest.mark.parametrize("algorithm, kind", _GRID, ids=lambda v: v)
    def test_preset_and_rule_grid(self, algorithm, kind):
        digests = tuple(config_digest(make_config(_grid_overrides(algorithm, kind, extra))) for extra in _BETA_F)
        expected = _PRESET_COLUMNS[algorithm] if algorithm in _PRESET_COLUMNS else _PINNED_GRID[algorithm, kind]
        assert digests == expected

    @pytest.mark.parametrize("name", list(_PINNED_POINTS))
    def test_single_points(self, name):
        overrides, digest = _PINNED_POINTS[name]
        assert config_digest(make_config(overrides)) == digest


_MANUAL = {"estimator.s": 1.5, "estimator.tau": 4.0}
# For each key a run can leave unread: a config under which it is unread, and
# a change of that key (s and tau change together, as one manual schedule).
_UNREAD = {
    "aggregator.kind": ({}, {"aggregator.kind": "krum"}),
    "aggregator.beta": ({"experiment.algorithm": "baseline"}, {"aggregator.beta": 0.3}),
    "aggregator.f": ({}, {"aggregator.f": 1}),
    "aggregator.momentum": ({"experiment.algorithm": "baseline", "aggregator.kind": "krum"}, {"aggregator.momentum": 0.5}),
    "aggregator.tol": ({}, {"aggregator.tol": 1e-3}),
    "aggregator.max_iter": ({}, {"aggregator.max_iter": 5}),
    "compressor.kind": ({}, {"compressor.kind": "randk"}),
    "compressor.k": ({"experiment.algorithm": "robust_compressed", "compressor.kind": "randk"}, {"compressor.k": 3}),
    "compressor.p": ({"experiment.algorithm": "robust_compressed", "compressor.kind": "topk"}, {"compressor.p": 0.3}),
    "estimator.v": (_MANUAL, {"estimator.v": 3.0}),
    "estimator.diameter": (_MANUAL, {"estimator.diameter": 5.0}),
    "estimator.lipschitz": ({"experiment.algorithm": "baseline"}, {"estimator.lipschitz": 2.0}),
    "estimator.s": ({"experiment.algorithm": "baseline"}, _MANUAL),
    "model.hidden": ({}, {"model.hidden": 3}),
    "model.objective": ({}, {"model.objective": "logistic"}),
    "experiment.smoothness": ({"experiment.eta": 0.05}, {"experiment.smoothness": 40.0}),
    "experiment.seed_init": ({}, {"experiment.seed_init": 5}),
    "data.noise_scale": ({}, {"data.noise_scale": 2.0}),
    "data.noise_shape": ({}, {"data.noise_shape": 4.0}),
    "data.noise_mu": ({"data.noise": "pareto"}, {"data.noise_mu": 0.3}),
    "data.noise_sigma": ({"data.noise": "pareto"}, {"data.noise_sigma": 0.4}),
    "attack.kind": ({}, {"attack.kind": "gaussian_noise"}),
    "attack.strength": ({"attack.alpha": 0.05}, {"attack.strength": 2.0}),  # floor(0.05 * 10) = 0
    "attack.dynamic": ({}, {"attack.dynamic": True}),
    "data.d": (_CSV, {"data.d": 3}),
    "data.samples_per_device": (_CSV, {"data.samples_per_device": 50}),
    "data.feature_sigma": (_CSV, {"data.feature_sigma": 0.5}),
    "data.noise": (_CSV, {"data.noise": "pareto"}),
    "data.path": ({}, {"data.path": "other.csv"}),
    "data.label_column": ({}, {"data.label_column": "y"}),
    "data.feature_columns": ({}, {"data.feature_columns": "a,b"}),
    "data.standardize": ({}, {"data.standardize": True}),
    "data.add_bias": ({}, {"data.add_bias": True}),
}

# Unread keys that _resolve itself leaves out of the config it builds.
_RESOLVED_AWAY = (
    "aggregator.kind",
    "compressor.kind",
    "data.label_column",
    "data.feature_columns",
    "data.standardize",
    "data.add_bias",
)


class TestUnreadKeys:
    def test_every_key_a_run_can_leave_unread_has_a_case(self):
        bases = ({}, _MANUAL, {"experiment.eta": 0.05}, {"data.noise": "pareto"}, {**_CSV, "compressor.k": 3})
        unread = set()
        for algorithm in ALGORITHMS:
            for kind in AGGREGATOR_KINDS:
                for codec in COMPRESSOR_KINDS:
                    for manual in bases:
                        overrides = {"experiment.algorithm": algorithm, "aggregator.kind": kind, "compressor.kind": codec}
                        unread |= set(_ignored(make_config({**overrides, **manual})))
        assert unread == {key for _, change in _UNREAD.values() for key in change}

    @pytest.mark.parametrize("key", list(_UNREAD))
    def test_an_unread_key_moves_neither_the_digest_nor_the_run(self, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        write_csv(tmp_path)
        base, change = _UNREAD[key]
        small = {"experiment.rounds": 2, "experiment.repetitions": 1, "data.samples_per_device": 20, **base}
        configs = {"plain": make_config(small), "changed": make_config({**small, **change})}
        assert config_digest(configs["changed"]) == config_digest(configs["plain"])
        # resolved without the reset to defaults, the spec carries the change,
        # and the run must still not read it; a kind the preset fixes is taken
        # from the preset by _resolve itself, and synthetic data builds no csv
        # schema, so those configs equal the plain one
        configs["carried"] = _resolve({**configs["plain"].raw, **{k: str(v) for k, v in change.items()}})
        assert (configs["carried"] == configs["plain"]) == (key in _RESOLVED_AWAY)
        for name, cfg in configs.items():
            run_experiment(cfg, tmp_path / name)
        assert len({(tmp_path / name / "rounds.csv").read_bytes() for name in configs}) == 1


# Each key is set alone to each of these.  A float key must refuse the values
# in _NON_FINITE, which float() reads as inf or nan.
_PROBES = ("", "auto", "0", "-1", "1e5", "1e400", "inf", "nan", "abc", "true")
_NON_FINITE = ("1e400", "inf", "nan")


def _reads_a_float(key):
    try:
        return isinstance(KEYS[key].parse("0.5"), float)
    except ValueError:
        return False


class TestKeyTable:
    @pytest.mark.parametrize("key", list(KEYS))
    def test_each_value_builds_or_is_refused(self, key):
        for raw in _PROBES:
            try:
                make_config({key: raw})
            except ConfigError:
                continue
            assert not (raw in _NON_FINITE and _reads_a_float(key)), f"{key} = {raw} accepted"

    def test_echo_parses_back_to_the_same_digest(self, tmp_path):
        cases = [
            *(_grid_overrides(a, k, extra) for a, k in _GRID for extra in _BETA_F),
            *(overrides for overrides, _ in _PINNED_POINTS.values()),
            {},
            {
                "data.source": "csv",
                "data.path": "x.csv",
                "data.label_column": "y",
                "data.feature_columns": "a, b",
                "data.standardize": True,
                "estimator.v": 2.0,
            },
            {"data.noise": "pareto", "data.noise_scale": 2.0, "data.noise_shape": 4.0},
            {"estimator.s": 1.5, "estimator.tau": 4.0},
            # the ends of the tau range: degree 7, and degree 6 by the check's margin
            {"estimator.s": 1.0, "estimator.tau": 1e-4},
            {"estimator.s": 1.0, "estimator.tau": 29173.084879937058},
        ]
        assert len(cases) == 108
        for overrides in cases:
            cfg = make_config(overrides)
            assert config_digest(parse_config(write(tmp_path, echo_config(cfg)))) == config_digest(cfg), overrides

    def test_readme_lists_every_key_at_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
        parser.read_string(block)
        listed = [(f"{s}.{k}", v) for s in parser.sections() for k, v in parser.items(s)]
        assert listed == [(key, row.default) for key, row in KEYS.items()]


# Sweep points: base configs, and per axis a value and the keys a config file
# would set to it.  The compressor axis needs the preset with a codec.
_SWEEP_BASES = {
    "default": {},
    "compressed": {
        "experiment.algorithm": "robust_compressed",
        "aggregator.beta": 0.2,
        "aggregator.kind": "krum",
        "compressor.k": 3,
        "compressor.p": 0.3,
    },
    "baseline": {
        "experiment.algorithm": "baseline",
        "aggregator.kind": "coord_median",
        "attack.alpha": 0.05,
        "attack.kind": "gaussian_noise",
        "data.noise": "pareto",
    },
    "csv": _CSV,
}
_SWEEP_POINTS = [
    ("experiment.algorithm", "baseline", {"experiment.algorithm": "baseline"}),
    ("attack.kind", "large_value", {"attack.kind": "large_value"}),
    ("data.noise_sigma", 1.5, {"data.noise_sigma": 1.5}),
    ("aggregator.kind", "geo_median", {"aggregator.kind": "geo_median"}),
    ("alpha", "0.20", {"attack.alpha": 0.2}),
    ("sigma_x", 0.5, {"data.feature_sigma": 0.5}),
    ("experiment.eta", "auto", {"experiment.eta": "auto"}),
    ("N", 2000, {"data.samples_per_device": 200}),
    ("m", 20, {"data.devices": 20, "data.samples_per_device": 50}),
    ("data.devices", 5, {"data.devices": 5}),
]
_SWEEP_CASES = [(base, *point) for base in _SWEEP_BASES for point in _SWEEP_POINTS] + [
    ("compressed", "compressor", "randk", {"compressor.kind": "randk"}),
    ("compressed", "compressor", "topk:4", {"compressor.kind": "topk", "compressor.k": 4}),
]
# Where a point does not read a key its axis writes, every value would run the
# same, so the sweep refuses the axis and names that key.
_UNREAD_AXES = {
    **{(base, "attack.kind"): "attack.kind" for base in _SWEEP_BASES},  # floor(alpha * m) = 0
    **{(base, "aggregator.kind"): "aggregator.kind" for base in ("default", "compressed", "csv")},  # preset's rule
    ("baseline", "data.noise_sigma"): "data.noise_sigma",  # pareto noise
    ("csv", "data.noise_sigma"): "data.noise_sigma",
    ("csv", "sigma_x"): "data.feature_sigma",
    ("csv", "N"): "data.samples_per_device",
    ("csv", "m"): "data.samples_per_device",
}
_READ_CASES = [case for case in _SWEEP_CASES if case[:2] not in _UNREAD_AXES]
_REFUSED_CASES = [(*case[:3], _UNREAD_AXES[case[:2]]) for case in _SWEEP_CASES if case[:2] in _UNREAD_AXES]


class TestApplyAxis:
    @pytest.mark.parametrize(
        "base, axis, value, written", _READ_CASES, ids=[f"{b}-{a}={v}" for b, a, v, _ in _READ_CASES]
    )
    def test_a_point_is_the_config_with_the_value_written_in(self, base, axis, value, written):
        point = apply_axis(make_config(_SWEEP_BASES[base]), axis, value)
        written_in = make_config({**_SWEEP_BASES[base], **written})
        assert point == written_in
        assert config_digest(point) == config_digest(written_in)

    @pytest.mark.parametrize(
        "base, axis, value, key", _REFUSED_CASES, ids=[f"{b}-{a}={v}" for b, a, v, _ in _REFUSED_CASES]
    )
    def test_a_point_that_does_not_read_the_axis_is_refused(self, base, axis, value, key):
        with pytest.raises(ConfigError) as info:
            apply_axis(make_config(_SWEEP_BASES[base]), axis, value)
        assert (info.value.field, info.value.reason) == (
            f"sweep.{axis}",
            f"{axis}={value} sets {key}, which the run does not read",
        )

    @pytest.mark.parametrize("axis, value", [("m", 7), ("N", 1001)])
    def test_csv_refuses_a_sample_count_before_dividing_it(self, axis, value):
        # the file sets the total, so no divisibility message may name one
        with pytest.raises(ConfigError) as info:
            apply_axis(make_config(_CSV), axis, value)
        assert (info.value.field, info.value.reason) == (
            f"sweep.{axis}",
            f"{axis}={value} sets data.samples_per_device, which the run does not read",
        )

    @pytest.mark.parametrize(
        "axis, value, read",
        [
            ("alpha", "0", 0.0),
            ("m", "20", 20),
            ("attack.dynamic", "yes", True),
            ("experiment.eta", "auto", "auto"),
            ("data.feature_columns", "a", "a"),
            ("compressor", "topk:4", "topk:4"),
        ],
    )
    def test_a_value_is_recorded_as_its_axis_reads_it(self, axis, value, read):
        recorded = axis_value(axis, value)
        assert (type(recorded), recorded) == (type(read), read)

    def test_compressor_axis_keeps_the_parameters_the_identity_codec_left_unread(self):
        cfg = make_config(_SWEEP_BASES["compressed"])
        assert cfg.compressor.kind == "identity"
        assert apply_axis(cfg, "compressor", "topk").compressor.k == 3
        assert apply_axis(cfg, "compressor", "randk").compressor.p == 0.3

    def test_m_axis_keeps_the_attack_of_a_config_with_no_byzantine_device(self):
        cfg = make_config({"attack.alpha": 0.05, "attack.kind": "gaussian_noise"})  # floor(0.05 * 10) = 0
        out = apply_axis(cfg, "m", 20)
        assert (out.attack.kind, out.devices, out.samples_per_device) == ("gaussian_noise", 20, 50)

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
        assert out.feature_sigma == 0.3

    def test_compressor_axis(self):
        cfg = make_config({"experiment.algorithm": "robust_compressed"})
        out = apply_axis(cfg, "compressor", "topk:4")
        assert (out.compressor.kind, out.compressor.k) == ("topk", 4)
        out2 = apply_axis(cfg, "compressor", "l1")
        assert out2.compressor.kind == "l1"

    @pytest.mark.parametrize("algorithm", ["robust", "baseline"])
    def test_compressor_axis_needs_a_preset_with_a_codec(self, algorithm):
        cfg = make_config({"experiment.algorithm": algorithm})
        with pytest.raises(ConfigError, match="^sweep.compressor: .* sets compressor.kind, compressor.k, which"):
            apply_axis(cfg, "compressor", "topk:4")

    def test_compressor_axis_refuses_a_parameter_of_a_kind_that_takes_none(self):
        cfg = make_config({"experiment.algorithm": "robust_compressed"})
        with pytest.raises(ConfigError, match="^sweep.compressor: l1 takes no parameter, got '3'"):
            apply_axis(cfg, "compressor", "l1:3")

    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="unknown axis"):
            apply_axis(make_config({}), "gamma", 1)
