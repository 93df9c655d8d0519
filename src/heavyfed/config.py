"""Experiment configuration: file format, validation and resolution.

Config files are INI-style text with one section per subsystem.  Every key
has a default, so an empty file is a valid experiment; unknown sections or
keys are errors rather than silently ignored.  ``make_config`` builds the
same object programmatically from ``"section.key"`` overrides.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .adversary import ATTACK_KINDS, AttackSpec, byzantine_count, default_strength
from .aggregation import AGGREGATOR_KINDS, F_QUOTIENT, AggregatorSpec, max_f, max_trim, trim_count
from .compression import COMPRESSOR_KINDS, CompressorSpec
from .datagen import NOISE_KINDS, NoiseSpec
from .errors import ConfigError, InvalidConfig
from .estimator import EstimatorParams, default_params
from .losses import MLP_OBJECTIVES, MODEL_KINDS


@dataclass(frozen=True)
class Preset:
    """What an algorithm plugs into the one round pipeline."""

    variant: str | None  # estimator schedule of the local stage; None: plain shard means
    codec: bool  # uploads go through the configured codec; False: dense uploads
    rule: str | None  # aggregation rule kind; None: the configured aggregator.kind


PRESETS = {
    "robust": Preset("plain", codec=False, rule="coord_trimmed"),
    "robust_compressed": Preset("compressed", codec=True, rule="norm_trimmed"),
    "baseline": Preset(None, codec=False, rule=None),
}
ALGORITHMS = tuple(PRESETS)

# section -> key -> default (as the string the file would contain)
_SCHEMA = {
    "experiment": {
        "algorithm": "robust",
        "rounds": "200",
        "eta": "auto",
        "smoothness": "auto",
        "repetitions": "10",
        "seed": "0",
        "seed_data": "",
        "seed_init": "",
        "seed_adversary": "",
        "space_radius": "10.0",
        "w0": "origin",
        "out_dir": "results",
    },
    "model": {
        "kind": "linear",
        "hidden": "8",
        "objective": "squared",
    },
    "data": {
        "source": "synthetic",
        "d": "10",
        "devices": "10",
        "samples_per_device": "100",
        "test_samples": "200",
        "feature_sigma": "auto",
        "noise": "lognormal",
        "noise_mu": "0.0",
        "noise_sigma": "0.55848",
        "noise_scale": "1.0",
        "noise_shape": "3.26953",
        "path": "",
        "label_column": "",
        "feature_columns": "",
        "standardize": "false",
        "add_bias": "false",
    },
    "estimator": {
        "v": "auto",
        "diameter": "10.0",
        "lipschitz": "1.0",
        "s": "",
        "tau": "",
    },
    "aggregator": {
        "kind": "mean",
        "beta": "auto",
        "f": "auto",
        "momentum": "0.9",
        "tol": "1e-8",
        "max_iter": "1000",
    },
    "attack": {
        "kind": "sign_flip",
        "alpha": "0.0",
        "strength": "auto",
        "dynamic": "false",
    },
    "compressor": {
        "kind": "identity",
        "k": "auto",
        "p": "0.5",
    },
}

_SECTION_ORDER = tuple(_SCHEMA)
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _defaults() -> dict:
    return {f"{s}.{k}": v for s, keys in _SCHEMA.items() for k, v in keys.items()}


def _fail(fieldname, reason):
    raise ConfigError(fieldname, reason)


def _parse_int(name, raw, minimum=None):
    try:
        value = int(raw)
    except ValueError:
        _fail(name, f"expected an integer, got {raw!r}")
    if minimum is not None and value < minimum:
        _fail(name, f"must be >= {minimum}, got {value}")
    return value


def _parse_float(name, raw, positive=False):
    try:
        value = float(raw)
    except ValueError:
        _fail(name, f"expected a number, got {raw!r}")
    if positive and not value > 0.0:
        _fail(name, f"must be > 0, got {value}")
    return value


def _parse_bool(name, raw):
    lowered = str(raw).lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    _fail(name, f"expected a boolean, got {raw!r}")


def _parse_enum(name, raw, choices):
    if raw not in choices:
        _fail(name, f"must be one of {', '.join(choices)}; got {raw!r}")
    return raw


def _parse_auto_float(name, raw, positive=True):
    if raw == "auto":
        return None
    return _parse_float(name, raw, positive=positive)


def _parse_opt_int(name, raw):
    if raw == "":
        return None
    return _parse_int(name, raw, minimum=0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment."""

    algorithm: str
    model_kind: str
    mlp_hidden: int
    mlp_objective: str
    source: str
    dimension: int
    devices: int
    samples_per_device: int
    test_samples: int
    feature_sigma: float | None
    noise: NoiseSpec
    csv_path: str | None
    csv_label: str | None
    csv_features: tuple | None
    csv_standardize: bool
    csv_add_bias: bool
    rounds: int
    eta: float | None
    smoothness: float | None
    space_radius: float
    w0: str
    v: float
    diameter: float
    lipschitz: float
    est_s: float | None
    est_tau: float | None
    aggregator: AggregatorSpec  # the rule the server runs, kind resolved by the preset
    compressor: CompressorSpec
    attack: AttackSpec
    seed: int
    seed_data: int | None
    seed_init: int | None
    seed_adversary: int | None
    repetitions: int
    out_dir: str
    raw: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def preset(self) -> Preset:
        return PRESETS[self.algorithm]

    @property
    def codec(self) -> CompressorSpec:
        """The codec the uploads go through: the configured one, or dense."""
        return self.compressor if self.preset.codec else CompressorSpec()

    def resolved_feature_sigma(self) -> float:
        if self.feature_sigma is not None:
            return self.feature_sigma
        return 3.0 if self.model_kind == "logistic" else 0.78

    def estimator_params(self, n, m, d) -> EstimatorParams | None:
        """Estimator schedule of the local stage, or None where the preset
        uploads plain shard means; manual s/tau overrides win."""
        variant = self.preset.variant
        if variant is None:
            return None
        if self.est_s is not None:
            return EstimatorParams(
                s=self.est_s, tau=self.est_tau, v=self.v, log_inv_zeta=self.est_tau**2 / 2.0
            )
        return default_params(n, m, d, self.v, self.diameter, self.lipschitz, variant)


def _resolve_beta(raw, alpha, m, rule):
    """Trim fraction for the rule that runs: auto is alpha + 0.05 capped at the
    rule's trim limit; a rule that trims nothing admits any beta >= alpha."""
    limit = max_trim(rule, m)
    if raw == "auto":
        if limit is None:
            return alpha
        beta = min(alpha + 0.05, limit / m, 0.499)
        if beta < alpha:
            _fail("aggregator.beta", f"no feasible trim fraction >= alpha={alpha} with m={m} devices")
        return beta
    beta = _parse_float("aggregator.beta", raw)
    if not 0.0 <= beta < 0.5:
        _fail("aggregator.beta", f"beta must lie in [0, 0.5), got {beta}")
    if beta < alpha:
        _fail("aggregator.beta", f"beta must be at least alpha (alpha={alpha}, beta={beta})")
    if limit is not None and trim_count(beta, m) > limit:
        _fail("aggregator.beta", f"trimming at beta={beta} leaves no vectors of m={m}")
    return beta


def _resolve_f(raw, alpha, m, rule):
    """Byzantine count the rule tolerates: auto is floor(alpha * m) capped at its limit."""
    limit = max_f(rule, m)
    if raw != "auto":
        f = _parse_int("aggregator.f", raw, minimum=0)
        if limit is not None and f > limit:
            _fail("aggregator.f", f"f must be <= floor((m - 3) / {F_QUOTIENT[rule]}) for {rule} (m={m}, f={f})")
        return f
    if limit is None:
        return 0
    if limit < 0:
        _fail("aggregator.f", f"{rule} needs more than {m} devices")
    return min(byzantine_count(alpha, m), limit)


def _build(raw: dict) -> ExperimentConfig:
    get = raw.__getitem__

    algorithm = _parse_enum("experiment.algorithm", get("experiment.algorithm"), ALGORITHMS)
    rounds = _parse_int("experiment.rounds", get("experiment.rounds"), minimum=1)
    repetitions = _parse_int("experiment.repetitions", get("experiment.repetitions"), minimum=1)
    seed = _parse_int("experiment.seed", get("experiment.seed"), minimum=0)
    seed_data = _parse_opt_int("experiment.seed_data", get("experiment.seed_data"))
    seed_init = _parse_opt_int("experiment.seed_init", get("experiment.seed_init"))
    seed_adversary = _parse_opt_int("experiment.seed_adversary", get("experiment.seed_adversary"))
    eta = _parse_auto_float("experiment.eta", get("experiment.eta"))
    smoothness = _parse_auto_float("experiment.smoothness", get("experiment.smoothness"))
    space_radius = _parse_float("experiment.space_radius", get("experiment.space_radius"), positive=True)
    w0 = _parse_enum("experiment.w0", get("experiment.w0"), ("origin", "random"))
    out_dir = get("experiment.out_dir")

    model_kind = _parse_enum("model.kind", get("model.kind"), MODEL_KINDS)
    mlp_hidden = _parse_int("model.hidden", get("model.hidden"), minimum=1)
    mlp_objective = _parse_enum("model.objective", get("model.objective"), MLP_OBJECTIVES)

    source = _parse_enum("data.source", get("data.source"), ("synthetic", "csv"))
    dimension = _parse_int("data.d", get("data.d"), minimum=1)
    devices = _parse_int("data.devices", get("data.devices"), minimum=1)
    samples_per_device = _parse_int("data.samples_per_device", get("data.samples_per_device"), minimum=1)
    test_samples = _parse_int("data.test_samples", get("data.test_samples"), minimum=1)
    feature_sigma = _parse_auto_float("data.feature_sigma", get("data.feature_sigma"))

    noise_kind = _parse_enum("data.noise", get("data.noise"), NOISE_KINDS)
    try:
        noise = NoiseSpec(
            kind=noise_kind,
            mu=_parse_float("data.noise_mu", get("data.noise_mu")),
            sigma=_parse_float("data.noise_sigma", get("data.noise_sigma")),
            scale=_parse_float("data.noise_scale", get("data.noise_scale")),
            shape=_parse_float("data.noise_shape", get("data.noise_shape")),
        )
    except InvalidConfig as exc:
        _fail("data.noise", str(exc))

    csv_path = get("data.path") or None
    csv_label = get("data.label_column") or None
    raw_cols = get("data.feature_columns")
    csv_features = tuple(c.strip() for c in raw_cols.split(",") if c.strip()) or None
    csv_standardize = _parse_bool("data.standardize", get("data.standardize"))
    csv_add_bias = _parse_bool("data.add_bias", get("data.add_bias"))

    if source == "synthetic" and model_kind == "mlp":
        _fail("model.kind", "synthetic data generation supports linear and logistic models only")
    if source == "csv":
        if csv_path is None:
            _fail("data.path", "csv source requires a file path")
        if csv_label is None:
            _fail("data.label_column", "csv source requires a label column")
    if model_kind == "mlp" and eta is None and smoothness is None:
        _fail("experiment.eta", "mlp runs need eta or smoothness set explicitly")

    attack_kind = _parse_enum("attack.kind", get("attack.kind"), ATTACK_KINDS)
    alpha = _parse_float("attack.alpha", get("attack.alpha"))
    if not 0.0 <= alpha < 0.5:
        _fail("attack.alpha", f"alpha must be < 0.5 and >= 0 (got {alpha})")
    raw_strength = get("attack.strength")
    strength = default_strength(attack_kind) if raw_strength == "auto" else _parse_float(
        "attack.strength", raw_strength
    )
    dynamic = _parse_bool("attack.dynamic", get("attack.dynamic"))
    try:
        attack = AttackSpec(kind=attack_kind, strength=strength, alpha=alpha, dynamic=dynamic)
    except InvalidConfig as exc:
        _fail("attack", str(exc))

    agg_kind = _parse_enum("aggregator.kind", get("aggregator.kind"), AGGREGATOR_KINDS)
    momentum = _parse_float("aggregator.momentum", get("aggregator.momentum"))
    tol = _parse_float("aggregator.tol", get("aggregator.tol"), positive=True)
    max_iter = _parse_int("aggregator.max_iter", get("aggregator.max_iter"), minimum=1)

    rule = PRESETS[algorithm].rule or agg_kind
    beta = _resolve_beta(get("aggregator.beta"), alpha, devices, rule)
    f = _resolve_f(get("aggregator.f"), alpha, devices, rule)
    try:
        aggregator = AggregatorSpec(kind=rule, beta=beta, f=f, momentum=momentum, tol=tol, max_iter=max_iter)
    except InvalidConfig as exc:
        _fail("aggregator", str(exc))

    comp_kind = _parse_enum("compressor.kind", get("compressor.kind"), COMPRESSOR_KINDS)
    raw_k = get("compressor.k")
    if raw_k == "auto":
        if comp_kind == "topk" and source == "csv":
            _fail("compressor.k", "set k explicitly for csv data (dimension unknown until load)")
        k = max(dimension // 2, 1)
    else:
        k = _parse_int("compressor.k", raw_k, minimum=1)
    p = _parse_float("compressor.p", get("compressor.p"))
    if comp_kind == "topk" and source == "synthetic" and model_kind != "mlp" and k > dimension:
        _fail("compressor.k", f"k={k} exceeds model dimension {dimension}")
    try:
        compressor = CompressorSpec(kind=comp_kind, k=k, p=p)
    except InvalidConfig as exc:
        _fail("compressor", str(exc))

    raw_v = get("estimator.v")
    if raw_v == "auto":
        if source == "csv":
            _fail("estimator.v", "no known moment bound for csv data; set v explicitly")
        v = noise.variance()
    else:
        v = _parse_float("estimator.v", raw_v, positive=True)
    diameter = _parse_float("estimator.diameter", get("estimator.diameter"), positive=True)
    lipschitz = _parse_float("estimator.lipschitz", get("estimator.lipschitz"), positive=True)
    raw_s, raw_tau = get("estimator.s"), get("estimator.tau")
    if (raw_s == "") != (raw_tau == ""):
        _fail("estimator.s", "manual schedule override needs both s and tau")
    est_s = _parse_float("estimator.s", raw_s, positive=True) if raw_s else None
    est_tau = _parse_float("estimator.tau", raw_tau, positive=True) if raw_tau else None

    return ExperimentConfig(
        algorithm=algorithm,
        model_kind=model_kind,
        mlp_hidden=mlp_hidden,
        mlp_objective=mlp_objective,
        source=source,
        dimension=dimension,
        devices=devices,
        samples_per_device=samples_per_device,
        test_samples=test_samples,
        feature_sigma=feature_sigma,
        noise=noise,
        csv_path=csv_path,
        csv_label=csv_label,
        csv_features=csv_features,
        csv_standardize=csv_standardize,
        csv_add_bias=csv_add_bias,
        rounds=rounds,
        eta=eta,
        smoothness=smoothness,
        space_radius=space_radius,
        w0=w0,
        v=v,
        diameter=diameter,
        lipschitz=lipschitz,
        est_s=est_s,
        est_tau=est_tau,
        aggregator=aggregator,
        compressor=compressor,
        attack=attack,
        seed=seed,
        seed_data=seed_data,
        seed_init=seed_init,
        seed_adversary=seed_adversary,
        repetitions=repetitions,
        out_dir=out_dir,
        raw=dict(raw),
    )


def _stringify(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if value is None:
        return ""
    return str(value)


def make_config(overrides=None) -> ExperimentConfig:
    """Build a config from ``{"section.key": value}`` overrides over defaults."""
    raw = _defaults()
    for key, value in (overrides or {}).items():
        if key not in raw:
            raise ConfigError(key, "unknown key")
        raw[key] = _stringify(value)
    return _build(raw)


def parse_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file; unknown keys are errors."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    p = Path(path)
    if not p.is_file():
        raise ConfigError("config", f"file not found: {path}")
    try:
        with open(p, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError("config", f"parse failure: {exc}") from None
    raw = _defaults()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(section, "unknown section")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
            raw[f"{section}.{key}"] = value.strip()
    return _build(raw)


def echo_config(config: ExperimentConfig) -> str:
    """Normalized listing of every key with resolved values."""
    resolved = dict(config.raw)
    resolved["aggregator.beta"] = repr(config.aggregator.beta)
    resolved["aggregator.f"] = str(config.aggregator.f)
    resolved["attack.strength"] = repr(config.attack.strength)
    resolved["estimator.v"] = repr(config.v)
    resolved["data.feature_sigma"] = repr(config.resolved_feature_sigma())
    resolved["compressor.k"] = str(config.compressor.k)
    lines = []
    for section in _SECTION_ORDER:
        lines.append(f"[{section}]")
        for key in _SCHEMA[section]:
            lines.append(f"{key} = {resolved[f'{section}.{key}']}")
        lines.append("")
    return "\n".join(lines)


def config_digest(config: ExperimentConfig) -> str:
    """Stable short digest identifying a resolved configuration."""
    return hashlib.sha256(echo_config(config).encode("utf-8")).hexdigest()[:16]


def apply_axis(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """Rebuild a config with one sweep axis changed; everything else fixed."""
    raw = dict(config.raw)
    if axis == "alpha":
        raw["attack.alpha"] = _stringify(value)
    elif axis == "sigma_x":
        raw["data.feature_sigma"] = _stringify(value)
    elif axis == "N":
        total = _parse_int("sweep.N", _stringify(value), minimum=1)
        if total % config.devices:
            _fail("sweep.N", f"N={total} is not divisible by devices={config.devices}")
        raw["data.samples_per_device"] = str(total // config.devices)
    elif axis == "m":
        m_new = _parse_int("sweep.m", _stringify(value), minimum=1)
        total = config.devices * config.samples_per_device
        if total % m_new:
            _fail("sweep.m", f"N={total} is not divisible by m={m_new}")
        raw["data.devices"] = str(m_new)
        raw["data.samples_per_device"] = str(total // m_new)
    elif axis == "compressor":
        if not config.preset.codec:
            _fail("sweep.compressor", f"{config.algorithm} sends dense uploads; it has no codec to sweep")
        kind, _, param = _stringify(value).partition(":")
        raw["compressor.kind"] = kind
        if param:
            if kind == "topk":
                raw["compressor.k"] = param
            elif kind == "randk":
                raw["compressor.p"] = param
            else:
                _fail("sweep.compressor", f"{kind} takes no parameter, got {param!r}")
    else:
        _fail("sweep.axis", f"unknown axis {axis!r}")
    return _build(raw)
