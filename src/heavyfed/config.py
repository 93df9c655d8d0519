"""Experiment configuration: file format, validation and resolution.

Config files are INI-style text with one section per subsystem.  One table,
``KEYS``, declares every ``section.key``: its default as the file spells it,
the parser that checks it, and the ``ExperimentConfig`` field it fills.  An
empty file is therefore a valid experiment; unknown sections or keys are
errors rather than silently ignored.  ``make_config`` builds the same object
programmatically from ``"section.key"`` overrides.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path
from typing import Callable, NamedTuple

from .adversary import ATTACK_KINDS, DEFAULT_STRENGTH, AttackSpec, byzantine_count
from .aggregation import AGGREGATOR_KINDS, RULES, AggregatorSpec, max_f, max_trim, trim_count
from .compression import COMPRESSOR_KINDS, COMPRESSOR_READS, CompressorSpec
from .datagen import NOISE_KINDS, NOISE_READS, CsvSchema, NoiseSpec
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


# Parsers read a key's text and return its value, or raise ValueError with
# the reason; _parse names the key.  Ranges that a spec checks are left to it.


def _int(minimum=None):
    def parse(raw):
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}") from None
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _positive(raw):
    value = _float(raw)
    if value <= 0.0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def _enum(*choices):
    def parse(raw):
        if raw not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}; got {raw!r}")
        return raw

    return parse


def _bool(raw):
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _text(raw):
    return raw


def _columns(raw):
    return tuple(c.strip() for c in raw.split(",") if c.strip()) or None


def _auto(parse):
    """``auto`` reads as None: the value is derived from the rest of the config."""
    return lambda raw: None if raw == "auto" else parse(raw)


def _blank(parse):
    """A blank value reads as None: unset."""
    return lambda raw: None if raw == "" else parse(raw)


# Each data source and the [data] keys it reads besides source, devices and
# test_samples, which both read; synthetic data also reads its noise kind's NOISE_READS.
SOURCE_READS = {
    "synthetic": ("d", "samples_per_device", "feature_sigma", "noise"),
    "csv": ("path", "label_column", "feature_columns", "standardize", "add_bias"),
}


class Key(NamedTuple):
    default: str  # as the file spells it
    parse: Callable[[str], object]
    field: str | None = None  # ExperimentConfig field; None: _resolve combines or derives it


KEYS = {
    "experiment.algorithm": Key("robust", _enum(*ALGORITHMS), "algorithm"),
    "experiment.rounds": Key("200", _int(1), "rounds"),
    "experiment.eta": Key("auto", _auto(_positive), "eta"),
    "experiment.smoothness": Key("auto", _auto(_positive), "smoothness"),
    "experiment.repetitions": Key("10", _int(1), "repetitions"),
    "experiment.seed": Key("0", _int(0), "seed"),
    "experiment.seed_data": Key("", _blank(_int(0)), "seed_data"),
    "experiment.seed_init": Key("", _blank(_int(0)), "seed_init"),
    "experiment.seed_adversary": Key("", _blank(_int(0)), "seed_adversary"),
    "experiment.space_radius": Key("10.0", _positive, "space_radius"),
    "experiment.w0": Key("origin", _enum("origin", "random"), "w0"),
    "experiment.out_dir": Key("results", _text, "out_dir"),
    "model.kind": Key("linear", _enum(*MODEL_KINDS), "model_kind"),
    "model.hidden": Key("8", _int(1), "mlp_hidden"),
    "model.objective": Key("squared", _enum(*MLP_OBJECTIVES), "mlp_objective"),
    "data.source": Key("synthetic", _enum(*SOURCE_READS), "source"),
    "data.d": Key("10", _int(1), "dimension"),
    "data.devices": Key("10", _int(1), "devices"),
    "data.samples_per_device": Key("100", _int(1), "samples_per_device"),
    "data.test_samples": Key("200", _int(1), "test_samples"),
    "data.feature_sigma": Key("auto", _auto(_positive)),
    "data.noise": Key("lognormal", _enum(*NOISE_KINDS)),
    "data.noise_mu": Key("0.0", _float),
    "data.noise_sigma": Key("0.55848", _float),
    "data.noise_scale": Key("1.0", _float),
    "data.noise_shape": Key("3.26953", _float),
    "data.path": Key("", _blank(_text), "csv_path"),
    "data.label_column": Key("", _blank(_text)),
    "data.feature_columns": Key("", _columns),
    "data.standardize": Key("false", _bool),
    "data.add_bias": Key("false", _bool),
    "estimator.v": Key("auto", _auto(_positive)),
    "estimator.diameter": Key("10.0", _positive, "diameter"),
    "estimator.lipschitz": Key("1.0", _positive, "lipschitz"),
    "estimator.s": Key("", _blank(_positive)),
    "estimator.tau": Key("", _blank(_positive)),
    "aggregator.kind": Key("mean", _enum(*AGGREGATOR_KINDS)),
    "aggregator.beta": Key("auto", _auto(_float)),
    "aggregator.f": Key("auto", _auto(_int())),
    "aggregator.momentum": Key("0.9", _float),
    "aggregator.tol": Key("1e-8", _float),
    "aggregator.max_iter": Key("1000", _int()),
    "attack.kind": Key("sign_flip", _enum(*ATTACK_KINDS)),
    "attack.alpha": Key("0.0", _float),
    "attack.strength": Key("auto", _auto(_float)),
    "attack.dynamic": Key("false", _bool),
    "compressor.kind": Key("identity", _enum(*COMPRESSOR_KINDS)),
    "compressor.k": Key("auto", _auto(_int())),
    "compressor.p": Key("0.5", _float),
}


def _defaults() -> dict:
    return {key: row.default for key, row in KEYS.items()}


def _fail(fieldname, reason):
    raise ConfigError(fieldname, reason)


def _checked(fieldname, spec, **args):
    """``spec(**args)``, its InvalidConfig reported as a ConfigError on ``fieldname``."""
    try:
        return spec(**args)
    except InvalidConfig as exc:
        raise ConfigError(fieldname, str(exc)) from None


def _parse(key, parse, raw):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


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
    feature_sigma: float
    noise: NoiseSpec
    csv_path: str | None
    csv: CsvSchema | None  # None: synthetic data
    rounds: int
    eta: float | None
    smoothness: float | None
    space_radius: float
    w0: str
    v: float | None  # None: auto v on csv data where the run reads no v
    diameter: float
    lipschitz: float
    manual_schedule: EstimatorParams | None  # the manual s/tau; None: derived from v
    aggregator: AggregatorSpec  # the rule the server runs, kind resolved by the preset
    compressor: CompressorSpec  # identity where the preset sends dense uploads
    attack: AttackSpec
    seed: int
    seed_data: int | None
    seed_init: int | None
    seed_adversary: int | None
    repetitions: int
    out_dir: str
    raw: dict = field(repr=False, compare=False, default_factory=dict)  # every key as given

    @property
    def preset(self) -> Preset:
        return PRESETS[self.algorithm]

    def estimator_params(self, n, m, d) -> EstimatorParams | None:
        """Estimator schedule of the local stage, or None where the preset
        uploads plain shard means; a manual s/tau schedule wins."""
        variant = self.preset.variant
        if variant is None:
            return None
        if self.manual_schedule is not None:
            return self.manual_schedule
        return default_params(n, m, d, self.v, self.diameter, self.lipschitz, variant)


def _derives_schedule(preset: Preset, manual_schedule) -> bool:
    """Whether the run reads estimator.v, diameter and lipschitz to derive s and tau."""
    return preset.variant is not None and manual_schedule is None


def _resolve_beta(beta, alpha, m, rule):
    """Trim fraction for the rule that runs: auto (None) is alpha + 0.05 capped
    at the rule's trim limit; a rule that trims nothing admits any beta >= alpha.
    ``trim_count`` and the spec refuse a beta outside [0, 0.5)."""
    limit = max_trim(rule, m)
    if beta is None:
        if limit is None:
            return alpha
        beta = min(alpha + 0.05, limit / m, 0.499)
        if beta < alpha:
            _fail("aggregator.beta", f"no feasible trim fraction >= alpha={alpha} with m={m} devices")
        return beta
    if beta < alpha:
        _fail("aggregator.beta", f"beta must be at least alpha (alpha={alpha}, beta={beta})")
    if limit is not None and trim_count(beta, m) > limit:
        _fail("aggregator.beta", f"trimming at beta={beta} leaves no vectors of m={m}")
    return beta


def _resolve_f(f, alpha, m, rule):
    """Byzantine count the rule tolerates: auto (None) is floor(alpha * m) capped at its limit."""
    limit = max_f(rule, m)
    if f is not None:
        if limit is not None and f > limit:
            _fail("aggregator.f", f"f must be <= floor((m - 3) / {RULES[rule].f_quotient}) for {rule} (m={m}, f={f})")
        return f
    if limit is None:
        return 0
    if limit < 0:
        _fail("aggregator.f", f"{rule} needs more than {m} devices")
    return min(byzantine_count(alpha, m), limit)


def _resolve(raw: dict) -> ExperimentConfig:
    value = {key: _parse(key, row.parse, raw[key]) for key, row in KEYS.items()}
    source, model_kind, d, m = value["data.source"], value["model.kind"], value["data.d"], value["data.devices"]
    preset = PRESETS[value["experiment.algorithm"]]

    if source == "synthetic" and model_kind == "mlp":
        _fail("model.kind", "synthetic data generation supports linear and logistic models only")
    csv = None
    if source == "csv":
        if value["data.path"] is None:
            _fail("data.path", "csv source requires a file path")
        if value["data.label_column"] is None:
            _fail("data.label_column", "csv source requires a label column")
        # each CsvSchema field is filled by the [data] key of its name
        csv = _checked("data.feature_columns", CsvSchema, **{f.name: value[f"data.{f.name}"] for f in fields(CsvSchema)})
    if model_kind == "mlp" and value["experiment.eta"] is None and value["experiment.smoothness"] is None:
        _fail("experiment.eta", "mlp runs need eta or smoothness set explicitly")
    s, tau = value["estimator.s"], value["estimator.tau"]
    if (s is None) != (tau is None):
        _fail("estimator.s", "manual schedule override needs both s and tau")
    manual_schedule = None if s is None else _checked("estimator.tau", EstimatorParams, s=s, tau=tau)

    noise = _checked(
        "data.noise",
        NoiseSpec,
        kind=value["data.noise"],
        mu=value["data.noise_mu"],
        sigma=value["data.noise_sigma"],
        scale=value["data.noise_scale"],
        shape=value["data.noise_shape"],
    )
    feature_sigma = value["data.feature_sigma"]
    if feature_sigma is None:
        feature_sigma = 3.0 if model_kind == "logistic" else 0.78
    v = value["estimator.v"]
    if v is None and source == "synthetic":
        v = noise.variance()
        if not v > 0.0:
            _fail("data.noise", f"auto v needs a positive noise variance, got {v}")
    if v is None and _derives_schedule(preset, manual_schedule):
        _fail("estimator.v", "no known moment bound for csv data; set v explicitly")

    attack_kind, strength = value["attack.kind"], value["attack.strength"]
    attack = _checked(
        "attack",
        AttackSpec,
        kind=attack_kind,
        strength=DEFAULT_STRENGTH[attack_kind] if strength is None else strength,
        alpha=value["attack.alpha"],
        dynamic=value["attack.dynamic"],
    )

    rule = preset.rule or value["aggregator.kind"]
    try:
        aggregator = AggregatorSpec(
            kind=rule,
            beta=_resolve_beta(value["aggregator.beta"], attack.alpha, m, rule),
            f=_resolve_f(value["aggregator.f"], attack.alpha, m, rule),
            momentum=value["aggregator.momentum"],
            tol=value["aggregator.tol"],
            max_iter=value["aggregator.max_iter"],
        )
    except InvalidConfig as exc:
        _fail("aggregator", str(exc))

    comp_kind, k = value["compressor.kind"], value["compressor.k"]
    if k is None:
        if comp_kind == "topk" and source == "csv":
            _fail("compressor.k", "set k explicitly for csv data (dimension unknown until load)")
        k = max(d // 2, 1)
    if comp_kind == "topk" and source == "synthetic" and k > d:
        _fail("compressor.k", f"k={k} exceeds model dimension {d}")
    compressor = _checked("compressor", CompressorSpec, kind=comp_kind, k=k, p=value["compressor.p"])
    if not preset.codec:  # validated above, but a dense preset uploads identity
        compressor = CompressorSpec(k=compressor.k, p=compressor.p)

    filled = {row.field: value[key] for key, row in KEYS.items() if row.field}
    return ExperimentConfig(
        **filled, csv=csv, feature_sigma=feature_sigma, noise=noise, v=v, manual_schedule=manual_schedule,
        aggregator=aggregator, compressor=compressor, attack=attack, raw=dict(raw)
    )


def _unread(section, reads) -> list:
    """The keys of ``section``, its kind aside, that name no field in ``reads``."""
    return [key for key in KEYS if key.partition(".")[0] == section and key.partition(".")[2] not in ("kind", *reads)]


def _ignored(config: ExperimentConfig) -> list:
    """Keys the run does not read, from what the preset, the rule, the codec,
    the data source, the noise and the estimator schedule declare."""
    preset = config.preset
    keys = _unread("aggregator", RULES[config.aggregator.kind].reads)
    keys += _unread("compressor", COMPRESSOR_READS[config.compressor.kind])
    if preset.rule is not None:
        keys.append("aggregator.kind")
    if not preset.codec:
        keys.append("compressor.kind")
    if preset.variant is None:
        keys += _unread("estimator", ())
    elif not _derives_schedule(preset, config.manual_schedule):
        keys += _unread("estimator", [f.name for f in fields(EstimatorParams)])
    keys += ["model.hidden", "model.objective"] if config.model_kind != "mlp" else []
    noise = [f"noise_{name}" for name in NOISE_READS[config.noise.kind]] if config.source == "synthetic" else []
    keys += _unread("data", ("source", "devices", "test_samples", *SOURCE_READS[config.source], *noise))
    keys += ["experiment.smoothness"] if config.eta is not None else []  # only an auto eta reads it
    keys += ["experiment.seed_init"] if config.w0 == "origin" else []  # only a random w0 draws from it
    if byzantine_count(config.attack.alpha, config.devices) == 0:  # no device attacks
        keys += ["attack.kind", *_unread("attack", ("alpha",))]
    return keys


def _build(raw: dict) -> ExperimentConfig:
    """Resolve ``raw``.  A key the run does not read is still validated, then
    resolved at its default, as the echo and the digest show it; ``raw`` keeps it."""
    config = _resolve(raw)
    read = {**raw, **{key: KEYS[key].default for key in _ignored(config)}}
    return config if read == raw else replace(_resolve(read), raw=dict(raw))


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
    sections = {key.partition(".")[0] for key in KEYS}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(section, "unknown section")
        for key, value in parser.items(section):
            name = f"{section}.{key}"
            if name not in KEYS:
                raise ConfigError(name, "unknown key")
            raw[name] = value.strip()
    return _build(raw)


def echo_config(config: ExperimentConfig) -> str:
    """Normalized listing of every key with resolved values, unread keys at their defaults."""
    resolved = {
        **config.raw,
        **{key: KEYS[key].default for key in _ignored(config)},
        "aggregator.beta": repr(config.aggregator.beta),
        "aggregator.f": str(config.aggregator.f),
        "attack.strength": repr(config.attack.strength),
        "estimator.v": "auto" if config.v is None else repr(config.v),
        "data.feature_sigma": repr(config.feature_sigma),
        "compressor.k": str(config.compressor.k),
    }
    lines = []
    for section, keys in groupby(KEYS, key=lambda key: key.partition(".")[0]):
        lines.append(f"[{section}]")
        lines += [f"{key.partition('.')[2]} = {resolved[key]}" for key in keys]
        lines.append("")
    return "\n".join(lines)


def config_digest(config: ExperimentConfig) -> str:
    """Stable short digest identifying a resolved configuration, wherever its run is written."""
    echo = echo_config(replace(config, raw={**config.raw, "experiment.out_dir": KEYS["experiment.out_dir"].default}))
    return hashlib.sha256(echo.encode("utf-8")).hexdigest()[:16]


_ALIASES = {"alpha": "attack.alpha", "sigma_x": "data.feature_sigma"}  # axis names of two keys, and CSV headers


def axis_value(axis: str, value):
    """``value`` as sweep ``axis`` reads it: checked by the key's own parser, or a count for N and m."""
    key, text = _ALIASES.get(axis, axis), _stringify(value)
    if key in KEYS:  # a number as parsed; other values (auto, blank, a column list) as written
        parsed = _parse(key, KEYS[key].parse, text)
        return parsed if isinstance(parsed, (int, float)) else text
    if axis in ("N", "m"):
        return _parse(f"sweep.{axis}", _int(1), text)
    if axis != "compressor":
        _fail("sweep.axis", f"unknown axis {axis!r}")
    return text


def apply_axis(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """The keys ``config`` was built from, one axis set to ``value``: a key or an alias, or N (total
    samples, devices fixed), m (devices, total samples fixed) or compressor (``kind[:param]``).
    A point that does not read a key the axis changed is refused."""
    parsed, raw = axis_value(axis, value), dict(config.raw)
    if axis in ("N", "m"):  # refused on csv data, whose file sets the total, before it is divided
        _refuse_unread(axis, value, ["data.samples_per_device"], config)
    if axis == "N":
        if parsed % config.devices:
            _fail("sweep.N", f"N={parsed} is not divisible by devices={config.devices}")
        raw["data.samples_per_device"] = str(parsed // config.devices)
    elif axis == "m":
        total = config.devices * config.samples_per_device
        if total % parsed:
            _fail("sweep.m", f"N={total} is not divisible by m={parsed}")
        raw["data.devices"] = str(parsed)
        raw["data.samples_per_device"] = str(total // parsed)
    elif axis == "compressor":
        kind, _, param = parsed.partition(":")
        raw["compressor.kind"] = kind
        if param:
            reads = COMPRESSOR_READS.get(kind)
            if not reads:
                _fail("sweep.compressor", f"{kind} takes no parameter, got {param!r}")
            raw[f"compressor.{reads[0]}"] = param
    else:  # as make_config writes the parsed value
        raw[_ALIASES.get(axis, axis)] = _stringify(parsed)
    point = _build(raw)
    _refuse_unread(axis, value, [key for key, text in raw.items() if text != config.raw[key]], point)
    return point


def _refuse_unread(axis, value, keys, point):
    unread = [key for key in keys if key in _ignored(point)]
    if unread:  # every value would run the same
        _fail(f"sweep.{axis}", f"{axis}={value} sets {', '.join(unread)}, which the run does not read")
