"""One synchronous round pipeline, projection and metrics.

Every round runs the same stages on one ``(m, d)`` array of device uploads:
local estimate -> codec -> Byzantine corruption of the decoded wire array ->
robust aggregation -> projected descent step.  An algorithm only chooses
what fills the stages, and the config's preset table resolves that choice
once: ``run`` reads the estimator schedule, the codec and the aggregation
rule from the config.  The local stage evaluates every device in one
batched call over the stacked ``(m, n, p)`` shards, and the codec encodes
the whole array in one call.  ``run`` builds every generator a stage draws
from; the codec and the adversary draw from nothing else.  Random-k's keep
mask comes from one stream per round, which the server repeats: a random-k
upload, Byzantine or not, carries values only, at its device's positions.  The
round's Byzantine set, from the adversary's own stream, is drawn before the
local stage too, so the robust estimator evaluates only the ``(device,
coordinate)`` entries the server reads: those the codec keeps, in the rows
the attack does not overwrite (``adversary.REPLACES_ROW``), each summed
along its own row of samples, so a skipped entry changes no other's bytes.
Device computations are pure functions of (round state, shard, derived
seed), so identical configs and seeds reproduce bit-identical metric streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adversary, aggregation, compression
from .config import ExperimentConfig
from .datagen import SyntheticSpec, draw_w_star, gen_synthetic, load_csv, partition, split_train_test
from .errors import InvalidConfig, NonFiniteState
from .estimator import robust_gradient
from .losses import LossModel, empirical_risk, mean_gradients, per_sample_gradients


def project(w, radius: float) -> np.ndarray:
    """Exact Euclidean projection onto the ball of ``radius`` around the origin.

    Non-finite inputs pass through unchanged so the caller's divergence
    check sees them.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise InvalidConfig(f"projection radius must be finite and > 0, got {radius}")
    w = np.asarray(w, dtype=float)
    dist = float(np.linalg.norm(w))
    if not math.isfinite(dist) or dist <= radius:
        return w
    return (radius / dist) * w


@dataclass(frozen=True)
class RoundMetrics:
    """State captured after each round (round 0 is the initial point)."""

    round_index: int
    test_loss: float
    param_err: float | None
    bytes_up: int
    grad_norm: float


_STREAMS = {"data": 0, "init": 1, "adversary": 2, "compressor": 3, "partition": 4}


def stream_seed(config: ExperimentConfig, rep: int, name: str) -> int:
    """Integer seed for one randomness stream of one repetition.

    The per-repetition base is ``seed XOR rep``; data/init/adversary honour
    their explicit config overrides.
    """
    explicit = {
        "data": config.seed_data,
        "init": config.seed_init,
        "adversary": config.seed_adversary,
    }.get(name)
    base = (config.seed if explicit is None else explicit) ^ rep
    ss = np.random.SeedSequence(entropy=base, spawn_key=(_STREAMS[name],))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _round_rng(draws, seed, key):
    # a stage whose kind draws nothing gets no generator: building one costs
    # more than most stages
    if not draws:
        return None
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def build_data(config: ExperimentConfig, rep: int = 0):
    """Materialize (train, test, w_star-or-None, model) for one repetition."""
    seed = stream_seed(config, rep, "data")
    if config.source == "synthetic":
        spec = SyntheticSpec(
            model_kind=config.model_kind,
            d=config.dimension,
            feature_sigma=config.feature_sigma,
            noise=config.noise,
            n_train=config.devices * config.samples_per_device,
            n_test=config.test_samples,
            w_star=draw_w_star(config.dimension, seed),
        )
        train, test = gen_synthetic(spec, seed)
        w_star = spec.w_star
    else:
        train, test = split_train_test(load_csv(config.csv_path, config.csv), config.test_samples, seed)
        w_star = None
    model = LossModel(config.model_kind, train.features.shape[1], config.mlp_hidden, config.mlp_objective)
    return train, test, w_star, model


def estimate_smoothness(model: LossModel, train) -> float:
    """Largest eigenvalue of the pooled feature second-moment matrix (logistic: /4)."""
    if model.kind == "mlp":
        raise InvalidConfig("no smoothness estimate for mlp models; set smoothness or eta")
    X = train.features
    lam = float(np.linalg.eigvalsh(X.T @ X / X.shape[0])[-1])
    if lam <= 0.0:
        raise InvalidConfig("feature second-moment matrix is singular; set eta explicitly")
    return lam if model.kind == "linear" else lam / 4.0


def _initial_point(config, rep, d):
    if config.w0 == "origin":
        return np.zeros(d)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=stream_seed(config, rep, "init")))
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    return config.space_radius * rng.random() ** (1.0 / d) * direction


def _local_stage(model, shards, est, rule):
    """Device side of a round: (parameters, estimation mask) -> ``(m, d)``
    array of uploads, one batched call over the stacked ``(m, n, p)`` shards.

    Only the robust estimator reads the mask (``None``: every entry), and
    returns 0.0 at the entries it leaves out.
    """
    if est is not None:
        return lambda w, keep: robust_gradient(model, w, shards, est, keep)

    def shard_means(w, keep=None):
        if model.kind == "mlp":
            return per_sample_gradients(model, w, shards).mean(axis=-2)
        return mean_gradients(model, w, shards)

    if "momentum" not in aggregation.RULES[rule.kind].reads:
        return shard_means
    # devices upload a running average of their shard means
    buffer = np.zeros((shards.labels.shape[0], model.dim))

    def with_momentum(w, keep=None):
        nonlocal buffer
        buffer = rule.momentum * buffer + (1.0 - rule.momentum) * shard_means(w)
        return buffer

    return with_momentum


def _without_rows(keep, rows, shape):
    # the entries of keep (None: every entry of shape) outside rows
    if not rows:
        return keep
    mask = np.ones(shape, dtype=bool) if keep is None else keep.copy()
    mask[sorted(rows)] = False
    return mask


def _uplink(codec, uploads, keep, attack, byz, adv_rng):
    """Codec and adversary stages: the ``(m, d)`` vectors the server decodes, and the bytes sent."""
    vectors, kept = compression.encode(codec, uploads, mask=keep)
    vectors = adversary.corrupt(attack, vectors, byz, adv_rng)
    if byz and codec.kind != "identity":
        # Byzantine devices choose their own wire message, in the run's format
        # (random-k: at the device's own positions, the only ones the server
        # decodes), and its bytes replace the honest message's.
        rows = sorted(byz)
        vectors[rows], kept[rows] = compression.encode(codec, vectors[rows], mask=None if keep is None else keep[rows])
    return vectors, compression.nominal_bytes(codec, kept)


def run(config: ExperimentConfig, rep: int = 0) -> list[RoundMetrics]:
    """Run one repetition of the pipeline ``config.algorithm`` names."""
    train, test, w_star, model = build_data(config, rep)
    m = config.devices
    shards = partition(train, m, seed=stream_seed(config, rep, "partition"))
    d = model.dim

    eta = config.eta
    if eta is None:  # only an auto eta reads the smoothness
        smooth = config.smoothness if config.smoothness is not None else estimate_smoothness(model, train)
        eta = 1.0 / smooth
    w = _initial_point(config, rep, d)

    codec, rule = config.compressor, config.aggregator
    est = config.estimator_params(n=len(shards), m=m, d=d)
    local = _local_stage(model, shards, est, rule)
    adv_seed = stream_seed(config, rep, "adversary")
    comp_seed = stream_seed(config, rep, "compressor")
    alpha, dynamic = config.attack.alpha, config.attack.dynamic
    has_byz = adversary.byzantine_count(alpha, m) > 0
    # adversary stream keys: (0,) the static set, (1 + t,) round t's dynamic set, (t, 1) its noise
    def byzantine_set(key):
        return adversary.select_byzantine(m, alpha, _round_rng(has_byz, adv_seed, key))

    # a static Byzantine set is the same every round: draw it once
    static_byz = None if dynamic else byzantine_set((0,))
    # the estimator skips the rows the attack overwrites; the baseline reads no mask
    skip_byz = est is not None and config.attack.kind in adversary.REPLACES_ROW

    def snapshot(t, bytes_up, grad_norm, w_now):
        err = float(np.linalg.norm(w_now - w_star)) if w_star is not None else None
        return RoundMetrics(t, empirical_risk(model, w_now, test), err, bytes_up, grad_norm)

    metrics = [snapshot(0, 0, 0.0, w)]
    for t in range(config.rounds):
        # one codec stream per round: every device's keep mask
        keep = compression.keep_mask(codec, (m, d), _round_rng(codec.kind == "randk", comp_seed, (t,)))
        byz = byzantine_set((1 + t,)) if dynamic else static_byz
        uploads = local(w, _without_rows(keep, byz, (m, d)) if skip_byz else keep)
        adv_rng = _round_rng(config.attack.kind == "gaussian_noise", adv_seed, (t, 1))
        vectors, bytes_up = _uplink(codec, uploads, keep, config.attack, byz, adv_rng)
        agg_vec = aggregation.aggregate(rule, vectors)
        w_next = project(w - eta * agg_vec, config.space_radius)
        if not np.all(np.isfinite(w_next)):
            raise NonFiniteState(t)
        metrics.append(snapshot(t + 1, bytes_up, float(np.linalg.norm(agg_vec)), w_next))
        w = w_next
    return metrics

