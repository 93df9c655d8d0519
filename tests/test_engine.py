import dataclasses
import math

import numpy as np
import pytest

from heavyfed import (
    InvalidConfig,
    NonFiniteState,
    build_data,
    estimate_smoothness,
    make_config,
    per_sample_gradients,
    project,
    robust_gradient,
    run,
    run_experiment,
    run_repetitions,
)
from heavyfed.adversary import ATTACK_KINDS
from heavyfed.datagen import partition
from heavyfed.aggregation import AggregatorSpec, max_f, max_trim
from heavyfed.compression import CompressorSpec
from heavyfed.config import PRESETS
from heavyfed.engine import stream_seed
from heavyfed.losses import mean_gradients
from oracles import STACKED_MODELS, stacked_shards


def tiny_config(**overrides):
    base = {
        "experiment.rounds": 20,
        "experiment.repetitions": 1,
        "data.devices": 5,
        "data.samples_per_device": 40,
        "data.test_samples": 50,
    }
    base.update(overrides)
    return make_config(base)


class TestProject:
    def test_interior_point_unchanged(self):
        w = np.array([1.0, 2.0, 0.0])
        assert np.array_equal(project(w, 5.0), w)
        assert np.array_equal(project(np.array([3.0, 4.0]), 5.0), [3.0, 4.0])  # on the sphere

    def test_exterior_point_lands_on_boundary(self):
        assert np.allclose(project(np.array([-4.0, 0.0]), 2.0), [-2.0, 0.0])
        out = project(np.array([6.0, 8.0]), 5.0)
        assert np.allclose(out, [3.0, 4.0]) and np.linalg.norm(out) == pytest.approx(5.0)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.standard_normal(4) * 50.0
            out = project(w, 3.0)
            assert np.linalg.norm(out) <= 3.0 + 1e-12
            # the projection keeps the direction
            assert np.allclose(out / np.linalg.norm(out), w / np.linalg.norm(w))

    def test_non_finite_input_passes_through(self):
        w = np.array([np.inf, 1.0])
        assert project(w, 1.0) is w

    def test_invalid_space(self):
        for radius in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidConfig):
                project(np.zeros(2), radius)


class TestRobustRun:
    def test_attack_free_convergence(self):
        # no trimming, no attack, near-zero label noise, and a manual scale
        # large enough that truncation is inactive: plain-GD behaviour
        cfg = tiny_config(**{
            "experiment.rounds": 120,
            "aggregator.beta": 0.0,
            "data.noise_sigma": 1e-6,
            "estimator.s": 1000.0,
            "estimator.tau": 9.0,
        })
        metrics = run(cfg)
        losses = [rm.test_loss for rm in metrics]
        for i in range(3, len(losses) - 1):
            assert losses[i + 1] <= losses[i] + 1e-12
        assert metrics[-1].param_err < 0.1 * metrics[0].param_err

    def test_zero_rounds_returns_initial_point_only(self):
        cfg = dataclasses.replace(tiny_config(), rounds=0)
        metrics = run(cfg)
        assert len(metrics) == 1
        assert metrics[0].round_index == 0
        assert metrics[0].bytes_up == 0

    def test_deterministic_metric_stream(self):
        cfg = tiny_config(**{"attack.alpha": 0.2, "attack.dynamic": True})
        a = run(cfg)
        b = run(cfg)
        assert a == b

    def test_repetitions_differ(self):
        cfg = tiny_config()
        a = run(cfg, rep=0)
        b = run(cfg, rep=1)
        assert a[0].test_loss != b[0].test_loss

    def test_attack_free_equivalence_with_mean(self):
        # alpha = 0 and trim count 0: the aggregated gradient equals the mean
        # of the device robust gradients exactly
        cfg = tiny_config(**{"experiment.rounds": 1, "aggregator.beta": 0.0})
        train, test, w_star, model = build_data(cfg, 0)
        shards = partition(train, cfg.devices, seed=stream_seed(cfg, 0, "partition"))
        params = cfg.estimator_params(n=len(shards), m=cfg.devices, d=model.dim)
        w0 = np.zeros(model.dim)
        device_grads = robust_gradient(model, w0, shards, params)
        expected = device_grads.mean(axis=0)
        metrics = run(cfg)
        assert metrics[1].grad_norm == float(np.linalg.norm(expected))

    def test_bytes_accounting_dense(self):
        cfg = tiny_config(**{"experiment.rounds": 2})
        metrics = run(cfg)
        assert metrics[1].bytes_up == 8 * cfg.dimension * cfg.devices
        assert metrics[0].bytes_up == 0

    def test_all_metrics_finite(self):
        cfg = tiny_config(**{"attack.alpha": 0.2})
        for rm in run(cfg):
            assert math.isfinite(rm.test_loss)
            assert math.isfinite(rm.grad_norm)
            assert rm.param_err is not None and math.isfinite(rm.param_err)


class TestBaselines:
    def test_mean_equals_pooled_gradient(self):
        # averaging equal-shard means is exactly the pooled mean gradient
        cfg = tiny_config(**{"experiment.algorithm": "baseline", "experiment.rounds": 1})
        train, test, w_star, model = build_data(cfg, 0)
        shards = partition(train, cfg.devices, seed=stream_seed(cfg, 0, "partition"))
        w0 = np.zeros(model.dim)
        pooled = per_sample_gradients(model, w0, train).mean(axis=0)
        device_means = per_sample_gradients(model, w0, shards).mean(axis=1)
        stacked = device_means.mean(axis=0)
        assert np.allclose(stacked, pooled, atol=1e-12)
        metrics = run(cfg)
        assert abs(metrics[1].grad_norm - float(np.linalg.norm(stacked))) <= 1e-12

    def test_krum_returns_a_device_upload(self):
        cfg = tiny_config(**{
            "experiment.algorithm": "baseline",
            "experiment.rounds": 1,
            "aggregator.kind": "krum",
            "aggregator.f": 1,
        })
        train, _, _, model = build_data(cfg, 0)
        shards = partition(train, cfg.devices, seed=stream_seed(cfg, 0, "partition"))
        w0 = np.zeros(model.dim)
        norms = np.linalg.norm(per_sample_gradients(model, w0, shards).mean(axis=1), axis=1)
        metrics = run(cfg)
        assert any(abs(metrics[1].grad_norm - nv) <= 1e-12 for nv in norms)

    def test_coord_median_survives_sign_flip(self):
        cfg = make_config({
            "experiment.algorithm": "baseline",
            "experiment.rounds": 200,
            "experiment.repetitions": 1,
            "aggregator.kind": "coord_median",
            "attack.alpha": 0.2,
        })
        metrics = run(cfg)
        assert all(math.isfinite(rm.test_loss) for rm in metrics)
        assert all(math.isfinite(rm.grad_norm) for rm in metrics)

    def test_mkrum_momentum_changes_uploads(self):
        base = {
            "experiment.algorithm": "baseline",
            "experiment.rounds": 5,
            "aggregator.f": 1,
        }
        krum_metrics = run(tiny_config(**base, **{"aggregator.kind": "krum"}))
        mkrum_metrics = run(tiny_config(**base, **{"aggregator.kind": "mkrum"}))
        assert krum_metrics[2].grad_norm != mkrum_metrics[2].grad_norm

    @pytest.mark.parametrize(
        "kind", ["mean", "coord_trimmed", "norm_trimmed", "coord_median", "geo_median", "krum", "bulyan", "mkrum"]
    )
    def test_every_aggregator_completes(self, kind):
        cfg = make_config({
            "experiment.algorithm": "baseline",
            "experiment.rounds": 3,
            "experiment.repetitions": 1,
            "data.devices": 8,
            "data.samples_per_device": 20,
            "data.test_samples": 20,
            "aggregator.kind": kind,
            "attack.alpha": 0.125,
        })
        metrics = run(cfg)
        assert len(metrics) == 4
        assert all(math.isfinite(rm.test_loss) for rm in metrics)

    def test_non_finite_state_detected(self):
        cfg = tiny_config(**{
            "experiment.algorithm": "baseline",
            "attack.kind": "large_value",
            "attack.strength": 1e308,
            "attack.alpha": 0.4,
        })
        with pytest.raises(NonFiniteState) as err:
            run(cfg)
        assert err.value.round_index == 0

    def test_nan_upload_under_bulyan_is_a_recorded_divergence(self, monkeypatch):
        from heavyfed import adversary

        original = adversary.corrupt

        def corrupt_with_nan(attack, uploads, byz, rng):
            out = original(attack, uploads, byz, rng).copy()
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(adversary, "corrupt", corrupt_with_nan)
        cfg = tiny_config(**{
            "experiment.algorithm": "baseline",
            "experiment.repetitions": 2,
            "data.devices": 8,
            "aggregator.kind": "bulyan",
            "attack.alpha": 0.125,
        })
        runs, summary = run_repetitions(cfg)
        assert runs == [None, None]
        assert summary.failed == [(0, 0), (1, 0)]


class TestLocalStage:
    @pytest.mark.parametrize("model", STACKED_MODELS, ids=lambda m: f"{m.kind}-{m.objective}")
    def test_mkrum_momentum_averages_the_plain_shard_means(self, monkeypatch, model):
        from heavyfed import engine

        calls = []
        original = engine.per_sample_gradients

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(engine, "per_sample_gradients", counted)
        shards, w1 = stacked_shards(model)
        w2 = 0.5 * w1
        plain = engine._local_stage(model, shards, None, AggregatorSpec("mean"))
        momentum = engine._local_stage(model, shards, None, AggregatorSpec("mkrum", momentum=0.75))
        mean1, mean2 = plain(w1), plain(w2)
        first = momentum(w1).copy()
        second = momentum(w2)
        assert np.array_equal(first, (1.0 - 0.75) * mean1)
        assert np.array_equal(second, 0.75 * first + (1.0 - 0.75) * mean2)
        if model.kind == "mlp":
            # mlp has no batched mean: both stages average its per-sample gradients
            assert np.array_equal(mean1, original(model, w1, shards).mean(axis=-2))
            assert len(calls) == 4
        else:
            assert np.array_equal(mean1, mean_gradients(model, w1, shards))
            assert calls == []


def byzantine_sets(**overrides):
    """The Byzantine set ``corrupt`` receives in each round of one run."""
    from heavyfed import adversary

    sets = []
    original = adversary.corrupt

    def recording(attack, uploads, byz, rng):
        sets.append(byz)
        return original(attack, uploads, byz, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adversary, "corrupt", recording)
        run(tiny_config(**{
            "experiment.rounds": 20,
            "data.devices": 10,
            "data.samples_per_device": 20,
            "attack.kind": "sign_flip",
            "attack.alpha": 0.3,
            **overrides,
        }))
    return sets


class TestByzantineSets:
    def test_static_set_is_identical_every_round(self):
        sets = byzantine_sets()
        assert len(sets) == 20 and len(set(sets)) == 1
        assert len(sets[0]) == 3 and all(0 <= i < 10 for i in sets[0])

    def test_dynamic_set_varies_and_is_deterministic(self):
        a = byzantine_sets(**{"attack.dynamic": True})
        assert a == byzantine_sets(**{"attack.dynamic": True})
        assert len(set(a)) > 1 and all(len(byz) == 3 for byz in a)

    def test_different_seeds_differ(self):
        a = byzantine_sets(**{"attack.dynamic": True, "experiment.seed_adversary": 5})
        b = byzantine_sets(**{"attack.dynamic": True, "experiment.seed_adversary": 6})
        assert a != b

    @pytest.mark.parametrize("dynamic, draws", [(False, 1), (True, 6)])
    def test_static_set_is_drawn_once_per_run(self, monkeypatch, dynamic, draws):
        from heavyfed import adversary

        calls = []
        original = adversary.select_byzantine

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(adversary, "select_byzantine", counting)
        cfg = tiny_config(**{
            "experiment.rounds": 6,
            "attack.kind": "sign_flip",
            "attack.alpha": 0.2,
            "attack.dynamic": dynamic,
        })
        run(cfg)
        assert len(calls) == draws

    @pytest.mark.parametrize("kind, draws", [("sign_flip", False), ("gaussian_noise", True)])
    def test_round_rng_only_for_the_drawing_attack(self, monkeypatch, kind, draws):
        from heavyfed import adversary

        rngs = []
        original = adversary.corrupt

        def recording(attack, uploads, byz, rng):
            rngs.append(rng)
            return original(attack, uploads, byz, rng)

        monkeypatch.setattr(adversary, "corrupt", recording)
        run(tiny_config(**{"experiment.rounds": 4, "attack.kind": kind, "attack.alpha": 0.2}))
        assert len(rngs) == 4
        assert all((rng is not None) == draws for rng in rngs)


    @pytest.mark.parametrize("algorithm, codec", [("robust", "identity"), ("robust_compressed", "randk")])
    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize(
        "kind, skipped",
        [("sign_flip", True), ("large_value", True), ("mean_shift", True), ("gaussian_noise", False), ("none", False)],
    )
    def test_estimator_skips_the_rows_the_attack_overwrites(self, monkeypatch, algorithm, codec, dynamic, kind, skipped):
        from heavyfed import adversary, compression, engine

        masks, kept, sets = [], [], []
        originals = engine.robust_gradient, compression.keep_mask, adversary.corrupt

        def estimating(model, w, data, params, keep=None):
            masks.append(keep)
            return originals[0](model, w, data, params, keep)

        def drawing(spec, shape, rng):
            kept.append(originals[1](spec, shape, rng))
            return kept[-1]

        def corrupting(attack, uploads, byz, rng):
            sets.append(byz)
            return originals[2](attack, uploads, byz, rng)

        monkeypatch.setattr(engine, "robust_gradient", estimating)
        monkeypatch.setattr(compression, "keep_mask", drawing)
        monkeypatch.setattr(adversary, "corrupt", corrupting)
        cfg = tiny_config(**{
            "experiment.algorithm": algorithm,
            "experiment.rounds": 6,
            "compressor.kind": codec,
            "compressor.p": 0.5,
            "attack.kind": kind,
            "attack.alpha": 0.4,
            "attack.dynamic": dynamic,
        })
        run(cfg)
        # one keep mask per round: the Byzantine re-encodes draw none of their own
        assert len(masks) == len(kept) == len(sets) == 6
        assert all(len(byz) == 2 for byz in sets)
        assert (len(set(sets)) > 1) == dynamic
        for mask, keep, byz in zip(masks, kept, sets):
            if not skipped:
                assert mask is keep
                continue
            expected = np.ones((cfg.devices, cfg.dimension), dtype=bool) if keep is None else keep.copy()
            expected[list(byz)] = False
            assert np.array_equal(mask, expected)


class TestCompressedRun:
    def test_topk_full_retention_matches_identity(self):
        base = {
            "experiment.algorithm": "robust_compressed",
            "experiment.rounds": 10,
            "attack.alpha": 0.2,
        }
        ident = run(tiny_config(**base, **{"compressor.kind": "identity"}))
        full = run(tiny_config(**base, **{"compressor.kind": "topk", "compressor.k": 10}))
        for a, b in zip(ident, full):
            assert a.test_loss == b.test_loss
            assert a.grad_norm == b.grad_norm

    def test_norm_trimming_converges_like_coordinate_trimming(self):
        # moment bound above the noise variance keeps truncation mild enough
        # for the halving target to sit above the estimator's bias floor
        shared = {
            "experiment.rounds": 200,
            "data.devices": 10,
            "data.samples_per_device": 100,
            "estimator.v": 5.0,
        }
        robust = run(make_config({**shared, "experiment.repetitions": 1}))
        compressed = run(
            make_config({**shared, "experiment.algorithm": "robust_compressed", "compressor.kind": "identity"})
        )
        assert robust[-1].test_loss < 0.5 * robust[0].test_loss
        assert compressed[-1].test_loss < 0.5 * compressed[0].test_loss

    def test_topk_halves_payload_bytes(self):
        base = {
            "experiment.algorithm": "robust_compressed",
            "experiment.rounds": 3,
            "data.devices": 10,
            "data.samples_per_device": 20,
        }
        ident = run(make_config({**base, "compressor.kind": "identity", "experiment.repetitions": 1}))
        half = run(make_config({**base, "compressor.kind": "topk", "compressor.k": 5, "experiment.repetitions": 1}))
        # nominal sparse bytes: 12 per kept value vs 8 per dense value
        assert ident[1].bytes_up == 8 * 10 * 10
        assert half[1].bytes_up == 12 * 5 * 10

    def test_randk_run_is_deterministic(self):
        cfg = tiny_config(**{
            "experiment.algorithm": "robust_compressed",
            "compressor.kind": "randk",
            "compressor.p": 0.6,
            "attack.alpha": 0.2,
        })
        assert run(cfg) == run(cfg)

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("attack", ATTACK_KINDS)
    def test_byzantine_bytes_replace_honest_bytes(self, monkeypatch, attack, dynamic):
        from heavyfed import adversary, aggregation, compression

        base = {
            "experiment.algorithm": "robust_compressed",
            "experiment.rounds": 4,
            "data.devices": 10,
            "data.samples_per_device": 20,
            "attack.kind": attack,
            "attack.alpha": 0.3,
            "attack.dynamic": dynamic,
        }
        topk = tiny_config(**base, **{"compressor.kind": "topk", "compressor.k": 3})
        l1 = tiny_config(**base, **{"compressor.kind": "l1"})
        m, d = topk.devices, topk.dimension
        assert [rm.bytes_up for rm in run(topk)[1:]] == [12 * 3 * m] * 4
        assert [rm.bytes_up for rm in run(l1)[1:]] == [m * (8 + math.ceil(d / 8))] * 4

        # random-k sends values only, at the positions of the round's shared keep
        # mask; a Byzantine message too, at its own device's positions
        masks, sets, decoded = [], [], []
        originals = compression.keep_mask, adversary.corrupt, aggregation.aggregate

        def drawing(spec, shape, rng):
            masks.append(originals[0](spec, shape, rng))
            return masks[-1]

        def corrupting(attack, uploads, byz, rng):
            sets.append(sorted(byz))
            return originals[1](attack, uploads, byz, rng)

        def aggregating(spec, vectors):
            decoded.append(vectors.copy())
            return originals[2](spec, vectors)

        monkeypatch.setattr(compression, "keep_mask", drawing)
        monkeypatch.setattr(adversary, "corrupt", corrupting)
        monkeypatch.setattr(aggregation, "aggregate", aggregating)
        randk = tiny_config(**base, **{"compressor.kind": "randk", "compressor.p": 0.5})
        assert [rm.bytes_up for rm in run(randk)[1:]] == [8 * int(mask.sum()) for mask in masks]
        assert len(masks) == len(sets) == len(decoded) == 4
        for mask, byz, vectors in zip(masks, sets, decoded):
            assert byz and 0 < mask[byz].sum() < mask[byz].size
            assert not vectors[byz][~mask[byz]].any()

    @pytest.mark.parametrize("kind", ["randk", "topk", "l1", "identity"])
    def test_nominal_bytes_calls_add_up_to_total_bytes(self, monkeypatch, tmp_path, kind):
        # the invariant a traced benchmark run checks: every byte is priced
        # by one call to compression.nominal_bytes, looked up on the module
        from heavyfed import compression

        priced = []
        original = compression.nominal_bytes

        def summing(*args, **kwargs):
            result = original(*args, **kwargs)
            priced.append(int(result))
            return result

        monkeypatch.setattr(compression, "nominal_bytes", summing)
        cfg = tiny_config(**{
            "experiment.algorithm": "robust_compressed",
            "experiment.rounds": 5,
            "experiment.repetitions": 2,
            "compressor.kind": kind,
            "compressor.p": 0.3,
            "attack.kind": "mean_shift",
            "attack.alpha": 0.2,
            "attack.dynamic": True,
        })
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert len(priced) == 2 * 5
        assert sum(priced) == summary.total_bytes > 0

    def test_one_codec_stream_per_round(self, monkeypatch):
        from heavyfed import adversary, compression

        calls = []  # (rows, generator) of every keep mask drawn
        drawn, coded, sets = [], [], []  # the masks drawn, the ones encode was handed, the Byzantine sets
        original_mask, original_encode, original_corrupt = compression.keep_mask, compression.encode, adversary.corrupt

        def drawing(spec, shape, rng):
            calls.append((shape[0], rng))
            drawn.append(original_mask(spec, shape, rng))
            return drawn[-1]

        def recording(spec, uploads, mask=None):
            coded.append(mask)
            return original_encode(spec, uploads, mask)

        def corrupting(attack, uploads, byz, rng):
            sets.append(sorted(byz))
            return original_corrupt(attack, uploads, byz, rng)

        monkeypatch.setattr(compression, "keep_mask", drawing)
        monkeypatch.setattr(compression, "encode", recording)
        monkeypatch.setattr(adversary, "corrupt", corrupting)
        run(tiny_config(**{
            "experiment.algorithm": "robust_compressed",
            "experiment.rounds": 3,
            "compressor.kind": "randk",
            "compressor.p": 0.5,
            "attack.kind": "sign_flip",
            "attack.alpha": 0.2,
        }))
        # each round draws every device's keep mask once, from its own generator
        assert [rows for rows, _ in calls] == [5] * 3
        assert len({id(rng) for _, rng in calls}) == 3
        # the codec draws nothing: the honest uploads are coded with the round's
        # mask, the Byzantine re-encode with its own device's rows of that mask
        assert len(coded) == 2 * len(drawn) == 2 * len(sets) == 6
        assert all(used is mask for used, mask in zip(coded[::2], drawn))
        assert all(np.array_equal(used, mask[byz]) for used, mask, byz in zip(coded[1::2], drawn, sets))

    @pytest.mark.parametrize("kind", ["randk", "topk", "l1", "identity"])
    def test_estimator_kernel_sees_only_the_kept_entries(self, monkeypatch, kind):
        from heavyfed import engine, estimator

        fed, masks = [], []
        original_values, original_gradient = estimator._smoothed_values, engine.robust_gradient

        def counting(x, params):
            fed.append(np.size(x))
            return original_values(x, params)

        def estimating(model, w, data, params, keep=None):
            masks.append(keep)
            return original_gradient(model, w, data, params, keep)

        monkeypatch.setattr(estimator, "_smoothed_values", counting)
        monkeypatch.setattr(engine, "robust_gradient", estimating)
        cfg = tiny_config(**{
            "experiment.algorithm": "robust_compressed",
            "experiment.rounds": 6,
            "compressor.kind": kind,
            "compressor.k": 3,
            "compressor.p": 0.3,
            "attack.kind": "gaussian_noise",
            "attack.alpha": 0.2,
        })
        run(cfg)
        m, n, d = cfg.devices, cfg.samples_per_device, cfg.dimension
        if kind == "randk":
            assert [mask.shape for mask in masks] == [(m, d)] * 6
            assert fed == [n * int(mask.sum()) for mask in masks]
            assert 0 < sum(fed) < 6 * m * n * d
        else:
            assert masks == [None] * 6
            assert fed == [m * n * d] * 6

class TestPresetStages:
    @pytest.mark.parametrize("algorithm", list(PRESETS))
    def test_round_runs_the_stages_the_table_declares(self, monkeypatch, algorithm):
        from heavyfed import aggregation, compression

        rules, codecs = [], []
        original_aggregate, original_encode = aggregation.aggregate, compression.encode

        def aggregating(spec, vectors):
            rules.append(spec)
            return original_aggregate(spec, vectors)

        def encoding(spec, uploads, mask=None):
            codecs.append(spec)
            return original_encode(spec, uploads, mask)

        monkeypatch.setattr(aggregation, "aggregate", aggregating)
        monkeypatch.setattr(compression, "encode", encoding)
        cfg = tiny_config(**{
            "experiment.algorithm": algorithm,
            "experiment.rounds": 1,
            "data.devices": 10,
            "aggregator.kind": "krum",
            "aggregator.beta": 0.3,
            "aggregator.f": 2,
            "compressor.kind": "topk",
            "compressor.k": 4,
            "attack.alpha": 0.2,
        })
        run(cfg)
        preset = PRESETS[algorithm]
        [rule] = rules
        assert rule == cfg.aggregator
        assert rule.kind == (preset.rule or "krum")
        # beta and f reach the rule where it reads them; elsewhere they resolve as auto
        assert rule.beta == (0.3 if max_trim(rule.kind, 10) is not None else 0.2)
        assert rule.f == (2 if max_f(rule.kind, 10) is not None else 0)
        # the honest uploads, then the Byzantine re-encode if the codec is not identity;
        # a preset that sends dense uploads ignores the configured compressor
        expected = CompressorSpec(kind="topk", k=4, p=0.5) if preset.codec else CompressorSpec(k=5, p=0.5)
        assert codecs == [expected] * (2 if preset.codec else 1)


class TestDispatchAndSeeds:

    def test_stream_seeds_are_distinct(self):
        cfg = tiny_config()
        seeds = {name: stream_seed(cfg, 0, name) for name in ("data", "init", "adversary", "compressor", "partition")}
        assert len(set(seeds.values())) == len(seeds)

    def test_explicit_data_seed_pins_data_only(self):
        a = tiny_config(**{"experiment.seed": 1, "experiment.seed_data": 77})
        b = tiny_config(**{"experiment.seed": 2, "experiment.seed_data": 77})
        assert stream_seed(a, 0, "data") == stream_seed(b, 0, "data")
        assert stream_seed(a, 0, "adversary") != stream_seed(b, 0, "adversary")

    def test_smoothness_estimate_positive(self):
        cfg = tiny_config()
        train, _, _, model = build_data(cfg, 0)
        lam = estimate_smoothness(model, train)
        assert lam > 0.0
        logistic_cfg = tiny_config(**{"model.kind": "logistic"})
        train2, _, _, model2 = build_data(logistic_cfg, 0)
        assert estimate_smoothness(model2, train2) == pytest.approx(
            float(np.linalg.eigvalsh(train2.features.T @ train2.features / len(train2))[-1]) / 4.0
        )

    def test_mlp_on_csv_with_only_eta_set_runs(self, tmp_path):
        # an explicit eta reads no smoothness, and mlp models have no estimate of it
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 2))
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n" + "".join(f"{a},{b},{a - b}\n" for a, b in X), encoding="utf-8")
        cfg = tiny_config(**{
            "experiment.rounds": 1,
            "experiment.eta": 0.05,
            "model.kind": "mlp",
            "data.source": "csv",
            "data.path": str(data),
            "data.label_column": "y",
            "data.test_samples": 10,
            "estimator.v": 1.0,
        })
        metrics = run(cfg)
        assert [m.round_index for m in metrics] == [0, 1]
        assert math.isfinite(metrics[1].test_loss)

    def test_random_initial_point_is_feasible_and_seeded(self):
        cfg = tiny_config(**{"experiment.w0": "random", "experiment.rounds": 1})
        a = run(cfg)
        b = run(cfg)
        assert a[0].test_loss == b[0].test_loss
        assert a[0].param_err <= cfg.space_radius + 1.0 + 1e-9  # within ball of w*, loosely
