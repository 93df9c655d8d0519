"""Golden output: pinned rounds.csv digests of small seeded experiments.

A refactor of the simulation loop must reproduce these bytes exactly.  A
change that is meant to move the numbers updates a digest here and says
why in CHANGES.md.  The digests hold for the floating-point behaviour of
the numpy build the suite runs on.
"""

import hashlib

import pytest

from heavyfed import config_digest, make_config, run_experiment

SMALL = {
    "experiment.rounds": 40,
    "experiment.repetitions": 2,
    "experiment.seed": 1234,
    "data.devices": 10,
    "data.samples_per_device": 40,
    "data.test_samples": 50,
    "attack.kind": "sign_flip",
    "attack.alpha": 0.2,
}

ROBUST = {"experiment.algorithm": "robust", "estimator.v": 0.5}
COMPRESSED = {"experiment.algorithm": "robust_compressed", "attack.kind": "mean_shift", "attack.alpha": 0.1}
BASELINE = {"experiment.algorithm": "baseline"}

CASES = {
    "robust": ROBUST,
    # robust runs send dense uploads: a configured compressor is ignored
    "robust-randk-ignored": {**ROBUST, "compressor.kind": "randk", "compressor.p": 0.5},
    "robust-logistic-dynamic": {**ROBUST, "model.kind": "logistic", "data.d": 5, "attack.dynamic": True},
    "robust-d1": {**ROBUST, "data.d": 1},
    "robust-attack-free": {**ROBUST, "attack.alpha": 0.0},
    # the one attack whose Byzantine rows the robust estimator still estimates
    "robust-gaussian": {**ROBUST, "attack.kind": "gaussian_noise"},
    "compressed-identity": {**COMPRESSED, "compressor.kind": "identity"},
    "compressed-topk": {**COMPRESSED, "compressor.kind": "topk", "compressor.k": 4},
    "compressed-randk": {**COMPRESSED, "compressor.kind": "randk", "compressor.p": 0.3, "attack.dynamic": True},
    # the one attack whose corrupt reads the Byzantine rows' own decoded uploads
    "compressed-randk-gaussian": {
        **COMPRESSED,
        "compressor.kind": "randk",
        "compressor.p": 0.3,
        "attack.kind": "gaussian_noise",
        "attack.strength": 2.0,
    },
    "compressed-randk-logistic": {
        **COMPRESSED,
        "compressor.kind": "randk",
        "compressor.p": 0.4,
        "model.kind": "logistic",
        "data.d": 5,
    },
    "compressed-l1": {**COMPRESSED, "compressor.kind": "l1"},
    "baseline-mean": BASELINE,
    "baseline-krum": {**BASELINE, "aggregator.kind": "krum"},
    "baseline-bulyan": {**BASELINE, "aggregator.kind": "bulyan", "attack.alpha": 0.1},
    "baseline-mkrum": {**BASELINE, "aggregator.kind": "mkrum"},
    "baseline-gaussian-dynamic": {
        **BASELINE,
        "aggregator.kind": "coord_median",
        "attack.kind": "gaussian_noise",
        "attack.strength": 2.0,
        "attack.dynamic": True,
    },
}

GOLDEN = {
    "baseline-bulyan": "50514a8197c7c0ec78eef043090aca52ce41201b3d64938b4040c1823597e768",
    "baseline-gaussian-dynamic": "1079e10d23e5024144feaa6cda858b55bcf0cd0dc9fd751561cc78169825f532",
    "baseline-krum": "d390c01c92f7fe5c7c941fbf2525084faa3815f8ab2077e2e8a84c230b3db358",
    "baseline-mean": "506f878d2c365c31ba5187e54493a9b3a0fcb6948cdbddf45cfd98575cfc8d71",
    "baseline-mkrum": "dcac7469a2bd9d24fe5ac4f00ff4f4692c69fc5ce6b44dc2d6ba85b364c1e03f",
    "compressed-identity": "e5f1c2abdfd079c6f1b44ba0921851c102280c541cbd377779d36b454afb9ec4",
    "compressed-l1": "a1cf9cd53be1634fcbb71783ee452aabfe7df44e468b6f16476ee8bf41ea067f",
    "compressed-randk": "b39f843783fc82c29813059b480ac756deb9726c57be61ae188f905b2d8e4eab",
    "compressed-randk-gaussian": "e2b6e93d8565e669cb8d0200538bd808e9eaa59676c3c9b880a8889543e37fa7",
    "compressed-randk-logistic": "af910c49e30bdfdabe24f03fe7446df8db759f840d7651fa86af8e069f761e08",
    "compressed-topk": "348917e47da5666734f4cef7f045ab6dbcf6a559c05047775761dabc38702082",
    "robust": "3cbf0b32ab98200fda4ef8b9fcdfec716a34f572f0d8fb6b1795f7f9e274416f",
    "robust-attack-free": "ac565a7c954d3b01da4174bafcfc9a59cf73fd5aa65ddda59493e5c2cca05acd",
    "robust-d1": "50de6a8a3a23f24139b79a8270cf76740cd7f3de4f8c0e44eb557c7ccd337b56",
    "robust-gaussian": "5df8e394cf30ec3003d7334b500474424226e0a7e22fa826e2d3648101a3a0f5",
    "robust-logistic-dynamic": "c2343a8f9e35ad12d3a1676aeea6570cf48265e22870f35335dd497282a733f5",
    "robust-randk-ignored": "3cbf0b32ab98200fda4ef8b9fcdfec716a34f572f0d8fb6b1795f7f9e274416f",
}


def rounds_digest(tmp_path, overrides):
    config = make_config({**SMALL, **overrides, "experiment.out_dir": str(tmp_path)})
    run_experiment(config)
    return hashlib.sha256((tmp_path / "rounds.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_rounds_csv_matches_golden_digest(tmp_path, name):
    assert rounds_digest(tmp_path, CASES[name]) == GOLDEN[name]


def test_robust_ignores_the_compressor():
    assert GOLDEN["robust-randk-ignored"] == GOLDEN["robust"]
    # the ignored compressor echoes at its default, so both runs share one config digest
    digests = {config_digest(make_config({**SMALL, **CASES[name]})) for name in ("robust", "robust-randk-ignored")}
    assert len(digests) == 1
