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
    "compressed-identity": "e2a78e82e4c2dde77b8cd810cb34e707f180a374d3053330080bcd52b1363aff",
    "compressed-l1": "b65ab7747071be5c17433b6bb58170ba25acd16a58be3441ea3a09507c965145",
    "compressed-randk": "0550fc25f24bad2b31acdc9c8e05957c06c2e2a4f94389e0299e5d9acaa739b2",
    "compressed-randk-gaussian": "e66ec2f4e362c978bb32bd73244e68671602667b8294bb923c8f9233dbf1fed9",
    "compressed-randk-logistic": "d94d7346cd1c330d066ed6df9a7847642cc61384c3ce1ca91021230f64c8320a",
    "compressed-topk": "4afaef2eb10bac519e0414ed730cf4b6c3e8552844c0b9af334f49225822717a",
    "robust": "b4389e6b4445ba7be05371d6a694384f3881dcf75add554c9ed89406d034bb66",
    "robust-logistic-dynamic": "671b9b9aea2053a4a1e20d49a6922510034aacb6e035963f2210ea37a8c41031",
    "robust-randk-ignored": "b4389e6b4445ba7be05371d6a694384f3881dcf75add554c9ed89406d034bb66",
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
