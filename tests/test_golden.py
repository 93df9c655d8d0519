"""Golden output: pinned rounds.csv digests of small seeded experiments.

A refactor of the simulation loop must reproduce these bytes exactly.  A
change that is meant to move the numbers updates a digest here and says
why in CHANGES.md.  The digests hold for the floating-point behaviour of
the numpy build the suite runs on.
"""

import hashlib

import pytest

from heavyfed import make_config, run_experiment

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
    "baseline-bulyan": "eba92153f873961bb0be1b231a1cb3a4911e9343a0424703effec58883ff3396",
    "baseline-gaussian-dynamic": "60a2118cba32e273f9aafd4ed0edb913ce780d39047107666c98df6000d740e6",
    "baseline-krum": "4256b5a50b0bec05b59e5c3ebd7e6c59998b57f5846c56e4e71a172eab0703a2",
    "baseline-mean": "c200d294dedabffcaeba4ab9a79d2eb2b3db3d106ea7e25291a212d9aad23ff8",
    "baseline-mkrum": "f5e27796d993278f69280284fe184edbd5a0f32c58c84def1002dbda778f8afe",
    "compressed-identity": "d5543d791a1677f481bf1a1cdfc03ecfd2e4ac9630d518558f639f6da2e12158",
    "compressed-l1": "565ba8c2c96b9a3bf2ef4cadf6ae46ad3d3f8d785aad2c17b00bc2a9e54ec56d",
    "compressed-randk": "e08faf316ee7862aa606375e30d99a2cfc2898fc169b8b4ef3cc067beccb9b83",
    "compressed-topk": "d91c22761d5517f3688c35898b7d1f44a86b7b3501a9bf5c5c360b17d856c9fe",
    "robust": "a82c34040897991240c4a5ba2615c091240f2ed55112e877d2d137517155d36e",
    "robust-logistic-dynamic": "9171ccf6a2de199b9b9f5228da14acfb763a29ab94ac59f291c2bef67c049cb8",
    "robust-randk-ignored": "a82c34040897991240c4a5ba2615c091240f2ed55112e877d2d137517155d36e",
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
