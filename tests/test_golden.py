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
    "compressed-identity": "2582fe98c517f40b8513e6ce8c35c359320f9dbea996ab8861f5795f009d509d",
    "compressed-l1": "eda82fe9b8bece1b785f20afca0ef69b922bf719d7f9056d73211d2f00f07969",
    "compressed-randk": "60d73d35e485065406b8de2568ab04bcf953a59476acf2b03a5bc5693964c7b6",
    "compressed-topk": "f0fc4498f9a660dfc8462a77a41814f7b5d38b357f5e88e0783a19ce0773bd6c",
    "robust": "26548e6c615dd6d2311d550d1494ea96d1e0343a8276205104226757bf410ad8",
    "robust-logistic-dynamic": "671b9b9aea2053a4a1e20d49a6922510034aacb6e035963f2210ea37a8c41031",
    "robust-randk-ignored": "26548e6c615dd6d2311d550d1494ea96d1e0343a8276205104226757bf410ad8",
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
