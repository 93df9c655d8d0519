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
    "compressed-identity": "7905e26fcbf8afba69be5c364f28b944d6ab0548b4fd90cee1bf3aa9d0d024ac",
    "compressed-l1": "90e1c24ca02766a24b39eb250a7df92dc267176b828a468e2887c7a6298543fb",
    "compressed-randk": "7f7994ee8da8711e3552e9f9b844bc639f1f43a84c35dd89b3908ecbafc80fc4",
    "compressed-topk": "9f701cade50c5bba2ea8ffc207d7df3dcd90f870add917f31dbfe424518d8b36",
    "robust": "188cbf1b995cf96441e59b0c28f9ece3d6a8ec894f32bd2dcb3cc0b251a67cdc",
    "robust-logistic-dynamic": "62f4c0338e0fa8ab55ced66992b5ca968b942448227a5a0b1d3552ea64b5bde8",
    "robust-randk-ignored": "188cbf1b995cf96441e59b0c28f9ece3d6a8ec894f32bd2dcb3cc0b251a67cdc",
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
