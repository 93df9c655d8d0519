"""Benchmark workloads: config overrides over the heavyfed defaults.

Each workload is rendered into an INI file that the benchmark feeds to
``parse_config``, the same path ``heavyfed run`` takes.  The program sees only
that file.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import configparser

ROUNDS = 200

# Repetitions per run_experiment call.  Two, so that a repetition pool can
# show in reps_per_s; one call stays short enough to time several per run.
REPETITIONS = 2

# experiment.seed = workload seed << SEED_SHIFT.  Repetition r runs with
# seed XOR r, so unshifted seeds n and n ^ 1 would share their repetitions.
SEED_SHIFT = 16

WORKLOADS = {
    "robust-ref": {
        "why": "the acceptance suite's reference robust run; the estimator kernel is nearly all the work",
        "overrides": {
            "experiment.algorithm": "robust",
            "model.kind": "linear",
            "data.devices": 10,
            "data.samples_per_device": 100,
            "data.d": 10,
            "estimator.v": 0.5,
            "attack.kind": "sign_flip",
            "attack.alpha": 0.2,
            "aggregator.beta": 0.25,
        },
    },
    "baseline-bulyan-m40": {
        "why": "bulyan at m=40 and the per-device loop; bypasses the estimator entirely",
        "overrides": {
            "experiment.algorithm": "baseline",
            "aggregator.kind": "bulyan",
            "model.kind": "linear",
            "data.devices": 40,
            "data.samples_per_device": 200,
            "data.d": 10,
            "attack.kind": "sign_flip",
            "attack.alpha": 0.2,
        },
    },
    "compressed-logistic": {
        "why": "compressed loop, codec, norm rule, dynamic attackers and the estimator's extreme-input path at d=40",
        "overrides": {
            "experiment.algorithm": "robust_compressed",
            "model.kind": "logistic",
            "data.devices": 20,
            "data.samples_per_device": 50,
            "data.d": 40,
            "compressor.kind": "randk",
            "compressor.p": 0.25,
            "attack.kind": "mean_shift",
            "attack.alpha": 0.1,
            "attack.dynamic": "true",
        },
    },
}


def overrides(name: str, seed: int) -> dict:
    """Every ``section.key`` the workload sets, the seed included."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return {
        **WORKLOADS[name]["overrides"],
        "experiment.rounds": ROUNDS,
        "experiment.repetitions": REPETITIONS,
        "experiment.seed": seed << SEED_SHIFT,
    }


def write_ini(path, name: str, seed: int, extra=None) -> None:
    """Render the workload (plus ``extra`` overrides) as a heavyfed config file."""
    parser = configparser.ConfigParser(interpolation=None)
    for key, value in {**overrides(name, seed), **(extra or {})}.items():
        section, option = key.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, str(value))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
