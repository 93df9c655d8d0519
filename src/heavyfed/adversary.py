"""Byzantine device behaviour: subset selection and message corruption.

The adversary is omniscient: it observes every would-be honest wire message
before choosing what the Byzantine devices send.  It never touches local
datasets, only uploads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

DEFAULT_STRENGTH = {
    "none": 0.0,
    "sign_flip": 5.0,       # flip-and-scale factor on the good mean
    "large_value": 100.0,   # magnitude of the all-ones upload
    "gaussian_noise": 1.0,  # noise standard deviation
    "mean_shift": 1.0,      # shift in units of the good coordinate-wise std
}
ATTACK_KINDS = tuple(DEFAULT_STRENGTH)
# Kinds whose Byzantine message does not read the row's own upload: corrupt
# overwrites those rows, so the local stage need not estimate them.
# gaussian_noise perturbs the row's own upload.
REPLACES_ROW = frozenset({"sign_flip", "large_value", "mean_shift"})


@dataclass(frozen=True)
class AttackSpec:
    """Attack family, its strength parameter, and the Byzantine population."""

    kind: str = "none"
    strength: float = 0.0
    alpha: float = 0.0
    dynamic: bool = False

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise InvalidConfig(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.alpha < 0.5:
            raise InvalidConfig(f"alpha must be < 0.5 and >= 0 (got {self.alpha})")
        if not math.isfinite(self.strength) or self.strength < 0.0:
            raise InvalidConfig(f"attack strength must be finite and >= 0, got {self.strength}")


def byzantine_count(alpha: float, m: int) -> int:
    """floor(alpha * m), tolerant of fp noise in the product."""
    if not 0.0 <= alpha < 0.5:
        raise InvalidConfig(f"alpha must lie in [0, 0.5), got {alpha}")
    return int(math.floor(round(alpha * m, 12)))


def select_byzantine(m: int, alpha: float, rng) -> frozenset:
    """floor(alpha * m) distinct devices of m, drawn from ``rng``.

    With no Byzantine device the set is empty and ``rng`` may be ``None``.
    """
    count = byzantine_count(alpha, m)
    if count == 0:
        return frozenset()
    return frozenset(int(i) for i in rng.choice(m, size=count, replace=False))


def corrupt(attack: AttackSpec, honest_uploads, byz_set, rng) -> np.ndarray:
    """Replace the rows of ``byz_set`` (perturb them, for kinds outside
    ``REPLACES_ROW``); every other row passes through.

    ``honest_uploads`` is the ``(m, d)`` array (or a list of m vectors) of
    every device's would-be honest message: the adversary sees them all.
    Statistics of the good uploads are taken over rows outside ``byz_set``
    only.  Gaussian noise is drawn row by row in ascending device order.
    """
    uploads = np.asarray(honest_uploads, dtype=float)
    if attack.kind == "none" or not byz_set:
        return uploads
    byz = sorted(byz_set)
    honest_rows = np.ones(uploads.shape[0], dtype=bool)
    honest_rows[byz] = False
    good = uploads[honest_rows]
    if good.shape[0] == 0:
        raise InvalidConfig("corrupt needs at least one good device")
    out = uploads.copy()
    if attack.kind not in REPLACES_ROW:  # gaussian_noise
        out[byz] += rng.normal(0.0, attack.strength, size=(len(byz), uploads.shape[1]))
        return out
    good_mean = good.mean(axis=0)
    if attack.kind == "sign_flip":
        out[byz] = -attack.strength * good_mean
    elif attack.kind == "large_value":
        out[byz] = attack.strength
    else:  # mean_shift: hide just outside the good cluster
        # good.std(axis=0)'s arithmetic, reusing the mean
        x = good - good_mean
        x *= x
        out[byz] = good_mean + attack.strength * np.sqrt(np.add.reduce(x, axis=0) / good.shape[0])
    return out
