"""Microbenchmark of the aggregation rules at m = 10, 40 and 100.

Inputs are seeded (m, 10) upload matrices: m - f honest rows around a common
mean and f = floor(0.2 m) sign-flipped Byzantine rows at random positions,
with f clamped to each rule's limit.  Each figure is the median time of one
call, in microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SIZES = (10, 40, 100)
DIM = 10
BYZ_FRACTION = 0.2
MIN_CALLS = 5
MIN_SECONDS = 0.03


# rule -> call(aggregation module, uploads, f); f is clamped to the rule's
# limit (krum needs m >= f + 3, bulyan m >= 4f + 3)
RULES = {
    "mean": lambda agg, U, f: agg.mean(U),
    "coord_trimmed_mean": lambda agg, U, f: agg.coord_trimmed_mean(U, f / len(U)),
    "norm_trimmed_mean": lambda agg, U, f: agg.norm_trimmed_mean(U, f / len(U)),
    "coord_median": lambda agg, U, f: agg.coord_median(U),
    "geometric_median": lambda agg, U, f: agg.geometric_median(U),
    "krum": lambda agg, U, f: agg.krum(U, min(f, len(U) - 3)),
    "bulyan": lambda agg, U, f: agg.bulyan(U, min(f, (len(U) - 3) // 4)),
}


def uploads(m: int, seed: int) -> tuple[np.ndarray, int]:
    """Seeded (m, DIM) uploads and the Byzantine count f."""
    rng = np.random.default_rng([seed, m])
    f = int(BYZ_FRACTION * m)
    honest = 1.0 + rng.standard_normal((m - f, DIM))
    byz = np.repeat(-5.0 * honest.mean(axis=0)[None, :], f, axis=0)
    return np.vstack([honest, byz])[rng.permutation(m)], f


def _time_call(call):
    call()  # warm-up, untimed
    times = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def run(aggregation, seed: int):
    """Return ({metric: microseconds}, absent rule names, problems)."""
    metrics, absent, problems = {}, [], []
    for rule, call in RULES.items():
        present = callable(getattr(aggregation, rule, None))
        if not present:
            absent.append(f"aggregation.{rule}")
        for m in SIZES:
            name = f"aggregation.{rule}.m{m}_us"
            if not present:
                metrics[name] = 0.0
                continue
            U, f = uploads(m, seed)
            seconds, out = _time_call(lambda: call(aggregation, U, f))
            out = np.asarray(out)
            if out.shape != (DIM,) or not np.all(np.isfinite(out)):
                problems.append(f"{name}: output shape {out.shape} or non-finite values")
            metrics[name] = 1e6 * seconds
    return metrics, absent, problems
