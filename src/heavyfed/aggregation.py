"""Server-side aggregation rules for device gradient uploads."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidConfig, TooFewVectors


class Rule(NamedTuple):
    """An aggregation rule: its call, the spec fields a run under it reads,
    and what it may discard of m uploads and still aggregate."""

    call: Callable  # (uploads, spec) -> aggregate
    reads: tuple = ()
    trim_sides: int | None = None  # drops k per side, keeps one: k <= floor((m - 1) / sides)
    f_quotient: int | None = None  # tolerates f while m >= q f + 3: f <= floor((m - 3) / q)


# Each row looks its function up when called, so a wrapped module attribute
# is the one that runs.  ``mkrum`` selects like plain krum; the per-device
# momentum it reads is part of the engine's baseline local stage.
RULES = {
    "mean": Rule(lambda U, spec: mean(U)),
    "coord_trimmed": Rule(lambda U, spec: coord_trimmed_mean(U, spec.beta), ("beta",), trim_sides=2),
    "norm_trimmed": Rule(lambda U, spec: norm_trimmed_mean(U, spec.beta), ("beta",), trim_sides=1),
    "coord_median": Rule(lambda U, spec: coord_median(U)),
    "geo_median": Rule(lambda U, spec: geometric_median(U, spec.tol, spec.max_iter), ("tol", "max_iter")),
    "krum": Rule(lambda U, spec: krum(U, spec.f), ("f",), f_quotient=2),
    "bulyan": Rule(lambda U, spec: bulyan(U, spec.f), ("f",), f_quotient=4),
    "mkrum": Rule(lambda U, spec: krum(U, spec.f), ("f", "momentum"), f_quotient=2),
}
AGGREGATOR_KINDS = tuple(RULES)


@dataclass(frozen=True)
class AggregatorSpec:
    """Aggregation rule plus its parameters; ``RULES`` says which it reads."""

    kind: str = "mean"
    beta: float = 0.0
    f: int = 0
    momentum: float = 0.9
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if self.kind not in RULES:
            raise InvalidConfig(f"unknown aggregator kind {self.kind!r}")
        if not 0.0 <= self.beta < 0.5:
            raise InvalidConfig(f"trim fraction beta must lie in [0, 0.5), got {self.beta}")
        if self.f < 0:
            raise InvalidConfig(f"tolerated byzantine count f must be >= 0, got {self.f}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.tol <= 0.0 or self.max_iter < 1:
            raise InvalidConfig("geo_median needs tol > 0 and max_iter >= 1")


def _as_matrix(vectors):
    U = np.asarray(vectors, dtype=float)
    if U.ndim != 2 or U.shape[0] == 0:
        raise TooFewVectors("aggregation needs a non-empty list of equal-length vectors")
    return U


def max_trim(kind: str, m: int) -> int | None:
    """Largest trim count (per side) for m uploads; None for a rule that trims nothing."""
    sides = RULES[kind].trim_sides
    return None if sides is None else (m - 1) // sides


def max_f(kind: str, m: int) -> int | None:
    """Largest Byzantine count f for m uploads; None for a rule that takes no f."""
    quotient = RULES[kind].f_quotient
    return None if quotient is None else (m - 3) // quotient


def _check_f(kind, m, f):
    if f < 0:
        raise InvalidConfig(f"f must be >= 0, got {f}")
    limit = max_f(kind, m)
    if f > limit:
        raise TooFewVectors(f"{kind} tolerates f <= {limit} of {m} vectors, got f={f}")


def trim_count(beta: float, m: int) -> int:
    """Entries removed per trimmed side: ceil(beta * m), tolerant of fp noise."""
    if not 0.0 <= beta < 0.5:
        raise InvalidConfig(f"trim fraction beta must lie in [0, 0.5), got {beta}")
    return int(math.ceil(round(beta * m, 12)))


def mean(vectors) -> np.ndarray:
    return _as_matrix(vectors).mean(axis=0)


def coord_trimmed_mean(vectors, beta: float) -> np.ndarray:
    """Per coordinate: sort, drop the ceil(beta*m) smallest and largest, average."""
    U = _as_matrix(vectors)
    m = U.shape[0]
    k = trim_count(beta, m)
    if k > max_trim("coord_trimmed", m):
        raise TooFewVectors(f"trimming {k} per side leaves nothing of {m} vectors")
    if k == 0:
        return U.mean(axis=0)
    return np.sort(U, axis=0)[k : m - k].mean(axis=0)


def norm_trimmed_mean(vectors, beta: float) -> np.ndarray:
    """Drop the ceil(beta*m) vectors of largest Euclidean norm, average the rest."""
    U = _as_matrix(vectors)
    m = U.shape[0]
    k = trim_count(beta, m)
    if k > max_trim("norm_trimmed", m):
        raise TooFewVectors(f"trimming {k} vectors leaves nothing of {m}")
    if k == 0:
        return U.mean(axis=0)
    order = np.argsort(np.linalg.norm(U, axis=1), kind="stable")
    return U[order[: m - k]].mean(axis=0)


def coord_median(vectors) -> np.ndarray:
    """Per-coordinate median; central pair averaged for even counts."""
    return np.median(_as_matrix(vectors), axis=0)


def geometric_median(vectors, tol: float = 1e-8, max_iter: int = 1000) -> np.ndarray:
    """Weiszfeld iteration for the minimizer of sum_i ||y - g_i||_2.

    Starts from the mean; an iterate that lands on an input point is nudged
    off it so that the inverse-distance weights stay defined.  Returns the
    last iterate if max_iter is exhausted.
    """
    U = _as_matrix(vectors)
    centroid = U.mean(axis=0)
    scale = max(float(np.linalg.norm(U, axis=1).max()), 1.0)
    y = centroid
    for _ in range(max_iter):
        dist = np.linalg.norm(U - y, axis=1)
        hits = dist < 1e-12 * scale
        if np.any(hits):
            j = int(np.argmax(hits))
            away = centroid - U[j]
            norm = float(np.linalg.norm(away))
            if norm == 0.0:
                return U[j].copy()
            y = U[j] + (1e-6 * scale / norm) * away
            dist = np.linalg.norm(U - y, axis=1)
        weights = 1.0 / dist
        y_next = (weights[:, None] * U).sum(axis=0) / weights.sum()
        if np.linalg.norm(y_next - y) < tol:
            return y_next
        y = y_next
    return y


def _sq_distances(U):
    x = U[:, None, :] - U[None, :, :]
    x *= x
    return np.add.reduce(x, axis=2)


def _neighbour_count(p, f, floor=0):
    # Peers a krum score sums over in a pool of p: the p - f - 2 nearest, at
    # least `floor` of them, and never more than the p - 1 there are.  Bulyan's
    # late, small pools use floor 1 so the scores stay distance-based (an
    # all-zero score vector would make the pick depend on input order).
    return min(max(p - f - 2, floor), p - 1)


def _krum_scores(sq, f):
    # Sum of squared distances to the nearest peers, from the (m, m)
    # squared-distance matrix.  sq[i, i] = 0 is the minimum of row i, so
    # after a row sort the peers start at column 1.
    keep = _neighbour_count(sq.shape[0], f)
    return np.sort(sq, axis=1)[:, 1 : keep + 1].sum(axis=1)


def _lowest(scores, U, ids):
    # Position of the lowest score.  np.argmin takes the first of equal
    # scores, so an exact tie (structural among identical uploads, or mutual
    # nearest neighbours) goes instead to the lexicographically smallest
    # vector, the lowest position among equal ones: the pick then does not
    # depend on input order.  ids[j] is the row of U that scores[j] scores.
    j = int(scores.argmin())
    hits = scores == scores[j]
    if np.count_nonzero(hits) > 1:
        tied = np.flatnonzero(hits)
        j = int(tied[np.lexsort(U[[ids[t] for t in tied]].T[::-1])[0]])
    return j


def krum(vectors, f: int = 0) -> np.ndarray:
    """Return the upload closest (in summed squared distance) to its peers;
    an exact tie goes to the lexicographically smallest upload."""
    U = _as_matrix(vectors)
    m = U.shape[0]
    _check_f("krum", m, f)
    return U[_lowest(_krum_scores(_sq_distances(U), f), U, range(m))].copy()


def _bulyan_picks(U, f):
    """Indices of the m - 2f uploads that repeated krum picks select, in pick
    order, or None once a live score is NaN (no pick is defined then)."""
    m = U.shape[0]
    sq = _sq_distances(U)
    # Each row is sorted once.  A pick deletes its row, and its column from
    # every other row, so the pool's (p, p) arrays stay square, each row's
    # remaining entries stay sorted, and a score sums the same values, in
    # the same order, as a re-sort of the pool's sub-matrix would.  A sorted
    # row is one sequence of values, so vals[i, k] == sq[i, cols[i, k]].
    cols = np.argsort(sq, axis=1)
    vals = np.sort(sq, axis=1)
    live = list(range(m))  # the device each pool row belongs to
    chosen = []
    for p in range(m, 2 * f, -1):
        keep = _neighbour_count(p, f, floor=1)
        scores = np.add.reduce(vals[:, 1 : keep + 1], axis=1)
        j = _lowest(scores, U, live)
        if math.isnan(scores[j]):
            return None
        pick = live.pop(j)
        chosen.append(pick)
        others = cols != pick
        others[j] = False
        cols = cols[others].reshape(p - 1, p - 1)
        vals = vals[others].reshape(p - 1, p - 1)
    return chosen


def bulyan(vectors, f: int = 0) -> np.ndarray:
    """Krum-select m - 2f uploads, then average the m - 4f values closest to
    the coordinate median of the selection.

    A NaN score (a NaN upload, or an infinite one once it is scored against
    itself) leaves no pick defined; the aggregate is then NaN, which the
    engine reports as a diverged round.
    """
    U = _as_matrix(vectors)
    _check_f("bulyan", U.shape[0], f)
    chosen = _bulyan_picks(U, f)
    if chosen is None:
        return np.full(U.shape[1], np.nan)
    selected = U[chosen]
    # np.median's arithmetic on the column-sorted selection, which holds no
    # NaN: a NaN upload scores NaN before its first pick
    n = selected.shape[0]
    r = np.sort(selected, axis=0)
    median = r[n // 2] if n % 2 else (r[n // 2 - 1] + r[n // 2]) / 2
    order = np.argsort(np.abs(selected - median), axis=0, kind="stable")
    return selected[order[: n - 2 * f], np.arange(U.shape[1])].mean(axis=0)


def aggregate(spec: AggregatorSpec, vectors) -> np.ndarray:
    """Run the rule named by the spec."""
    return RULES[spec.kind].call(vectors, spec)
