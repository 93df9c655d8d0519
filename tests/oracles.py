"""Independent oracles shared by the unit and acceptance suites.

Everything here deliberately avoids the closed forms under test: expectation
integrals are estimated by Monte Carlo, concentration and continuity are
measured on freshly drawn samples, against the theory's constant and the
codec's retained energy computed here.  The stacked-shard data checks
batched calls against per-shard ones.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from heavyfed import Dataset, EstimatorParams, LossModel, encode, robust_gradient, soft_truncate
from heavyfed.compression import keep_mask

GRID_A = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)
GRID_B = (0.0, 0.1, 0.5, 1.0, 5.0)


def mc_smoothed(a, b, draws, seed=20240811):
    """Monte-Carlo estimate of E[soft_truncate(a + b*u)], u ~ N(0,1).

    Returns (mean, standard error).
    """
    u = np.random.default_rng(seed).standard_normal(draws)
    values = soft_truncate(a + b * u)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(draws))


def exact_smoothed(a, b):
    """E[soft_truncate(a + b*u)], u ~ N(0,1), at 50 significant digits.

    Sums clip-probability terms and the cubic core integrated over the window
    |a + b*u| <= sqrt(2) term by term, using the moments of the standard
    normal truncated to that window.  At this precision the cancellation
    between the terms costs nothing a double can see.
    """
    with mpmath.workdps(50):
        a, b = mpmath.mpf(float(a)), abs(mpmath.mpf(float(b)))
        root2 = mpmath.sqrt(2)
        cap = 2 * root2 / 3
        if b == 0:
            return float(a - a**3 / 6 if abs(a) <= root2 else mpmath.sign(a) * cap)
        lo, hi = (-root2 - a) / b, (root2 - a) / b
        # moments[k] = integral of u^k phi(u) over [lo, hi], by the recurrence
        # M_k = (k - 1) M_{k-2} + lo^(k-1) phi(lo) - hi^(k-1) phi(hi)
        moments = [mpmath.ncdf(hi) - mpmath.ncdf(lo), mpmath.npdf(lo) - mpmath.npdf(hi)]
        for k in (2, 3):
            moments.append((k - 1) * moments[k - 2] + lo ** (k - 1) * mpmath.npdf(lo) - hi ** (k - 1) * mpmath.npdf(hi))
        # (a + b u) - (a + b u)^3 / 6 as a polynomial in u
        coeffs = [a - a**3 / 6, b - a * a * b / 2, -a * b * b / 2, -(b**3) / 6]
        window = mpmath.fsum(c * mk for c, mk in zip(coeffs, moments))
        return float(cap * (mpmath.ncdf(-hi) - mpmath.ncdf(lo)) + window)


def schedule(zeta, n, v):
    """The paper's schedule at confidence level zeta: s = sqrt(n v / (2 ln(1/zeta))),
    tau = sqrt(2 ln(1/zeta))."""
    log_inv_zeta = -math.log(zeta)
    return EstimatorParams(s=math.sqrt(n * v / (2.0 * log_inv_zeta)), tau=math.sqrt(2.0 * log_inv_zeta))


def robust_mean(samples, params: EstimatorParams):
    """The estimator's robust mean of each row of ``samples``, through
    ``robust_gradient``: a one-feature linear model at w = 0 with x = 1 and
    y = -sample has per-sample gradients equal to the samples."""
    x = np.asarray(samples, dtype=float)
    data = Dataset(np.ones(x.shape + (1,)), -x)
    return robust_gradient(LossModel("linear", 1), np.zeros(1), data, params)[..., 0]


def continuity_constant(tau):
    """Lipschitz constant of the scalar estimator w.r.t. the l1 sample distance / n."""
    return math.erf(math.sqrt(0.5 * tau)) + math.sqrt(2.0 / (tau * math.pi)) * math.exp(-0.5 * tau)


def effective_delta(spec, x, rng=None):
    """Measured retained-energy fraction 1 - ||Q(x) - x||^2 / ||x||^2 (1.0 at x = 0).

    A vector gives a float; an ``(m, d)`` array gives one delta per row.
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(1, -1) if x.ndim == 1 else x
    wire, _ = encode(spec, rows, mask=keep_mask(spec, rows.shape, rng))
    err = wire - rows
    energy = np.sum(rows * rows, axis=1)
    lost = np.divide(np.sum(err * err, axis=1), energy, out=np.zeros_like(energy), where=energy != 0.0)
    delta = 1.0 - lost
    return float(delta[0]) if x.ndim == 1 else delta


def concentration_failures(trials=1000, n=100, v=0.5, zeta=0.01, sigma=0.55848, seed=7):
    """Fraction of trials where the estimate of a centered log-normal mean
    escapes the theoretical deviation bound sqrt(2 v ln(1/zeta) / n) + sqrt(v / n)."""
    params = schedule(zeta, n, v)
    bound = math.sqrt(2.0 * v * math.log(1.0 / zeta) / n) + math.sqrt(v / n)
    rng = np.random.default_rng(seed)
    samples = rng.lognormal(0.0, sigma, size=(trials, n)) - math.exp(sigma * sigma / 2.0)
    return float(np.mean(np.abs(robust_mean(samples, params)) > bound)), bound


def continuity_worst_ratio(pairs=1000, n=50, seed=11):
    """Worst observed |est(X) - est(X')| / ((c/n) * sum |x - x'|) over random
    perturbation pairs, for the scheduled constant c = continuity_constant(tau)."""
    params = schedule(0.01, n, 0.5)
    c = continuity_constant(params.tau)
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(pairs):
        x = rng.standard_normal(n) * rng.uniform(0.05, 5.0)
        y = x.copy()
        mask = rng.random(n) < rng.uniform(0.05, 1.0)
        y[mask] += rng.standard_normal(mask.sum()) * rng.uniform(0.0, 4.0)
        xs.append(x)
        ys.append(y)
    denom = c / n * np.abs(np.subtract(xs, ys)).sum(axis=1)
    moved = denom != 0.0
    gap = np.abs(robust_mean(xs, params) - robust_mean(ys, params))
    return float(np.max(gap[moved] / denom[moved], initial=0.0))


STACKED_MODELS = [
    LossModel("linear", 4),
    LossModel("logistic", 4),
    LossModel("mlp", 4, hidden=3),
    LossModel("mlp", 4, hidden=3, objective="logistic"),
]


def stacked_shards(model, m=3, n=20, seed=5):
    """Heavy-tailed stacked shards ``(m, n, p)`` and a parameter vector."""
    rng = np.random.default_rng(seed)
    X = rng.lognormal(0.0, 1.5, size=(m, n, model.features))
    if model.kind == "linear" or model.objective == "squared":
        y = rng.standard_normal((m, n))
    else:
        y = rng.choice([-1.0, 1.0], size=(m, n))
    return Dataset(X, y), rng.standard_normal(model.dim)


def krum_reference(vectors, f):
    """Krum by its definition: each upload scores the sum of its m - f - 2
    smallest squared distances to the others, and the lowest score wins, an
    exact tie going to the smallest vector by Python tuple order (the first
    of equal ones).  Finite inputs only."""
    U = np.asarray(vectors, dtype=float)
    m = U.shape[0]
    sq = np.sum((U[:, None, :] - U[None, :, :]) ** 2, axis=2)
    scores = np.sort(sq, axis=1)[:, 1 : m - f - 1].sum(axis=1)
    best = np.flatnonzero(scores == scores.min())
    return U[min(best, key=lambda j: tuple(U[j]))].copy()


def bulyan_reference(vectors, f):
    """Bulyan as first written: each of the m - 2f krum picks re-sorts the
    pool's squared-distance sub-matrix, and exact score ties go to the
    smallest vector by Python tuple order.  Finite inputs only."""
    U = np.asarray(vectors, dtype=float)
    m = U.shape[0]
    sq = np.sum((U[:, None, :] - U[None, :, :]) ** 2, axis=2)
    pool = list(range(m))
    chosen = []
    while len(chosen) < m - 2 * f:
        if len(pool) == 1:
            pick = 0
        else:
            p = len(pool)
            keep = min(max(p - f - 2, 1), p - 1)
            scores = np.sort(sq[np.ix_(pool, pool)], axis=1)[:, 1 : keep + 1].sum(axis=1)
            best = np.flatnonzero(scores == scores.min())
            pick = int(min(best, key=lambda j: tuple(U[pool[j]])))
        chosen.append(pool.pop(pick))
    selected = U[chosen]
    median = np.median(selected, axis=0)
    keep = selected.shape[0] - 2 * f
    order = np.argsort(np.abs(selected - median), axis=0, kind="stable")
    return np.take_along_axis(selected, order[:keep], axis=0).mean(axis=0)


def corrupt_reference(attack, uploads, byz_set, rng):
    """``adversary.corrupt`` as first written: the good rows are taken with
    ``np.delete``."""
    uploads = np.asarray(uploads, dtype=float)
    if attack.kind == "none" or not byz_set:
        return uploads
    byz = sorted(byz_set)
    good = np.delete(uploads, byz, axis=0)
    good_mean = good.mean(axis=0)
    out = uploads.copy()
    if attack.kind == "sign_flip":
        out[byz] = -attack.strength * good_mean
    elif attack.kind == "large_value":
        out[byz] = attack.strength
    elif attack.kind == "gaussian_noise":
        out[byz] += rng.normal(0.0, attack.strength, size=(len(byz), uploads.shape[1]))
    else:
        out[byz] = good_mean + attack.strength * good.std(axis=0)
    return out
