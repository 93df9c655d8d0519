"""Heavy-tail-robust mean estimation for scalars and per-sample gradients.

The scalar estimator rescales each sample, pushes it through a bounded odd
truncation curve, and replaces the truncated value by its expectation under
multiplicative Gaussian noise, for which a closed form exists.  Applied
coordinate-wise to per-sample loss gradients it gives each device a local
gradient estimate whose error concentrates even when the data admits only a
coordinate-wise bounded second raw moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import EmptyInput, InvalidConfig
from .losses import per_sample_gradients

SQRT2 = math.sqrt(2.0)

# Saturation value of the truncation curve, 2*sqrt(2)/3.  Every estimate the
# scalar estimator produces is bounded by this times the scale s.
TRUNCATION_CAP = 2.0 * SQRT2 / 3.0

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Beyond this magnitude of |a| + b the closed form loses absolute accuracy
# to cancellation (its terms grow cubically while the result stays
# bounded); smoothed_truncate switches to direct quadrature there.
_CLOSED_FORM_LIMIT = 1e3

# Relative scale below which b is treated as exactly zero: the noise then
# shifts the truncation by less than one ulp, and treating it as zero keeps
# (sqrt2 +- a)/b representable so no inf * 0 products arise downstream.
_B_TINY = 1e-300

# Elements per smoothed_truncate call when the estimator evaluates a batch:
# few enough calls that per-call overhead vanishes, small enough blocks that
# the kernel's dozen temporaries stay in cache and off the peak memory.
_BLOCK = 4096


def _gauss_legendre_nodes():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    # force exact +- symmetry so the smoothed curve stays numerically odd
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


_GL_NODES, _GL_WEIGHTS = _gauss_legendre_nodes()


def soft_truncate(x):
    """Bounded odd influence curve: cubic in the core, clipped outside.

    Returns ``x - x**3 / 6`` for ``|x| <= sqrt(2)`` and ``+-2*sqrt(2)/3``
    beyond.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    core = x - x**3 / 6.0
    out = np.where(x > SQRT2, TRUNCATION_CAP, np.where(x < -SQRT2, -TRUNCATION_CAP, core))
    return float(out) if out.ndim == 0 else out


def _closed_form(r, b):
    # E[soft_truncate(X)] for X ~ N(r, b^2), r >= 0, b > 0, from the moments
    # of X over the window |X| <= sqrt2 where the curve is cubic.  The window
    # probability is P(X <= sqrt2) - P(X < -sqrt2), both near tails once
    # r > sqrt2, and with b * v-+ = sqrt2 -+ r the density terms reduce to
    # quadratic coefficients of phi(v-) +- phi(v+), so the cubic core is
    # never added in full and then cancelled.
    v_minus = (SQRT2 - r) / b
    v_plus = (SQRT2 + r) / b
    p_in = ndtr(v_minus)  # P(X <= sqrt2)
    p_low = ndtr(-v_plus)  # P(X < -sqrt2)
    with np.errstate(over="ignore"):  # v**2 -> inf is fine: exp(-inf) = 0
        phi_minus = np.exp(-0.5 * v_minus * v_minus)
        phi_plus = np.exp(-0.5 * v_plus * v_plus)
    r2 = r * r
    b2 = b * b
    density = (_INV_SQRT_2PI * b) * (
        (SQRT2 / 6.0) * r * (phi_minus + phi_plus) + ((r2 + 2.0 * b2 - 4.0) / 6.0) * (phi_minus - phi_plus)
    )
    window = (p_in - p_low) * r * (1.0 - r2 / 6.0 - 0.5 * b2)
    return window + TRUNCATION_CAP * (1.0 - p_in - p_low) + density


def _smoothed_by_quadrature(a, b):
    # stable evaluation for large |a| or b: clip probabilities plus the
    # bounded window integral of t - t^3/6 against the N(a, b^2) density,
    # integrated in t over [-sqrt2, sqrt2] with 8-point Gauss-Legendre
    high = ndtr(-(SQRT2 - a) / b)
    low = ndtr(-(SQRT2 + a) / b)
    t = SQRT2 * _GL_NODES[None, :]
    core = t - t**3 / 6.0
    z = (t - a[:, None]) / b[:, None]
    with np.errstate(over="ignore"):  # z**2 -> inf is fine: exp(-inf) = 0
        density = np.exp(-0.5 * z * z) * (_INV_SQRT_2PI / b[:, None])
    window = SQRT2 * (density * core * _GL_WEIGHTS[None, :]).sum(axis=1)
    return TRUNCATION_CAP * (high - low) + window


def smoothed_truncate(a, b):
    """Expectation of ``soft_truncate(a + b*u)`` under ``u ~ N(0, 1)``.

    Uses a closed form over the moments of the gaussian in the truncation
    window for moderate arguments and a clip-probability + quadrature
    evaluation where the closed form would cancel catastrophically.  Every
    branch is evaluated at ``|a|`` and the sign of ``a`` restored
    afterwards, so the curve is odd by construction; the magnitude is
    clipped to ``[0, cap]``, where the exact expectation lies for ``a >= 0``.
    """
    a = np.asarray(a, dtype=float)
    b = np.abs(np.asarray(b, dtype=float))
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    r = np.abs(a)

    tiny = b < _B_TINY * (SQRT2 + r)
    extreme = (r + b > _CLOSED_FORM_LIMIT) & ~tiny
    if not (tiny.any() or extreme.any()):
        out = _closed_form(r, b)
    else:
        out = np.empty(a.shape, dtype=float)
        closed = ~tiny & ~extreme
        out[tiny] = soft_truncate(r[tiny])
        out[closed] = _closed_form(r[closed], b[closed])
        out[extreme] = _smoothed_by_quadrature(r[extreme], b[extreme])
    np.clip(out, 0.0, TRUNCATION_CAP, out=out)
    np.copysign(out, a, out=out)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class EstimatorParams:
    """Scale / noise schedule of the robust scalar estimator.

    ``log_inv_zeta`` is ``ln(1/zeta)`` for the confidence level ``zeta``.  It
    is stored in place of ``zeta`` because scheduled confidence levels
    underflow double precision once the model dimension is moderately large.
    """

    s: float
    tau: float
    v: float
    log_inv_zeta: float

    def __post_init__(self):
        for name in ("s", "tau", "v", "log_inv_zeta"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidConfig(f"estimator parameter {name} must be finite and > 0, got {value}")

    @property
    def zeta(self) -> float:
        """Confidence level; may underflow to 0.0, for display only."""
        return math.exp(-self.log_inv_zeta)

    @classmethod
    def from_log_inv_zeta(cls, log_inv_zeta: float, n: int, v: float) -> "EstimatorParams":
        """Standard schedule s = sqrt(n*v / (2 ln(1/zeta))), tau = sqrt(2 ln(1/zeta))."""
        if not math.isfinite(log_inv_zeta) or log_inv_zeta <= 0.0:
            raise InvalidConfig(f"log_inv_zeta must be finite and > 0, got {log_inv_zeta}")
        if n < 1:
            raise InvalidConfig(f"sample count n must be >= 1, got {n}")
        if v <= 0.0:
            raise InvalidConfig(f"moment bound v must be > 0, got {v}")
        s = math.sqrt(n * v / (2.0 * log_inv_zeta))
        tau = math.sqrt(2.0 * log_inv_zeta)
        return cls(s=s, tau=tau, v=v, log_inv_zeta=log_inv_zeta)

    @classmethod
    def from_zeta(cls, zeta: float, n: int, v: float) -> "EstimatorParams":
        if not 0.0 < zeta < 1.0:
            raise InvalidConfig(f"zeta must lie in (0, 1), got {zeta}")
        return cls.from_log_inv_zeta(-math.log(zeta), n, v)


def default_params(n, m, d, v, diameter, lipschitz, variant="plain"):
    """Confidence schedule tied to system size.

    ``variant="plain"`` is the schedule for the coordinate-wise trimmed
    aggregation loop; ``variant="compressed"`` the one for the norm-based
    loop.  ``ln(1/zeta)`` is assembled directly in log space: the product
    form underflows double precision for moderate ``d``.

    Args:
      n: per-device sample count.
      m: device count.
      d: model dimension.
      v: coordinate-wise second-raw-moment bound of the per-sample gradients.
      diameter: diameter of the parameter space.
      lipschitz: aggregate coordinate-wise Lipschitz constant of the gradients.
      variant: "plain" or "compressed".
    """
    if min(n, m, d) < 1:
        raise InvalidConfig(f"n, m, d must all be >= 1, got n={n} m={m} d={d}")
    if v <= 0.0 or diameter <= 0.0 or lipschitz <= 0.0:
        raise InvalidConfig("v, diameter and lipschitz must all be > 0")
    if variant == "plain":
        log_inv_zeta = (
            d * math.log(diameter * n * lipschitz)
            + math.log((m + 1) * d)
            + d * math.log(m * n)
        )
    elif variant == "compressed":
        log_inv_zeta = (
            math.log(2.0)
            + d * math.log(diameter * math.sqrt(m * n))
            + math.log(d)
            + d * math.log(m * n)
        )
    else:
        raise InvalidConfig(f"unknown schedule variant {variant!r}")
    if log_inv_zeta <= 0.0:
        raise InvalidConfig("schedule yields a confidence level >= 1; increase diameter, n or lipschitz")
    return EstimatorParams.from_log_inv_zeta(log_inv_zeta, n, v)


def _smoothed_values(x, params: EstimatorParams):
    # smoothed_truncate at a = x / s, b = |x| / (s sqrt(tau)), elementwise,
    # over the flattened batch in blocks of _BLOCK elements
    flat = np.ravel(x)
    out = np.empty_like(flat)
    noise_scale = params.s * math.sqrt(params.tau)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        out[start : start + _BLOCK] = smoothed_truncate(block / params.s, np.abs(block) / noise_scale)
    return out.reshape(np.shape(x))


def robust_scalar_mean(samples, params: EstimatorParams) -> float:
    """Robust mean of scalar samples; bounded by ``2*sqrt(2)/3 * s``."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptyInput("robust_scalar_mean needs at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    return float(params.s * _smoothed_values(x, params).mean())


def robust_gradient(model, w, data, params: EstimatorParams) -> np.ndarray:
    """Coordinate-wise robust mean of the per-sample loss gradients.

    Every coordinate of the returned vector is the scalar estimator applied
    to that coordinate of the per-sample gradients over ``data``.  Stacked
    shards ``(m, n, p)`` give one row per shard, ``(m, dim)``.
    """
    if len(data) == 0:
        raise EmptyInput("robust_gradient needs a non-empty dataset")
    grads = per_sample_gradients(model, w, data)
    return params.s * _smoothed_values(grads, params).mean(axis=-2)


def continuity_constant(tau: float) -> float:
    """Lipschitz constant of the scalar estimator w.r.t. the l1 sample distance / n."""
    if tau <= 0.0:
        raise InvalidConfig(f"tau must be > 0, got {tau}")
    return float(1.0 - 2.0 * ndtr(-math.sqrt(tau)) + math.sqrt(2.0 / (tau * math.pi)) * math.exp(-0.5 * tau))
