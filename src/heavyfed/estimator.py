"""Heavy-tail-robust mean estimation of per-sample gradients.

Coordinate by coordinate, the estimator rescales each sample, pushes it
through a bounded odd truncation curve, and replaces the truncated value by
its expectation under multiplicative Gaussian noise, for which a closed form
exists.  Applied to per-sample loss gradients it gives each device a local
gradient estimate whose error concentrates even when the data admits only a
coordinate-wise bounded second raw moment.

``smoothed_truncate(a, b)`` is that expectation for any ``(a, b)``.  The
estimator only ever evaluates it on the line ``b = |a| / sqrt(tau)``, an odd
function of ``a`` alone for the run's fixed tau, so it reads it from a
piecewise-Chebyshev table built from ``smoothed_truncate`` once per tau on
first use, of the lowest degree that meets the table's tolerance.
``robust_gradient`` builds one row of samples per entry it estimates (every
entry, or those a mask keeps) and sums each row along itself.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, InvalidConfig
from .losses import per_sample_gradients

SQRT2 = math.sqrt(2.0)

# Saturation value of the truncation curve, 2*sqrt(2)/3.  Every estimate the
# scalar estimator produces is bounded by this times the scale s.
TRUNCATION_CAP = 2.0 * SQRT2 / 3.0

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

def _ndtr(x):
    # standard normal CDF of a 1-d array, elementwise, from math.erfc; the
    # estimator's kernel reads the table, so this runs only in
    # smoothed_truncate and the table build
    t = np.ravel(-x / SQRT2).tolist()
    return 0.5 * np.fromiter(map(math.erfc, t), float, len(t))


# Beyond this magnitude of |a| + b the closed form loses accuracy: where
# b >> |a| its terms cancel, and the rounding of its _ndtr and exp arguments
# costs about |a|**2 ulps.  smoothed_truncate integrates by quadrature there.
# At 10 both branches agree with a 50-digit reference to about 1e-14.
_CLOSED_FORM_LIMIT = 10.0

# Relative scale below which b is treated as exactly zero: the noise then
# shifts the truncation by less than one ulp, and treating it as zero keeps
# (sqrt2 +- a)/b representable so no inf * 0 products arise downstream.
_B_TINY = 1e-300

# The estimator's table of g(r) = smoothed_truncate(r, r / sqrt(tau)), r >= 0:
# _TABLE_PIECES pieces of one degree, uniform in z = log1p(r / _TABLE_R0)
# over 0 <= r <= _TABLE_END, and one piece in _TABLE_END / r beyond, where g
# is analytic in 1 / r.  The build checks every piece against
# smoothed_truncate at _TABLE_CHECK points (at 8, a degree-3 table passed at
# tau = 32, yet missed by 1.2e-12 between them) and refuses a table that
# misses by more than _CHECK_TOL there: between them a table misses by up to
# 1.16x that (90 taus, 1e5 random points each), within _TABLE_TOL.  The kernel
# costs one Horner step per degree, whatever the piece count, so _line_table
# takes the lowest degree in _TABLE_DEGREES that passes, for about 1e-4 <= tau
# <= 2e5: degree 3 from about 0.25 to 20, which holds robust-ref's 16.9,
# degree 4 at compressed-logistic's 32, degree 7 at 1e-4.  Degree 2 misses by
# about 3e-10.
_TABLE_DEGREES = range(3, 9)
_TABLE_PIECES = 4096
_TABLE_CHECK = 18
_TABLE_R0 = 0.5
_TABLE_END = 1e4
_TABLE_TOL = 1e-12
_CHECK_TOL = 0.8 * _TABLE_TOL
_INV_WIDTH = _TABLE_PIECES / math.log1p(_TABLE_END / _TABLE_R0)  # pieces per unit of z

# Points per smoothed_truncate call in the build.  Its closed form and
# quadrature hold about 190 bytes of temporaries per point, so one call on
# every check point of the table would take some 14 MB.  In chunks the build
# peaks at about 0.8 MB at robust-ref's tau and 1.2 MB at degree 7.  A build
# takes about 35-50 ms at the workloads' taus and up to 0.15 s at the ends of
# the tau range, most of it in the check.
_LINE_CHUNK = 1024

# Elements per table evaluation when the estimator evaluates a batch.  The
# kernel makes about 35 numpy calls per block, so small blocks pay for call
# overhead and large ones leave the cache.  On captured kernel inputs, 16384
# ran 10000-element batches 5-20% faster than 4096 and tied with 4096 and
# 8192 on 40000-element ones, where whole-batch evaluation ran about 20%
# slower at 1.75x the peak memory.  robust-ref's batches now hold 8000
# elements and compressed-logistic's 7000-11000, one block each.
_BLOCK = 16384

# Per-thread block buffers of the table kernel, kept between calls.  Buffers
# allocated afresh for every block are returned to the system by glibc after
# each batch and faulted in again on the next one (about 113000 minor page
# faults per two-repetition compressed-logistic experiment), which makes the
# kernel's speed follow the machine's memory load.
_WORKSPACE = threading.local()


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
    p_in = _ndtr(v_minus)  # P(X <= sqrt2)
    p_low = _ndtr(-v_plus)  # P(X < -sqrt2)
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
    high = _ndtr(-(SQRT2 - a) / b)
    low = _ndtr(-(SQRT2 + a) / b)
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
    closed = ~tiny & ~extreme
    out = np.empty(a.shape, dtype=float)
    out[tiny] = soft_truncate(r[tiny])
    out[closed] = _closed_form(r[closed], b[closed])
    out[extreme] = _smoothed_by_quadrature(r[extreme], b[extreme])
    np.clip(out, 0.0, TRUNCATION_CAP, out=out)
    np.copysign(out, a, out=out)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class EstimatorParams:
    """Scale s and noise level tau of the robust scalar estimator.  A tau whose
    table misses ``smoothed_truncate`` is refused here, not on first use."""

    s: float
    tau: float

    def __post_init__(self):
        for name in ("s", "tau"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidConfig(f"estimator parameter {name} must be finite and > 0, got {value}")
        _line_table(self.tau)


def default_params(n, m, d, v, diameter, lipschitz, variant="plain"):
    """Confidence schedule s = sqrt(n v / (2 ln(1/zeta))), tau = sqrt(2 ln(1/zeta)).

    ``variant="plain"`` ties zeta to system size for the coordinate-wise
    trimmed aggregation loop; ``variant="compressed"`` for the norm-based
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
    return EstimatorParams(s=math.sqrt(n * v / (2.0 * log_inv_zeta)), tau=math.sqrt(2.0 * log_inv_zeta))


def _chebyshev_points(n):
    # the n Chebyshev points of the first kind, mapped to (0, 1) ascending
    return 0.5 - 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)


class _LineTable:
    """``g(r) = smoothed_truncate(r, r / sqrt(tau))`` for ``r >= 0`` as a table.

    Column ``p`` of ``coef`` holds the ``degree + 1`` monomial coefficients of
    piece ``p`` in its local coordinate ``u`` in [0, 1]: ``z * _INV_WIDTH - p``
    for the pieces uniform in ``z = log1p(r / _TABLE_R0)``, ``_TABLE_END / r``
    for the tail piece.  Each piece interpolates ``smoothed_truncate`` at the
    Chebyshev points of ``u``, all pieces in one solve.
    """

    def __init__(self, tau, degree):
        self.degree = degree
        nodes = _chebyshev_points(degree + 1)
        values = _on_line(_radii(nodes, np.arange(_TABLE_PIECES + 1)), tau)
        self.coef = np.linalg.solve(np.vander(nodes, increasing=True), values.T)
        # g(0) = 0 exactly, so inputs that are exactly zero estimate exactly zero
        self.coef[0, 0] = 0.0
        self.coef.flags.writeable = False
        miss = self._miss(tau)
        if not miss <= _CHECK_TOL:
            raise InvalidConfig(
                f"estimator table for tau={tau} misses smoothed_truncate by {miss:.2g} "
                f"with {_TABLE_PIECES} pieces of degree {degree} (check tolerance {_CHECK_TOL:g})"
            )

    def _miss(self, tau):
        # the largest miss at the check points, a chunk of pieces at a time;
        # a table that fails stops at its first failing chunk
        u = _chebyshev_points(_TABLE_CHECK)
        step = _LINE_CHUNK // _TABLE_CHECK
        miss = 0.0
        for first in range(0, _TABLE_PIECES + 1, step):
            r = _radii(u, np.arange(first, min(first + step, _TABLE_PIECES + 1))).ravel()
            q = r / _TABLE_R0
            got = self.magnitude(q, np.empty_like(q), _scratch(q.size))
            miss = max(miss, np.abs(got - _on_line(r, tau)).max())
            if not miss <= _CHECK_TOL:
                break
        return miss

    def magnitude(self, q, out, scratch):
        """g at ``r = q * _TABLE_R0`` for ``q >= 0`` into ``out``, which is
        returned; NaN where q is NaN or inf.  ``scratch`` is ``_scratch`` of
        at least q's size."""
        u, term, piece = (buf[: q.size] for buf in scratch)
        np.log1p(q, out=u)
        u *= _INV_WIDTH
        # fmin sends NaN to a valid piece, where u stays NaN
        np.fmin(u, _TABLE_PIECES - 1, out=out)
        np.copyto(piece, out, casting="unsafe")
        u -= piece
        q_end = _TABLE_END / _TABLE_R0
        tail = q > q_end
        if tail.any():
            q_tail = q[tail]
            # g(inf) is finite; an infinite input must stay visible as NaN
            u[tail] = np.where(np.isinf(q_tail), np.nan, q_end / q_tail)
            piece[tail] = _TABLE_PIECES
        # every index is a valid piece; "clip" only spares take a buffered copy
        self.coef[self.degree].take(piece, out=out, mode="clip")
        for row in self.coef[self.degree - 1 :: -1]:
            out *= u
            out += row.take(piece, out=term, mode="clip")
        return out


def _radii(u, index):
    # r at local coordinates u of the pieces in index, one row per piece;
    # piece _TABLE_PIECES is the tail
    r = index[:, None] + u
    r /= _INV_WIDTH
    np.expm1(r, out=r)
    r *= _TABLE_R0
    r[index == _TABLE_PIECES] = _TABLE_END / u
    return r


def _scratch(size):
    # buffers u, term, piece of _LineTable.magnitude
    return np.empty(size), np.empty(size), np.empty(size, dtype=np.intp)


def _workspace(size):
    # this thread's kernel buffers (q, scratch), grown to hold size elements
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None or buffers[0].size < size:
        buffers = _WORKSPACE.buffers = (np.empty(size), _scratch(size))
    return buffers


def _on_line(r, tau):
    # smoothed_truncate(r, r / sqrt(tau)) for r >= 0, _LINE_CHUNK points per call
    flat = np.ravel(r)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _LINE_CHUNK):
        x = flat[start : start + _LINE_CHUNK]
        out[start : start + _LINE_CHUNK] = smoothed_truncate(x, x / math.sqrt(tau))
    return out.reshape(np.shape(r))


def _line_table(tau):
    # the lowest degree whose table passes its check, kept for the life of the
    # process: a table is at most 4097 x 9 doubles (295 KB), a build 33-130 ms;
    # a refused tau keeps its refusal, which took 75-150 ms over every degree
    table = _table_or_refusal(tau)
    if isinstance(table, str):
        raise InvalidConfig(table)
    return table


@functools.cache
def _table_or_refusal(tau):
    for degree in _TABLE_DEGREES:
        try:
            return _LineTable(tau, degree)
        except InvalidConfig as exc:
            refusal = str(exc)
    return refusal


def _smoothed_values(x, params: EstimatorParams):
    # smoothed_truncate at a = x / s, b = |x| / (s sqrt(tau)), elementwise,
    # from the table of the run's tau, over the flattened batch in blocks of
    # _BLOCK elements; odd by construction through copysign
    table = _line_table(params.tau)
    flat = np.ravel(x)
    out = np.empty_like(flat)
    q_buf, scratch = _workspace(min(flat.size, _BLOCK))
    scale = 1.0 / (_TABLE_R0 * params.s)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        q = np.abs(block, out=q_buf[: block.size])
        q *= scale
        value = table.magnitude(q, out[start : start + _BLOCK], scratch)
        np.clip(value, 0.0, TRUNCATION_CAP, out=value)
        np.copysign(value, block, out=value)
    return out.reshape(np.shape(x))


def robust_gradient(model, w, data, params: EstimatorParams, keep=None) -> np.ndarray:
    """Coordinate-wise robust mean of the per-sample loss gradients.

    Every coordinate of the returned vector is the scalar estimator applied
    to that coordinate of the per-sample gradients over ``data``.  Stacked
    shards ``(m, n, p)`` give one row per shard, ``(m, dim)``.

    ``keep``, a boolean mask of the result's shape (``None``: every entry),
    names the entries to estimate, each from one row of its samples summed
    along itself, and 0.0 elsewhere: byte for byte ``np.where(keep,
    robust_gradient(...), 0.0)``.
    """
    if len(data) == 0:
        raise EmptyInput("robust_gradient needs a non-empty dataset")
    shape = data.labels.shape[:-1] + (model.dim,)
    if keep is None:
        keep = np.ones(shape, dtype=bool)
    elif np.shape(keep) != shape:
        raise DimensionMismatch(f"keep mask of shape {np.shape(keep)} for a result of shape {shape}")
    entries = np.nonzero(keep)
    values = _smoothed_values(per_sample_gradients(model, w, data, entries), params)
    out = np.zeros(shape)
    out[entries] = params.s * (np.add.reduce(values, axis=-1) / len(data))
    return out
