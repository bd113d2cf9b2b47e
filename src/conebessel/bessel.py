"""Bessel functions of matrix argument on the cone of PSD matrices.

The central object is the series

    J_mu(x) = sum over partitions lambda of
              (-1)^|lambda| Z_lambda(x) / ( (mu)_lambda |lambda|! ),

summed weight by weight with a certified tail bound: since the generalized
Pochhammer symbol satisfies (mu)_lambda >= 2^{-dq(q-1)/2} mu^|lambda| for
mu > rho - 1, and |Z_lambda(x)| <= Z_lambda(|x|) with the weight-k layer of
Z(|x|) summing to (tr|x|)^k, everything beyond weight K is bounded by

    2^{dq(q-1)/2} * sum_{k>K} (tr|x| / mu)^k / k!,

a scalar Poisson tail.  Truncation is therefore never silent: callers get
the certified bound, or a ConvergenceError carrying the bound achieved at
the weight cap.

The same function has an integral form against the ball density
Delta(I - v*v)^{mu-rho}, estimated here by Monte Carlo with exact draws
from that density; its normalization kappa_mu has a closed form in the
multivariate gamma function.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError
from .jack import (
    gen_pochhammer,
    layer_values,  # noqa: F401  (looked up here by the perfbench span recorder)
    layers,
)
from .linalg import (
    HermitianMatrix,
    StructureParams,
    _as_array,
    _ball_points,
    _ball_points as _ball_proposal_weights,  # noqa: F401  (looked up here by the perfbench span recorder)
    _ball_variates,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_WEIGHT = 30
_CLASSICAL_TOL = 1e-12
_CLASSICAL_MAX_TERMS = 300
# theorem1_gap's argument mu * y needs more weights than the default
_GAP_TOL = 1e-9
_GAP_MAX_WEIGHT = 80


# unit roundoff of a double, its smallest normal, and the largest s whose
# e^s is a float
_U = 2.0 ** -53
_TINY = sys.float_info.min
_LOG_MAX = math.log(sys.float_info.max)


def _poisson_tail(k: int, s):
    """An upper bound on sum_{j > k} s^j / j!  for s >= 0, at a float s (a
    float) or an array (an array of its shape).

    Where s > k + 1 most of the mass lies beyond k and the tail is e^s less
    the head sum_{j <= k} s^j / j!; elsewhere it is summed from
    s^{k+1} / (k+1)! on (_tail_below_mode).  Every result is raised by a
    margin that covers its rounding, so that it never falls below the exact
    tail: the summands are products of rounded factors s / j, each rounding
    adds at most 2^-53 relative error, exp is taken to be within 2 ulp (numpy
    and libm measure within 0.67 ulp over [0, 709.78]), and a first term below
    the normal range adds (k + 2)^2 multiples of 2^-1073 for the bits it lost.
    The bound is 0 at s = 0 and inf where e^s overflows.
    """
    if isinstance(s, float):
        if s > k + 1:
            return _tail_above_mode(k, s, math.exp) if s <= _LOG_MAX else math.inf
        return _tail_below_mode(k, s)[0]
    s = np.asarray(s, dtype=float)
    below = ~(s > k + 1)
    if below.all():
        return _tail_below_mode_batch(k, s, _tail_below_mode(k, float(s.max()))[1])
    out = np.full(s.shape, math.inf)
    finite = ~below & (s <= _LOG_MAX)
    if finite.any():
        out[finite] = _tail_above_mode(k, s[finite], np.exp)
    if below.any():
        low = s[below]
        out[below] = _tail_below_mode_batch(k, low, _tail_below_mode(k, float(low.max()))[1])
    return out


def _tail_above_mode(k: int, s, exp):
    """e^s less the head, for k + 1 < s <= _LOG_MAX, raised by exp's error
    and the 3k roundings of the head; the head is at most half of e^s, so
    nothing cancels."""
    term = head = 1.0
    for j in range(1, k + 1):
        term = term * (s / j)
        head = head + term
    big = exp(s)
    tail = big - head
    return tail + (4.01 * _U) * big + ((3 * k + 2) * 1.01 * _U) * head + (4.0 * _U) * tail


def _tail_below_mode(k: int, s: float):
    """The tail at a float s <= k + 1, and the index j of its last summand.

    The terms fall from s^{k+1} / (k+1)! on.  They are summed relative to
    it, each one s / j times the last, until a term falls below 2^-53 of
    the sum; what is left is below the geometric bound term * s / (j + 1 - s).
    """
    first = 1.0
    for j in range(1, k + 2):
        first *= s / j
    ratio = total = 1.0
    j = k + 1
    while ratio > _U * total:
        j += 1
        ratio *= s / j
        total += ratio
    return _raised(k, s, first, total + ratio * s / (j + 1 - s), j), j


def _tail_below_mode_batch(k: int, s: np.ndarray, j: int) -> np.ndarray:
    """_tail_below_mode on an array, with the summands up to j for every
    point (j from its largest point, which needs the most), by Horner's
    rule from the geometric bound inwards."""
    steps = s * (1.0 / np.arange(1, j + 1))[:, None]
    total = 1.0 + s / (j + 1 - s)
    for row in steps[:k:-1]:
        total *= row
        total += 1.0
    return _raised(k, s, np.prod(steps[: k + 1], axis=0), total, j)


def _raised(k: int, s, first, total, j: int):
    """first * total raised by 3k + 4(j - k) + 12 roundings, more than
    either path makes, plus the subnormal pad where the first term
    underflowed."""
    bound = first * total * (1.0 + (3 * k + 4 * (j - k) + 12) * 1.01 * _U)
    return bound + ((s > 0) & (first < _TINY)) * ((k + 2) ** 2 * 2.0 ** -1073)


def _certified_sum(terms, s: np.ndarray, tol: float, max_weight: int, name: str,
                   partial: str | None = None, floor: float = 1.0):
    """1 + the weight-1, 2, ... terms of a batch of series, stopped by the
    scalar Poisson tail.

    terms yields, for k = 1, 2, ..., the weight-k term at every point of
    the batch; s holds one tail argument per point, so that everything
    beyond weight K is at most floor * sum_{j>K} s^j / j!.  Returns
    (partial sums, certified tail bounds) at the first K whose bound is
    within tol at every point, and raises ConvergenceError (named `name`,
    or `partial` for a partial sum) on a non-finite partial sum or when
    max_weight is reached first.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    # the tail grows with s, so the batch misses tol whenever its largest-s
    # point does, and that point's tail is at least its first term
    # top^{k+1} / (k+1)!; the whole batch is evaluated only once the point
    # passes, with slack for the rounding of a one-point evaluation
    top = float(np.max(s))
    first = 1.0
    total = np.ones(s.shape)
    for k in range(max(max_weight, 0) + 1):
        if k:
            # an overflow here is caught by the finiteness check below
            with np.errstate(over="ignore", invalid="ignore"):
                total += next(terms)
            if not np.all(np.isfinite(total)):
                raise ConvergenceError(
                    f"{partial or name + ' partial sum'} is not finite at weight {k}",
                    achieved_bound=math.inf,
                )
        first *= top / (k + 1)
        if floor * first > tol * (1.0 + 1e-9):
            continue
        tail = floor * _poisson_tail(k, top)
        if tail > tol * (1.0 + 1e-9):
            continue
        tail = floor * _poisson_tail(k, s) if s.size > 1 else np.array([tail])
        if np.max(tail) <= tol:
            return total, tail
    achieved = float(np.max(floor * _poisson_tail(max(max_weight, 0), s)))
    raise ConvergenceError(
        f"{name} not certified to {tol:.2e} within weight {max_weight}; "
        f"achieved bound {achieved:.2e}",
        achieved_bound=achieved,
    )


def _series_from_eigs(
    mu: float,
    eigs: np.ndarray,
    params: StructureParams,
    tol: float = DEFAULT_TOL,
    max_weight: int = DEFAULT_MAX_WEIGHT,
):
    """Truncated Bessel series on a batch of eigenvalue vectors.

    eigs has shape (batch, q).  Returns (values, certified tail bounds),
    both of shape (batch,).
    """
    if mu <= params.rho - 1.0:
        raise DomainError(
            f"series index mu={mu} must exceed rho - 1 = {params.rho - 1.0}"
        )
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 2 or eigs.shape[1] != params.q:
        raise DimensionError(f"expected eigenvalue batch of shape (n, {params.q})")
    alpha = params.alpha

    def terms():
        sign = 1.0
        inv_fact = 1.0
        for k, (parts, vals) in enumerate(layers(alpha, params.q, eigs), start=1):
            sign = -sign
            inv_fact /= k
            poch = np.array([gen_pochhammer(mu, lam, alpha) for lam in parts])
            yield sign * inv_fact * (vals / poch[:, None]).sum(axis=0)

    s = np.abs(eigs).sum(axis=1) / mu
    poch_floor = 2.0 ** (params.d * params.q * (params.q - 1) / 2.0)
    return _certified_sum(terms(), s, tol, max_weight, "Bessel series", floor=poch_floor)


def bessel_series(
    mu: float,
    x,
    params: StructureParams,
    tol: float = DEFAULT_TOL,
    max_weight: int = DEFAULT_MAX_WEIGHT,
):
    """J_mu at a Hermitian matrix argument, with certified truncation.

    Returns (value, tail_bound).  The argument may be any Hermitian matrix
    (points of the cone, negated cone points for the growing direction, or
    anything in between); only its eigenvalues enter.
    """
    a = _as_array(x)
    if a.shape != (params.q, params.q):
        raise DimensionError(f"argument must be {params.q} x {params.q}, got {a.shape}")
    eigs = HermitianMatrix(a).eigenvalues()
    vals, tails = _series_from_eigs(mu, eigs[None, :], params, tol, max_weight)
    return float(vals[0]), float(tails[0])


def bessel_classical(kappa: float, z: float):
    """One-variable normalized Bessel function 0F1(kappa+1; -z^2/4).

    Returns (value, tail_bound) with the tail within 1e-12; the tail is
    certified by the geometric ratio once the term ratio drops below one,
    and ConvergenceError is raised if that takes more than 300 terms.
    kappa = -1/2 reproduces cos z.  Requires kappa > -1 so every
    Pochhammer factor is positive.
    """
    if kappa <= -1.0:
        raise DomainError(f"kappa must exceed -1, got {kappa}")
    w = z * z / 4.0
    total = 1.0
    term = 1.0
    for n in range(_CLASSICAL_MAX_TERMS):
        ratio_next = w / ((kappa + 1 + n) * (n + 1))
        bound_ratio = w / ((kappa + 2 + n) * (n + 2))
        if abs(term) * ratio_next <= _CLASSICAL_TOL * (1.0 - bound_ratio) and bound_ratio < 1.0:
            return total, abs(term) * ratio_next / (1.0 - bound_ratio)
        term *= -w / ((kappa + 1 + n) * (n + 1))
        total += term
    raise ConvergenceError(
        f"classical Bessel series not certified to {_CLASSICAL_TOL:.2e} in "
        f"{_CLASSICAL_MAX_TERMS} terms",
        achieved_bound=abs(term),
    )


# samples per Monte Carlo chunk of the ball integral, which bounds its memory
_BALL_CHUNK = 1 << 14


def _mc_mean_se(draw, n_samples: int, chunk: int):
    """Monte Carlo mean and standard error of the values draw(m) returns.

    draw is called on chunks of at most `chunk` samples, in order, until
    n_samples values are in; the chunking fixes how a caller's random
    stream is consumed.
    """
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        vals = draw(m)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def kappa_mu(params: StructureParams) -> float:
    """Normalization of the ball density: integral of Delta(I-v*v)^{mu-rho}.

    The closed form pi^{d q^2 / 2} Gamma_q(mu - d q / 2) / Gamma_q(mu), with
    the multivariate gamma Gamma_q(s) = pi^{d q (q-1) / 4} prod_{j<q}
    Gamma(s - d j / 2); at rank one it is pi^{d/2} Gamma(mu-rho+1) /
    Gamma(mu-rho+1+d/2).
    """
    q, d, mu = params.q, params.d, params.mu
    log_ratio = sum(math.lgamma(mu - d * q / 2.0 - d * j / 2.0) - math.lgamma(mu - d * j / 2.0)
                    for j in range(q))
    return math.exp(d * q * q / 2.0 * math.log(math.pi) + log_ratio)


def bessel_integral_mc(mu: float, x, params: StructureParams, n_samples: int, rng):
    """Monte Carlo estimate of J_mu(x* x) through its ball integral form.

    x is a q x q matrix over the field.  J_mu(x* x) is the mean of
    cos(2 Re <v, x>) under the ball density, and v is drawn exactly
    (linalg._ball_points) in chunks of 2^14; returns (value, std_error).
    """
    a = _as_array(x)
    if a.shape != (params.q, params.q):
        raise DimensionError(f"argument must be {params.q} x {params.q}, got {a.shape}")
    ball = params.with_mu(mu)  # a DomainError unless mu > rho - 1
    conj_x = np.conj(a).ravel()

    def draw(m):
        v = _ball_points(ball, *_ball_variates(ball, rng, m))
        return np.cos(2.0 * np.real(v.reshape(m, -1) @ conj_x))

    return _mc_mean_se(draw, n_samples, _BALL_CHUNK)


def theorem1_gap(mu: float, y, params: StructureParams):
    """Distance of J_mu(mu y) from its rank-independent limit e^{-tr y}.

    Returns (gap, envelope) with envelope = min(1, (tr y)^2) / mu; the
    caller judges stability of gap/envelope across mu (no universal
    constant is hardcoded).  Requires mu > 2 rho.
    """
    if mu <= 2.0 * params.rho:
        raise DomainError(f"mu={mu} must exceed 2 rho = {2.0 * params.rho}")
    a = _as_array(y)
    eigs = HermitianMatrix(a).eigenvalues()
    if np.min(eigs) < -1e-10 * (1.0 + float(np.max(np.abs(eigs)))):
        raise DomainError("y must be positive semidefinite")
    tr = float(eigs.sum())
    vals, _ = _series_from_eigs(mu, mu * eigs[None, :], params, _GAP_TOL, _GAP_MAX_WEIGHT)
    gap = abs(float(vals[0]) - math.exp(-tr))
    envelope = min(1.0, tr * tr) / mu
    return gap, envelope
