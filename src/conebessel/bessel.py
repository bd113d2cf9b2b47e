"""Bessel functions of matrix argument on the cone of PSD matrices.

The central object is the series

    J_mu(x) = sum over partitions lambda of
              (-1)^|lambda| Z_lambda(x) / ( (mu)_lambda |lambda|! ),

summed weight by weight with a certified tail bound: since the generalized
Pochhammer symbol satisfies (mu)_lambda >= 2^{-dq(q-1)/2} mu^|lambda| for
mu > rho - 1, and |Z_lambda(x)| <= Z_lambda(|x|) with the weight-k layer of
Z(|x|) summing to (tr|x|)^k, everything beyond weight K is bounded by

    2^{dq(q-1)/2} * sum_{k>K} (tr|x| / mu)^k / k!,

a scalar Poisson tail.  The tail grows with tr|x|, so a batch of points
gets one bound, taken at its largest tr|x| / mu; the stop weight is fixed
from it before any layer is evaluated.  Truncation is therefore never
silent: callers get the certified bound, or, before any layer, a
ConvergenceError carrying the bound achieved at the weight cap.

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
    _require_field,
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


def _poisson_tail(k: int, s: float) -> float:
    """An upper bound on sum_{j > k} s^j / j!  at a float s >= 0.

    Where s > k + 1 most of the mass lies beyond k and the tail is e^s less
    the head sum_{j <= k} s^j / j!; elsewhere it is summed from
    s^{k+1} / (k+1)! on (_tail_below_mode).  Every result is raised by a
    margin that covers its rounding, so that it never falls below the exact
    tail: the summands are products of rounded factors s / j, each rounding
    adds at most 2^-53 relative error, exp is taken to be within 2 ulp (libm
    measures within 0.67 ulp over [0, 709.78]), and a first term below the
    normal range adds (k + 2)^2 multiples of 2^-1073 for the bits it lost.
    The bound is 0 at s = 0 and inf where e^s overflows.
    """
    if s > k + 1:
        return _tail_above_mode(k, s) if s <= _LOG_MAX else math.inf
    return _tail_below_mode(k, s)


def _tail_above_mode(k: int, s: float) -> float:
    """e^s less the head, for k + 1 < s <= _LOG_MAX, raised by exp's error
    and the 3k roundings of the head; the head is at most half of e^s, so
    nothing cancels."""
    term = head = 1.0
    for j in range(1, k + 1):
        term = term * (s / j)
        head = head + term
    big = math.exp(s)
    tail = big - head
    return tail + (4.01 * _U) * big + ((3 * k + 2) * 1.01 * _U) * head + (4.0 * _U) * tail


def _tail_below_mode(k: int, s: float) -> float:
    """The tail at s <= k + 1, whose terms fall from s^{k+1} / (k+1)! on.

    They are summed relative to it, each one s / j times the last, until a
    term falls below 2^-53 of the sum; what is left is below the geometric
    bound term * s / (j + 1 - s).  The sum is raised by 3k + 4(j - k) + 12
    roundings, more than it makes, plus the subnormal pad where the first
    term underflowed.
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
    bound = first * (total + ratio * s / (j + 1 - s))
    bound *= 1.0 + (3 * k + 4 * (j - k) + 12) * 1.01 * _U
    return bound + (k + 2) ** 2 * 2.0 ** -1073 if s > 0 and first < _TINY else bound


def _certified_sum(terms, s: np.ndarray, tol: float, max_weight: int, name: str,
                   floor: float = 1.0):
    """1 + the weight-1, ..., K terms of a batch of series, with K fixed by
    the scalar Poisson tail at the batch's largest point before any term
    is evaluated.

    terms(K) yields, for k = 1, ..., K, the weight-k term at every point of
    the batch; s holds one tail argument per point, so that everything
    beyond weight K is at most floor * sum_{j>K} s^j / j!.  That tail grows
    with s, so the batch gets one bound, taken at its largest s, and K is
    the first weight where it is within tol.  Returns (partial sums, that
    bound); raises ConvergenceError (named `name`) before any term when no
    K <= max_weight certifies, and on a non-finite partial sum.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    # the tail is at least its first term top^{k+1} / (k+1)!, a cheap check
    top = float(np.max(s))
    first = 1.0
    for stop in range(max(max_weight, 0) + 1):
        first *= top / (stop + 1)
        tail = math.inf if floor * first > tol else floor * _poisson_tail(stop, top)
        if tail <= tol:
            break
    else:
        achieved = floor * _poisson_tail(max(max_weight, 0), top)
        raise ConvergenceError(
            f"{name} not certified to {tol:.2e} within weight {max_weight}; "
            f"achieved bound {achieved:.2e}",
            achieved_bound=achieved,
        )
    total = np.ones(s.shape)
    # an overflow, in the power table too, is caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for k, term in enumerate(terms(stop), start=1):
            total += term
            if not np.all(np.isfinite(total)):
                raise ConvergenceError(f"{name} partial sum is not finite at weight {k}",
                                       achieved_bound=math.inf)
    return total, tail


def _series_from_eigs(
    params: StructureParams,
    eigs: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_weight: int = DEFAULT_MAX_WEIGHT,
):
    """Truncated Bessel series J_mu, mu = params.mu, on a batch of
    eigenvalue vectors.

    eigs has shape (batch, q).  Returns (values of shape (batch,), one
    certified tail bound, taken at the batch's largest tr|x| / mu).
    """
    mu = params.mu
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 2 or eigs.shape[1] != params.q:
        raise DimensionError(f"expected eigenvalue batch of shape (n, {params.q})")
    alpha = params.alpha

    def terms(n):
        scale = 1.0  # (-1)^k / k!
        k = 0
        # no name or enumerate tuple holds a layer while the next is built
        for parts, vals in layers(alpha, params.q, eigs, n):
            k += 1
            scale /= -k
            vals /= np.array([gen_pochhammer(mu, lam, alpha) for lam in parts])[:, None]
            term = scale * vals.sum(axis=0)
            del vals
            yield term

    s = np.abs(eigs).sum(axis=1) / mu
    poch_floor = 2.0 ** (params.d * params.q * (params.q - 1) / 2.0)
    return _certified_sum(terms, s, tol, max_weight, "Bessel series", floor=poch_floor)


def bessel_series(
    x,
    params: StructureParams,
    tol: float = DEFAULT_TOL,
    max_weight: int = DEFAULT_MAX_WEIGHT,
):
    """J_mu, mu = params.mu, at a Hermitian matrix argument, with certified
    truncation.

    Returns (value, tail_bound).  The argument may be any Hermitian matrix
    (points of the cone, negated cone points for the growing direction, or
    anything in between); only its eigenvalues enter.
    """
    a = _as_array(x)
    if a.shape != (params.q, params.q):
        raise DimensionError(f"argument must be {params.q} x {params.q}, got {a.shape}")
    eigs = HermitianMatrix(a).eigenvalues()
    vals, tail = _series_from_eigs(params, eigs[None, :], tol, max_weight)
    return float(vals[0]), tail


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


# draws per Monte Carlo chunk of the ball integral: one _ball_variates call
# each, so the chunk fixes how the stream is consumed
_BALL_CHUNK = 1 << 14
# draws per block of a chunk whose points and integrand are built at once;
# a draw's bits do not depend on its block, which only bounds working memory
_BALL_BLOCK = 1 << 11


def _mc_mean_se(draw, n_samples: int, chunk: int):
    """Monte Carlo mean and standard error of the values draw(m) returns.

    draw is called on chunks of at most `chunk` samples, in order, until
    n_samples values are in; the chunking fixes how a caller's random
    stream is consumed.  The mean is the sum of the chunk sums over
    n_samples.  The variance is taken from the deviations from the first
    chunk's mean, as their mean square less their squared mean (the
    shifted-data formula; Chan, Golub and LeVeque, Amer. Statist. 37,
    1983), so that a spread far below the size of the values does not
    cancel away as it does in E[f^2] - E[f]^2.
    """
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    total = dev_sum = dev_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        vals = draw(m)
        total += float(vals.sum())
        if not done:
            shift = total / m
        dev = vals - shift
        dev_sum += float(dev.sum())
        dev_sq += float(dev @ dev)
        done += m
    m2 = max(dev_sq - dev_sum * dev_sum / n_samples, 0.0)
    return total / n_samples, math.sqrt(m2) / n_samples


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


def bessel_integral_mc(x, params: StructureParams, n_samples: int, rng):
    """Monte Carlo estimate of J_mu(x* x), mu = params.mu, through its ball
    integral form.

    x is a q x q matrix over the field.  J_mu(x* x) is the mean of
    cos(2 Re <v, x>) under the ball density, and v is drawn exactly
    (linalg._ball_points); returns (value, std_error).  The variates are
    drawn in chunks of _BALL_CHUNK, which fixes the stream, and the points
    and integrand are built _BALL_BLOCK draws at a time, which only bounds
    the working memory: the result has the same bits for any block size.
    """
    a = _as_array(x)
    if a.shape != (params.q, params.q):
        raise DimensionError(f"argument must be {params.q} x {params.q}, got {a.shape}")
    _require_field(params, a)
    conj_x = np.conj(a).ravel()

    def draw(m):
        z, g = _ball_variates(params, rng, m)
        vals = np.empty(m)
        for lo in range(0, m, _BALL_BLOCK):
            v = _ball_points(params, z[lo : lo + _BALL_BLOCK], g[lo : lo + _BALL_BLOCK])
            vals[lo : lo + len(v)] = np.cos(2.0 * np.real(v.reshape(len(v), -1) @ conj_x))
        return vals

    return _mc_mean_se(draw, n_samples, _BALL_CHUNK)


def theorem1_gap(y, params: StructureParams):
    """Distance of J_mu(mu y), mu = params.mu, from its rank-independent
    limit e^{-tr y}.

    Returns (gap, envelope) with envelope = min(1, (tr y)^2) / mu; the
    caller judges stability of gap/envelope across mu (no universal
    constant is hardcoded).  Requires mu > 2 rho.
    """
    mu = params.mu
    if mu <= 2.0 * params.rho:
        raise DomainError(f"mu={mu} must exceed 2 rho = {2.0 * params.rho}")
    a = _as_array(y)
    eigs = HermitianMatrix(a).eigenvalues()
    if np.min(eigs) < -1e-10 * (1.0 + float(np.max(np.abs(eigs)))):
        raise DomainError("y must be positive semidefinite")
    tr = float(eigs.sum())
    vals, _ = _series_from_eigs(params, mu * eigs[None, :], _GAP_TOL, _GAP_MAX_WEIGHT)
    gap = abs(float(vals[0]) - math.exp(-tr))
    envelope = min(1.0, tr * tr) / mu
    return gap, envelope
