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
Delta(I - v*v)^{mu-rho}, estimated here by importance sampling; the
normalization kappa_mu of that density has a closed form for rank one and
is estimated the same way for higher rank.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import ConvergenceError, DimensionError, DomainError, SamplingError
from .jack import (
    gen_pochhammer,
    layer_values,  # noqa: F401  (looked up here by the perfbench span recorder)
    layers,
)
from .linalg import HermitianMatrix, StructureParams, _as_array, _ball_draw, _ball_weigh

DEFAULT_TOL = 1e-10
DEFAULT_MAX_WEIGHT = 30
_CLASSICAL_TOL = 1e-12
_CLASSICAL_MAX_TERMS = 300
# theorem1_gap's argument mu * y needs more weights than the default
_GAP_TOL = 1e-9
_GAP_MAX_WEIGHT = 80


def _poisson_tail(k: int, s: np.ndarray) -> np.ndarray:
    """sum_{j > k} s^j / j!  for s >= 0, via the regularized incomplete gamma."""
    with np.errstate(over="ignore"):
        return np.exp(s) * special.gammainc(k + 1, s)


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
    top = int(np.argmax(s))

    def certified(k):
        # the tail grows with s, so the batch misses tol whenever its
        # largest-s point does; the whole batch is evaluated only once that
        # point passes, with slack for a one-point evaluation's rounding
        tail = floor * _poisson_tail(k, s[top : top + 1])
        if tail[0] > tol * (1.0 + 1e-9):
            return None
        if s.size > 1:
            tail = floor * _poisson_tail(k, s)
        return tail if np.max(tail) <= tol else None

    total = np.ones(s.shape)
    tail = certified(0)
    if tail is not None:
        return total, tail
    for k in range(1, max_weight + 1):
        # an overflow here is caught by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            total += next(terms)
        if not np.all(np.isfinite(total)):
            raise ConvergenceError(
                f"{partial or name + ' partial sum'} is not finite at weight {k}",
                achieved_bound=math.inf,
            )
        tail = certified(k)
        if tail is not None:
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


def _ball_proposal_weights(mu: float, params: StructureParams, n: int, rng):
    """Importance weights for the ball density Delta(I - v*v)^{mu-rho}.

    Draws n proposals and returns (weights, v) where the weights are
    nonnegative, vanish outside the spectral unit ball and have expectation
    kappa_mu.  For mu > rho the proposal is the dominating Gaussian with
    per-real-coordinate variance 1/(2(mu-rho)); at or below rho it falls
    back to the uniform law on the entry-wise box [-1, 1].
    """
    expo = mu - params.rho
    dim = params.ambient_dim
    gaussian = expo > 0.0
    if gaussian:
        log_base = (dim / 2.0) * math.log(math.pi / expo)
    else:
        log_base = dim * math.log(2.0)
    v = _ball_draw(expo, params, rng, n, gaussian)
    inside, log_ratio = _ball_weigh(expo, v, gaussian)
    with np.errstate(over="ignore"):
        w = np.where(inside, np.exp(log_ratio + log_base), 0.0)
    return w, v


_MC_CHUNK = 1 << 18


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


def kappa_mu(params: StructureParams, n_samples: int = 200_000, rng=None):
    """Normalization of the ball density: integral of Delta(I-v*v)^{mu-rho}.

    Rank one has the closed form pi^{d/2} Gamma(mu-rho+1)/Gamma(mu-rho+1+d/2)
    and returns std_error 0.  Higher ranks use importance sampling (unbiased)
    and return the Monte Carlo standard error.
    """
    mu = params.mu
    if params.q == 1:
        a = mu - params.rho + 1.0
        value = math.exp(
            (params.d / 2.0) * math.log(math.pi)
            + special.gammaln(a)
            - special.gammaln(a + params.d / 2.0)
        )
        return value, 0.0
    if rng is None:
        raise DomainError("kappa_mu needs an rng for rank above one")
    value, se = _mc_mean_se(
        lambda m: _ball_proposal_weights(mu, params, m, rng)[0], n_samples, _MC_CHUNK
    )
    if value == 0.0:
        raise _no_weight(params, mu, n_samples)
    return value, se


def _no_weight(params: StructureParams, mu: float, n_samples: int) -> SamplingError:
    return SamplingError(
        f"none of {n_samples} ball proposals fell inside the unit ball at q={params.q}, "
        f"d={params.d}, mu={mu:.6g}: the importance weight is zero"
    )


def _integral_mc_parts(mu: float, x: np.ndarray, params: StructureParams, n_samples: int, rng):
    """Ratio-estimator pieces for the oscillatory ball integral.

    Returns (re, im, se_re, se_im) for
    (1/kappa_mu) integral over the ball of exp(-2i <v, x>) dball.
    """
    sums = np.zeros(3)  # w, w cos, w sin
    sq = np.zeros((3, 3))
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        w, v = _ball_proposal_weights(mu, params, m, rng)
        phase = 2.0 * np.real(np.sum(np.conj(v) * x, axis=(1, 2)))
        rows = np.stack([w, w * np.cos(phase), w * np.sin(phase)])
        sums += rows.sum(axis=1)
        sq += rows @ rows.T
        done += m
    if sums[0] == 0.0:
        raise _no_weight(params, mu, n_samples)
    n = n_samples
    mean = sums / n
    cov = sq / n - np.outer(mean, mean)
    r_re = mean[1] / mean[0]
    r_im = -mean[2] / mean[0]
    # delta method for a ratio a/w: var(a - r w) / (n w_bar^2)
    var_re = max(cov[1, 1] - 2 * r_re * cov[0, 1] + r_re**2 * cov[0, 0], 0.0)
    var_im = max(cov[2, 2] + 2 * r_im * cov[0, 2] + r_im**2 * cov[0, 0], 0.0)
    se_re = math.sqrt(var_re / n) / mean[0]
    se_im = math.sqrt(var_im / n) / mean[0]
    return r_re, r_im, se_re, se_im


def bessel_integral_mc(mu: float, x, params: StructureParams, n_samples: int, rng):
    """Monte Carlo estimate of J_mu(x* x) through its ball integral form.

    x is a q x q matrix over the field.  Uses the same importance sampling
    as kappa_mu with a shared sample stream (ratio estimator) and returns
    (value, std_error) for the real part; the imaginary part vanishes in
    expectation and is checked in the test suite.
    """
    a = _as_array(x)
    if a.shape != (params.q, params.q):
        raise DimensionError(f"argument must be {params.q} x {params.q}, got {a.shape}")
    if mu <= params.rho - 1.0:
        raise DomainError(f"mu={mu} must exceed rho - 1 = {params.rho - 1.0}")
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    r_re, _, se_re, _ = _integral_mc_parts(mu, a, params, n_samples, rng)
    return r_re, se_re


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
