"""Bessel functions attached to root systems, built from the cone kernel.

Averaging the matrix-argument kernel over the unitary (or orthogonal)
group turns the cone Bessel function into a Weyl-chamber function of two
vector arguments: a type-B Bessel function whose multiplicity pair is
determined by the cone index, k = (mu - (d(q-1)+1)/2, d/2).  As mu grows
the rescaled type-B function approaches the type-A function

    J^A(xi, eta) = 0F0^alpha(xi, eta)
                 = sum over lambda of C_lambda(xi) C_lambda(eta)
                                      / (C_lambda(1,...,1) |lambda|!),

and for the complex field (alpha = 1) the type-A function has a closed
alternating-sum form over the symmetric group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, IllConditionedError
from .jack import (
    layer_values,  # noqa: F401  (looked up here by the perfbench span recorder)
    layers,
    unit_layers,
)
from .bessel import DEFAULT_MAX_WEIGHT, _certified_sum, _mc_mean_se, _series_from_eigs
from .linalg import StructureParams, _haar_batch


@dataclass(frozen=True)
class ChamberPoint:
    """Vector with non-increasing nonnegative entries (closed Weyl chamber)."""

    xi: tuple

    def __post_init__(self):
        x = np.asarray(self.xi, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise DimensionError("chamber point must be a nonempty vector")
        if np.any(x < -1e-14):
            raise DomainError("chamber coordinates must be nonnegative")
        if np.any(np.diff(x) > 1e-14):
            raise DomainError("chamber coordinates must be non-increasing")
        object.__setattr__(self, "xi", tuple(float(v) for v in x))

    @property
    def q(self) -> int:
        return len(self.xi)

    def array(self) -> np.ndarray:
        return np.asarray(self.xi, dtype=float)

    def scaled(self, c: float) -> "ChamberPoint":
        if c < 0:
            raise DomainError("scale must be nonnegative")
        return ChamberPoint(tuple(c * v for v in self.xi))


def bessel_B_mc(
    xi: ChamberPoint,
    eta: ChamberPoint,
    params: StructureParams,
    n_samples: int,
    rng,
    tol: float = 1e-9,
    max_weight: int = DEFAULT_MAX_WEIGHT,
):
    """Chamber average int J_mu( (1/4) eta u xi^2 u* eta ) du over the
    unitary group of the field, by Haar Monte Carlo.

    Returns (value, std_error).  This is the type-B Bessel function at
    (xi, i eta) with multiplicity (mu - (d(q-1)+1)/2, d/2).
    """
    if xi.q != params.q or eta.q != params.q:
        raise DimensionError("chamber points must have length q")
    if params.mu <= 2.0 * params.rho:
        raise DomainError(
            f"mu={params.mu} must exceed 2 rho = {2.0 * params.rho} for the "
            "integrand series to be reliable"
        )
    xv, ev = xi.array(), eta.array()

    def draw(m):
        u = _haar_batch(params.q, params.d, rng, m)
        w = (u * (xv * xv)) @ np.conj(np.swapaxes(u, 1, 2))
        arg = 0.25 * ev[None, :, None] * w * ev[None, None, :]
        arg = (arg + np.conj(np.swapaxes(arg, 1, 2))) / 2.0
        eigs = np.linalg.eigvalsh(arg)
        return _series_from_eigs(params.mu, eigs, params, tol, max_weight)[0]

    return _mc_mean_se(draw, n_samples, 1 << 14)


def hyper_0F0(
    alpha,
    xi,
    eta,
    tol: float = 1e-10,
    max_weight: int = DEFAULT_MAX_WEIGHT,
):
    """Two-argument hypergeometric sum 0F0^alpha(xi, eta).

    xi and eta are real vectors of equal length q.  Layer k is bounded by
    (min(tr|xi| max|eta|, tr|eta| max|xi|))^k / k!, giving the same scalar
    Poisson tail certificate as the one-argument series; returns
    (value, tail_bound).
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    x = np.asarray(xi, dtype=float).reshape(-1)
    e = np.asarray(eta, dtype=float).reshape(-1)
    if x.size != e.size:
        raise DimensionError("xi and eta must have the same length")
    q = x.size
    s = min(
        np.abs(x).sum() * (np.abs(e).max() if e.size else 0.0),
        np.abs(e).sum() * (np.abs(x).max() if x.size else 0.0),
    )

    def terms():
        lx, le = (layers(alpha, q, v[None, :]) for v in (x, e))
        inv_fact = 1.0
        for k, ((_, vx), (_, ve), v1) in enumerate(zip(lx, le, unit_layers(alpha, q)), start=1):
            inv_fact /= k
            yield inv_fact * float((vx[:, 0] * ve[:, 0] / v1).sum())

    total, tail = _certified_sum(
        terms(), np.asarray([s]), tol, max_weight, "0F0 series", partial="0F0 partial sum"
    )
    return float(total[0]), float(tail[0])


def _vandermonde(z: np.ndarray) -> float:
    out = 1.0
    for i in range(z.size):
        for j in range(i + 1, z.size):
            out *= z[i] - z[j]
    return out


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def harish_chandra_exact(xi2, eta2) -> float:
    """Closed form of 0F0^1(-xi2, eta2) for the complex field:

        (prod_{j<q} j!) (-1)^{q(q-1)/2}
        * sum over permutations w of sgn(w) exp(-(xi2, w eta2))
        / (Vandermonde(xi2) Vandermonde(eta2)).

    Entries of each argument must be pairwise separated by at least
    1e-6 relative to the scale, else the alternating sum cancels
    catastrophically; use the series in that regime.
    """
    x = np.asarray(xi2, dtype=float).reshape(-1)
    e = np.asarray(eta2, dtype=float).reshape(-1)
    q = x.size
    if e.size != q:
        raise DimensionError("xi2 and eta2 must have the same length")
    if q > 8:
        raise DomainError("alternating sum is only practical for q <= 8")
    for z, name in ((x, "xi2"), (e, "eta2")):
        scale = max(1.0, float(np.max(np.abs(z))))
        gaps = np.abs(z[:, None] - z[None, :])[np.triu_indices(q, 1)]
        if q > 1 and float(gaps.min()) < 1e-6 * scale:
            raise IllConditionedError(
                f"{name} has nearly coincident entries (min gap {gaps.min():.2e}); "
                "the alternating sum cancels, evaluate the series instead"
            )
    pref = 1.0
    for j in range(1, q):
        pref *= math.factorial(j)
    acc = 0.0
    for perm in itertools.permutations(range(q)):
        acc += _perm_sign(perm) * math.exp(-float(np.dot(x, e[list(perm)])))
    sign = -1.0 if (q * (q - 1) // 2) % 2 else 1.0
    return pref * sign * acc / (_vandermonde(x) * _vandermonde(e))


def exp_conjugation_mc(xi2, eta2, d: int, n_samples: int, rng):
    """Haar average of exp(-<eta2, u xi2 u*>) over the unitary group,
    by Monte Carlo.  Arguments are the squared chamber coordinates
    (any nonnegative vectors); returns (value, std_error).

    For d = 2 this integral equals both hyper_0F0(1, -xi2, eta2) and
    harish_chandra_exact(xi2, eta2), which makes it the stochastic leg
    of that three-way identity.
    """
    x = np.asarray(xi2, dtype=float).reshape(-1)
    e = np.asarray(eta2, dtype=float).reshape(-1)
    if x.size != e.size:
        raise DimensionError("xi2 and eta2 must have the same length")

    def draw(m):
        w = np.abs(_haar_batch(x.size, d, rng, m)) ** 2
        return np.exp(-np.einsum("i,nij,j->n", e, w, x))

    return _mc_mean_se(draw, n_samples, 1 << 16)
