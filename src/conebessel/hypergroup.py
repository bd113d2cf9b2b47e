"""Random-walk convolution on the cone of PSD matrices.

The convolution of two point masses delta_r and delta_s is the law of

    sqrt( r^2 + s^2 + s v r + r v* s ),    v drawn from the ball density
                                           Delta(I - v*v)^{mu - rho} / kappa_mu,

which interpolates, as mu grows, between genuinely spread-out laws and the
deterministic Pythagorean sum.  For mu = p d / 2 with integer p the same
law arises from sums of p x q matrices with uniformly rotated singular
frame ("orbit" walks), which gives an independent simulation path used by
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SamplingError
from .linalg import (
    ConeMatrix,
    RectMatrix,
    StructureParams,
    _ball_proposal,
    haar_unitary,
    psd_sqrt,
    phi_p,
)

_MAX_PROPOSALS = 1_000_000
_MIN_RATE = 1e-4


@dataclass(frozen=True)
class RadialLaw:
    """Finitely supported law on the cone: weights and PSD atoms."""

    weights: tuple
    atoms: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("need at least one atom")
        if len(self.atoms) != w.size:
            raise DimensionError("weights and atoms must have equal length")
        if np.any(w <= 0):
            raise DomainError("atom weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"atom weights must sum to 1, got {w.sum()!r}")
        atoms = tuple(a if isinstance(a, ConeMatrix) else ConeMatrix(a) for a in self.atoms)
        q = atoms[0].q
        if any(a.q != q for a in atoms):
            raise DimensionError("all atoms must share the same rank")
        if all(a.is_zero() for a in atoms):
            raise DomainError("law must put mass on at least one nonzero atom")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "atoms", atoms)

    @property
    def q(self) -> int:
        return self.atoms[0].q

    def sample_index(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.atoms), p=self.weights))


def _sample_ball_batch(params: StructureParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws from the ball density, stacked (n, q, q)."""
    expo = params.mu - params.rho
    if expo < 0.0:
        raise SamplingError(
            f"ball density has exponent mu - rho = {expo:.3g} < 0 and is unbounded "
            "near the boundary; rejection sampling cannot dominate it "
            "(mu is pathologically close to rho - 1)"
        )
    gaussian = expo >= 1.0
    out = np.empty((n, params.q, params.q), dtype=params.dtype)
    filled = 0
    proposals = 0
    while filled < n:
        m = max(n - filled, 16)
        # for the Gaussian, target/proposal = Delta(I-v*v)^expo * exp(expo <v,v>) <= 1
        v, inside, log_acc = _ball_proposal(expo, params, rng, m, gaussian, cut=1.0 - 1e-13)
        accept = inside & (np.log(rng.uniform(size=m)) < log_acc)
        take = np.flatnonzero(accept)[: n - filled]
        out[filled : filled + take.size] = v[take]
        filled += take.size
        proposals += m
        if proposals >= _MAX_PROPOSALS and filled / proposals < _MIN_RATE:
            raise SamplingError(
                f"ball sampler acceptance rate {filled/proposals:.2e} after "
                f"{proposals} proposals (mu is pathologically close to rho - 1)"
            )
    return out


def convolve_sample(r, s, params: StructureParams, rng: np.random.Generator) -> ConeMatrix:
    """One draw from delta_r * delta_s under the index-mu convolution.

    The zero matrix is the neutral element exactly: if either argument is
    zero the other is returned unchanged and no randomness is consumed.
    """
    rm = r if isinstance(r, ConeMatrix) else ConeMatrix(r)
    sm = s if isinstance(s, ConeMatrix) else ConeMatrix(s)
    if rm.q != sm.q or rm.q != params.q:
        raise DimensionError("rank mismatch between arguments and params")
    if rm.is_zero():
        return sm
    if sm.is_zero():
        return rm
    v = _sample_ball_batch(params, rng, 1)[0]
    ra, sa = rm.array, sm.array
    m = ra @ ra + sa @ sa + sa @ v @ ra + ra @ v.conj().T @ sa
    m = (m + m.conj().T) / 2.0
    # exactly Hermitian, and PSD up to rounding as (r + v*s)*(r + v*s)
    # + s(I - vv*)s with |v| < 1: only finiteness is left to check
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return psd_sqrt(ConeMatrix._unchecked(m))


def walk_simulate(nu: RadialLaw, params: StructureParams, n_steps: int, rng) -> tuple:
    """Random walk started at zero: each step convolves with a fresh atom of nu.

    Returns the states S_0 = 0, S_1, ..., S_n as a tuple of ConeMatrix.
    """
    if nu.q != params.q:
        raise DimensionError("law rank does not match params")
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    current = ConeMatrix(np.zeros((params.q, params.q), dtype=params.dtype))
    steps = [current]
    for _ in range(n_steps):
        atom = nu.atoms[nu.sample_index(rng)]
        current = convolve_sample(current, atom, params, rng)
        steps.append(current)
    return tuple(steps)


def radial_matrix_sample(nu: RadialLaw, p: int, params: StructureParams, rng) -> RectMatrix:
    """p x q matrix with uniformly rotated frame and radial part drawn from nu."""
    if p < params.q:
        raise DimensionError(f"need p >= q, got p={p}, q={params.q}")
    atom = nu.atoms[nu.sample_index(rng)]
    iota = np.zeros((p, params.q), dtype=params.dtype)
    iota[: params.q, :] = atom.array
    u = haar_unitary(p, params.d, rng)
    return RectMatrix(u @ iota)


def orbit_walk_simulate(nu: RadialLaw, p: int, params: StructureParams, n_steps: int, rng) -> tuple:
    """Radial parts of partial sums of independent rotated-frame matrices.

    For mu = p d / 2 this has the same law, step by step, as walk_simulate,
    and is returned the same way: a tuple of ConeMatrix starting at zero.
    """
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    total = np.zeros((p, params.q), dtype=params.dtype)
    steps = [ConeMatrix(np.zeros((params.q, params.q), dtype=params.dtype))]
    for _ in range(n_steps):
        total = total + radial_matrix_sample(nu, p, params, rng).array
        steps.append(phi_p(total))
    return tuple(steps)
