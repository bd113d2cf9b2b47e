"""Random-walk convolution on the cone of PSD matrices.

The convolution of two point masses delta_r and delta_s is the law of

    sqrt( r^2 + s^2 + s v r + r v* s ),    v drawn from the ball density
                                           Delta(I - v*v)^{mu - rho} / kappa_mu,

which interpolates, as mu grows, between genuinely spread-out laws and the
deterministic Pythagorean sum.  For mu = p d / 2 with integer p the same
law arises as the radial part of sums of p x q matrices with uniformly
rotated frames; tests/orbit_oracle.py simulates that picture as an
independent check of this module.

Replicate walks run as a batch (walk_batch): each keeps its own random
stream and draws all of its randomness when the walk starts, and one
kernel step advances all of them with stacked arithmetic.  A lone walk or
convolution is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import (
    ConeMatrix,
    StructureParams,
    _ball_points,
    _ball_variates,
    _psd_sqrt_stack,
    psd_sqrt,  # noqa: F401  (looked up here by the perfbench span recorder)
)


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

    @cached_property
    def _cdf(self) -> np.ndarray:
        """Cumulative weights over their total, as Generator.choice builds them."""
        cdf = np.cumsum(np.asarray(self.weights, dtype=float))
        cdf /= cdf[-1]
        return cdf

    def sample_index(self, rng: np.random.Generator) -> int:
        """One rng.random() mapped through the cdf: the index, and the draw,
        of rng.choice(len(atoms), p=weights)."""
        return int(self._cdf.searchsorted(rng.random(), side="right"))


def _sample_ball_batch(params: StructureParams, rngs, n: int) -> np.ndarray:
    """n draws from the ball density per stream, stacked (len(rngs), n, q, q).

    Each stream makes the two generator calls of linalg._ball_variates for
    its n draws; the arithmetic then runs once over all of them and gives
    each draw the bits it would get alone.
    """
    q = params.q
    if not rngs:
        return np.empty((0, n, q, q), dtype=params.dtype)
    draws = [_ball_variates(params, rng, n) for rng in rngs]
    z = np.concatenate([normals for normals, _ in draws])
    g = np.concatenate([gammas for _, gammas in draws])
    return _ball_points(params, z, g).reshape(len(rngs), n, q, q)


def _convolve_stack(r: np.ndarray, s: np.ndarray, v: np.ndarray) -> list:
    """One draw from delta_r[i] * delta_s[i] for stacked nonzero pairs r, s
    of shape (n, q, q) and ball draws v[i]: the walk-step kernel.

    The arithmetic runs once over the stack; each pair gets the bits that
    a stack of one would give it.
    """
    # an overflow here is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        m = r @ r + s @ s + s @ v @ r + r @ v.conj().swapaxes(1, 2) @ s
        m = (m + m.conj().swapaxes(1, 2)) / 2.0
    # exactly Hermitian, and PSD up to rounding as (r + v*s)*(r + v*s)
    # + s(I - vv*)s with |v| < 1: only finiteness is left to check
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return _psd_sqrt_stack(m)


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
    v = _sample_ball_batch(params, [rng], 1)[0]
    return _convolve_stack(rm.array[None], sm.array[None], v)[0]


def walk_batch(nu: RadialLaw, params: StructureParams, n_steps: int, rngs):
    """Independent walks started at zero, one per stream, advanced together.

    Yields the list of current states, one ConeMatrix per stream, for
    S_0 = 0, S_1, ..., S_n.  At the start each stream draws rng.random(n)
    for its atom picks and then its n ball draws, so a walk's stream use
    does not depend on its path: a draw that a zero state (which takes the
    atom) or a zero atom (which keeps the state) leaves unused is still
    drawn.  The other walks take one _convolve_stack step together, so walk
    i is walk_simulate(nu, params, n_steps, rngs[i]) bit for bit, whatever
    the other streams are.
    """
    if nu.q != params.q:
        raise DimensionError("law rank does not match params")
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    u = np.array([rng.random(n_steps) for rng in rngs]).reshape(len(rngs), n_steps)
    balls = _sample_ball_batch(params, rngs, n_steps)
    states = [ConeMatrix(np.zeros((params.q, params.q), dtype=params.dtype))] * len(rngs)
    yield states
    zero = [True] * len(rngs)
    atoms = np.stack([a.array for a in nu.atoms])
    atom_zero = [a.is_zero() for a in nu.atoms]
    for step, picks in enumerate(nu._cdf.searchsorted(u.T, side="right").tolist()):
        states = list(states)
        live = []
        for i, k in enumerate(picks):
            if zero[i]:
                states[i], zero[i] = nu.atoms[k], atom_zero[k]
            elif not atom_zero[k]:
                live.append(i)
        if live:
            # a real state joins a complex stack with imaginary part +0.0,
            # the cast numpy gives it in a step of its own
            ra = np.stack([states[i].array for i in live])
            sa = atoms[[picks[i] for i in live]]
            for i, x in zip(live, _convolve_stack(ra, sa, balls[live, step])):
                states[i], zero[i] = x, x.is_zero()
        yield states


def walk_simulate(nu: RadialLaw, params: StructureParams, n_steps: int, rng) -> tuple:
    """Random walk started at zero: each step convolves with a fresh atom of nu.

    Returns the states S_0 = 0, S_1, ..., S_n as a tuple of ConeMatrix; the
    one-stream case of walk_batch.
    """
    return tuple(states[0] for states in walk_batch(nu, params, n_steps, [rng]))
