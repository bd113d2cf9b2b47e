"""Random-walk convolution on the cone of PSD matrices.

The convolution of two point masses delta_r and delta_s is the law of

    sqrt( r^2 + s^2 + s v r + r v* s ),    v drawn from the ball density
                                           Delta(I - v*v)^{mu - rho} / kappa_mu,

which interpolates, as mu grows, between genuinely spread-out laws and the
deterministic Pythagorean sum.  For mu = p d / 2 with integer p the same
law arises as the radial part of sums of p x q matrices with uniformly
rotated frames; tests/orbit_oracle.py simulates that picture as an
independent check of this module.

Replicate walks run as a batch (walk_batch): their paths are one stacked
(R, n + 1, q, q) array, each walk keeps its own random stream and draws all
of its randomness when the walk starts, and one kernel step advances all of
them with stacked arithmetic into the path's next slice.  Streams draw one
after another, so the batch of m walks on [rng] * m is m successive walks
on rng.  A ConeMatrix, with its checks, is built only where a state leaves
the package: walk_simulate and convolve_sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import (
    ConeMatrix,
    StructureParams,
    _ball_points,
    _ball_variates,
    _psd_sqrt_stack,
    _require_field,
    psd_sqrt,
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
        if not np.all(w > 0):  # a nan weight fails here too
            raise DomainError("atom weights must be positive numbers")
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
        """One rng.random() mapped through _picks: the index, and the draw,
        of rng.choice(len(atoms), p=weights)."""
        return int(_picks(self.weights, rng.random()))


def _picks(weights, u):
    """Atom indices for pick variates u, as Generator.choice maps them: the
    cumulative weights over their total, searched from the right."""
    cdf = np.cumsum(np.asarray(weights, dtype=float))
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def _ball_stack(params: StructureParams, variates, n: int) -> np.ndarray:
    """Ball draws (len(variates), n, q, q) from per-stream _ball_variates of
    n draws each, in one pass that gives each draw the bits it gets alone."""
    q = params.q
    if not variates:
        return np.empty((0, n, q, q), dtype=params.dtype)
    z = np.concatenate([normals for normals, _ in variates])
    g = np.concatenate([gammas for _, gammas in variates])
    return _ball_points(params, z, g).reshape(len(variates), n, q, q)


def _sample_ball_batch(params: StructureParams, rngs, n: int) -> np.ndarray:
    """n draws from the ball density per stream, stacked (len(rngs), n, q, q):
    each stream in turn makes the two generator calls of _ball_variates."""
    return _ball_stack(params, [_ball_variates(params, rng, n) for rng in rngs], n)


def _step_square(r: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """r^2 + s^2 + s v r + r v* s for stacked r, s, v (n, q, q), exactly
    Hermitian and checked finite: the square of a step from r by s."""
    # an overflow here is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        m = r @ r + s @ s + s @ v @ r + r @ v.conj().swapaxes(1, 2) @ s
        m = (m + m.conj().swapaxes(1, 2)) / 2.0
    # exactly Hermitian, and PSD up to rounding as (r + v*s)*(r + v*s)
    # + s(I - vv*)s with |v| < 1: only finiteness is left to check
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def _convolve_stack(r: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One draw from delta_r[i] * delta_s[i] for stacked nonzero pairs r, s
    (n, q, q) and ball draws v[i], stacked: the walk-step kernel.  Each pair
    gets the bits that a stack of one would give it, in the stack's dtype.
    convolve_sample takes a real matrix's square root with the real routine,
    so at q >= 2 a complex-typed square whose imaginary parts are all zero
    gets its bits only to rounding."""
    return _psd_sqrt_stack(_step_square(r, s, v))


def convolve_sample(r, s, params: StructureParams, rng: np.random.Generator) -> ConeMatrix:
    """One draw from delta_r * delta_s under the index-mu convolution.

    The zero matrix is the neutral element exactly: if either argument is
    zero the other is returned unchanged and no randomness is consumed.
    """
    rm = r if isinstance(r, ConeMatrix) else ConeMatrix(r)
    sm = s if isinstance(s, ConeMatrix) else ConeMatrix(s)
    if rm.q != sm.q or rm.q != params.q:
        raise DimensionError("rank mismatch between arguments and params")
    _require_field(params, rm.array)
    _require_field(params, sm.array)
    if rm.is_zero():
        return sm
    if sm.is_zero():
        return rm
    v = _sample_ball_batch(params, [rng], 1)[0]
    return psd_sqrt(ConeMatrix(_step_square(rm.array[None], sm.array[None], v)[0]))


def _walk_draws(nu: RadialLaw, params: StructureParams, n_steps: int, rngs):
    """nu's atoms stacked (m, q, q), checked against params, and each
    stream's draws in turn: pick variates rng.random(n), stacked (R, n),
    then n ball draws, stacked (R, n, q, q)."""
    if nu.q != params.q:
        raise DimensionError("law rank does not match params")
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    atoms = np.stack([a.array for a in nu.atoms])
    _require_field(params, atoms)
    draws = [(rng.random(n_steps), _ball_variates(params, rng, n_steps)) for rng in rngs]
    u = np.array([picks for picks, _ in draws]).reshape(len(rngs), n_steps)
    return atoms, u, _ball_stack(params, [variates for _, variates in draws], n_steps)


def _walk_steps(params: StructureParams, atoms: np.ndarray, picks: np.ndarray, balls):
    """The paths S_0 = 0, S_1, ..., S_n, stacked (R, n + 1, q, q), of walks
    from zero whose step k takes atoms[picks[:, k]] with ball draws
    balls[:, k]; each step is written into its slice of the path."""
    path = np.zeros((len(picks), picks.shape[1] + 1, params.q, params.q), dtype=params.dtype)
    zero = np.ones(len(picks), dtype=bool)
    atom_zero = ~atoms.any(axis=(1, 2))
    for step, pick in enumerate(picks.T):
        states = path[:, step + 1]
        states[:] = path[:, step]  # a zero atom keeps the state
        live = ~zero & ~atom_zero[pick]
        # a zero state takes the atom, and stays zero if the atom is zero
        states[zero] = atoms[pick[zero]]
        zero = zero & atom_zero[pick]
        if live.any():
            states[live] = _convolve_stack(states[live], atoms[pick[live]], balls[live, step])
            zero[live] = ~states[live].any(axis=(1, 2))
    return path


def walk_batch(nu: RadialLaw, params: StructureParams, n_steps: int, rngs) -> np.ndarray:
    """Independent walks started at zero, one per stream, advanced together.

    Returns the paths S_0 = 0, S_1, ..., S_n as one (len(rngs), n + 1, q, q)
    array of dtype params.dtype, one path per stream.  Each stream in turn
    draws rng.random(n) for its atom picks and then its n ball draws
    (_walk_draws), so its use does not depend on the path: a draw that a
    zero state (which takes the atom) or a zero atom (which keeps the
    state) leaves unused is still drawn.  The other walks take one
    _convolve_stack step together (_walk_steps).  So walk i is
    walk_simulate(nu, params, n_steps, rngs[i]) bit for bit, whatever the
    other streams are, and walk_batch(nu, params, n_steps, [rng] * m) is m
    successive walk_simulate(nu, params, n_steps, rng) calls.
    """
    atoms, u, balls = _walk_draws(nu, params, n_steps, rngs)
    return _walk_steps(params, atoms, _picks(nu.weights, u), balls)


def walk_simulate(nu: RadialLaw, params: StructureParams, n_steps: int, rng) -> tuple:
    """Random walk started at zero: each step convolves with a fresh atom of nu.

    Returns the states S_0 = 0, S_1, ..., S_n as a tuple of validated
    ConeMatrix; the one-stream case of walk_batch.
    """
    return tuple(map(ConeMatrix, walk_batch(nu, params, n_steps, [rng])[0]))
