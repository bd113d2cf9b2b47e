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
stream, and one kernel step advances all of them with stacked arithmetic.
A lone walk or convolution is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, SamplingError
from .linalg import (
    ConeMatrix,
    StructureParams,
    _ball_draw,
    _ball_weigh,
    _psd_sqrt_stack,
    psd_sqrt,  # noqa: F401  (looked up here by the perfbench span recorder)
)

_MAX_PROPOSALS = 1_000_000
_MIN_RATE = 1e-4
_BLOCK = 16  # proposals per block; each block is followed by as many uniforms


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


def _sample_ball_batch(params: StructureParams, rngs) -> np.ndarray:
    """One draw from the ball density per stream, stacked (len(rngs), q, q).

    Each stream draws blocks of 16 proposals, each block followed by 16
    uniforms, until a proposal is accepted; the first accepted one is
    kept.  Only the streams still waiting draw another block, and all
    blocks of a round are weighed in one call, so every stream makes the
    same generator calls, in the same order, whatever the others do.
    """
    expo = params.mu - params.rho
    if expo < 0.0:
        raise SamplingError(
            f"ball density has exponent mu - rho = {expo:.3g} < 0 and is unbounded "
            "near the boundary; rejection sampling cannot dominate it "
            "(mu is pathologically close to rho - 1)"
        )
    # for the Gaussian, target/proposal = Delta(I-v*v)^expo * exp(expo <v,v>) <= 1
    gaussian = expo >= 1.0
    q = params.q
    out = np.empty((len(rngs), q, q), dtype=params.dtype)
    waiting = np.arange(len(rngs))
    proposals = 0
    while waiting.size:
        streams = [rngs[i] for i in waiting.tolist()]
        v = np.concatenate([_ball_draw(expo, params, rng, _BLOCK, gaussian) for rng in streams])
        u = np.concatenate([rng.uniform(size=_BLOCK) for rng in streams])
        inside, log_acc = _ball_weigh(expo, v, gaussian, cut=1.0 - 1e-13)
        accept = (inside & (np.log(u) < log_acc)).reshape(-1, _BLOCK)
        hit = accept.any(axis=1)
        out[waiting[hit]] = v.reshape(-1, _BLOCK, q, q)[hit, accept.argmax(axis=1)[hit]]
        waiting = waiting[~hit]
        proposals += _BLOCK
        worst = 0 if waiting.size else 1  # draws accepted by the slowest stream
        if proposals >= _MAX_PROPOSALS and worst / proposals < _MIN_RATE:
            raise SamplingError(
                f"ball sampler acceptance rate {worst / proposals:.2e} after "
                f"{proposals} proposals (mu is pathologically close to rho - 1)"
            )
    return out


def _convolve_stack(r: np.ndarray, s: np.ndarray, params: StructureParams, rngs) -> list:
    """One draw from delta_r[i] * delta_s[i] per stream rngs[i], for stacked
    nonzero pairs r, s of shape (n, q, q): the walk-step kernel.

    The arithmetic runs once over the stack; each pair gets the bits that
    a stack of one would give it.
    """
    v = _sample_ball_batch(params, rngs)
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
    return _convolve_stack(rm.array[None], sm.array[None], params, [rng])[0]


def walk_batch(nu: RadialLaw, params: StructureParams, n_steps: int, rngs):
    """Independent walks started at zero, one per stream, advanced together.

    Yields the list of current states, one ConeMatrix per stream, for
    S_0 = 0, S_1, ..., S_n.  Each step draws the atom index with one
    rng.random() per stream; a zero state takes the atom and a zero atom
    keeps the state, without further draws; the other walks take one
    _convolve_stack step together.  So walk i is walk_simulate(nu, params,
    n_steps, rngs[i]) bit for bit, whatever the other streams are.
    """
    if nu.q != params.q:
        raise DimensionError("law rank does not match params")
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    states = [ConeMatrix(np.zeros((params.q, params.q), dtype=params.dtype))] * len(rngs)
    yield states
    zero = [True] * len(rngs)
    atoms = np.stack([a.array for a in nu.atoms])
    atom_zero = [a.is_zero() for a in nu.atoms]
    for _ in range(n_steps):
        picks = nu._cdf.searchsorted([rng.random() for rng in rngs], side="right").tolist()
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
            for i, x in zip(live, _convolve_stack(ra, sa, params, [rngs[i] for i in live])):
                states[i], zero[i] = x, x.is_zero()
        yield states


def walk_simulate(nu: RadialLaw, params: StructureParams, n_steps: int, rng) -> tuple:
    """Random walk started at zero: each step convolves with a fresh atom of nu.

    Returns the states S_0 = 0, S_1, ..., S_n as a tuple of ConeMatrix; the
    one-stream case of walk_batch.
    """
    return tuple(states[0] for states in walk_batch(nu, params, n_steps, [rng]))
