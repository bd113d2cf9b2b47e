"""Rösler's product formula for the cone Bessel functions.

The functions r -> J_mu(1/4 r y^2 r) are the characters of the index-mu
convolution (M. Rösler, Bessel convolutions on matrix cones, Compositio
Math. 143, 2007): their mean over delta_r * delta_s is their product at r
and at s.  So for the walk S_n of i.i.d. steps from nu = sum_i w_i
delta_{a_i},

    E J_mu(1/4 S_n y^2 S_n) = (sum_i w_i J_mu(1/4 a_i y^2 a_i))^n,

which ties the whole walk law (walk_batch) to the certified series
(_series_from_eigs).  Each check is a z-score of the Monte Carlo mean.
"""

import math

import numpy as np
import pytest

from conebessel.bessel import _series_from_eigs
from conebessel.hypergroup import RadialLaw, walk_batch
from conebessel.linalg import StructureParams
from conebessel.seeds import substream

_WALKS = 20_000
_TOL, _MAX_WEIGHT = 1e-10, 200


def _phi(params: StructureParams, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J_mu(1/4 r y^2 r) for a stack r (m, q, q), from the series."""
    m = 0.25 * r @ y @ y @ r
    eigs = np.linalg.eigvalsh((m + np.conj(np.swapaxes(m, 1, 2))) / 2.0)
    return _series_from_eigs(params, eigs, _TOL, _MAX_WEIGHT)[0]


def _psd(rng, q: int, d: int) -> np.ndarray:
    g = rng.standard_normal((q, q))
    if d == 2:
        g = g + 1j * rng.standard_normal((q, q))
    return g @ np.conj(g.T)


@pytest.mark.parametrize("q, d, mu, n", [(2, 1, 3.0, 5), (2, 2, 6.5, 4), (1, 1, 1.3, 6), (3, 1, 4.5, 3)])
def test_walk_mean_of_a_character_is_its_atomic_mean_to_the_n(q, d, mu, n):
    params = StructureParams(q, d, mu)
    label = f"product:q={q}:d={d}:mu={mu:.17g}:n={n}"
    shapes = substream(113, label + ":shapes")
    atoms = np.stack([np.zeros((q, q)), _psd(shapes, q, d), 0.5 * _psd(shapes, q, d)])
    weights = np.array([0.25, 0.35, 0.4])
    law = RadialLaw(weights=tuple(weights), atoms=tuple(atoms))
    rng = substream(113, label)
    states = walk_batch(law, params, n, [rng] * _WALKS)[:, -1]
    # n tr(1/4 a y^2 a) = size at the atom where it is largest.  At size 1
    # the mean is nearly 1 - E tr(1/4 S_n y^2 S_n) / mu, which the ball law
    # does not move; at size 8 a walk without its ball term (mu -> inf)
    # fails every case and one at index 2 mu fails three of the four
    for y, size in ((np.eye(q), 1.0), (_psd(shapes, q, d), 8.0)):
        y = y * math.sqrt(size / (n * max(np.trace(0.25 * a @ y @ y @ a).real for a in atoms)))
        want = float(weights @ _phi(params, y, atoms)) ** n
        vals = _phi(params, y, states)
        z = (vals.mean() - want) / (vals.std(ddof=1) / math.sqrt(_WALKS))
        assert abs(z) <= 4.0, (y, want, vals.mean(), z)


@pytest.mark.parametrize("d", [1, 2])
def test_rank_one_walk_fourth_moment_is_exact(d):
    # the second-order term of the product formula at q = 1:
    # E S_n^4 = n E X^4 + n (n - 1) m^2 (mu + 1) / mu with m = E X^2, whose
    # (mu + 1) / mu is the ball's spread that the strong law's
    # mu_k / n_k^2 condition controls
    mu, n, walks = 3.0, 6, 10_000
    weights, x = np.array([0.3, 0.7]), np.array([0.5, 1.5])
    law = RadialLaw(weights=tuple(weights), atoms=tuple(np.reshape(x, (2, 1, 1))))
    m = float(weights @ x**2)
    want = n * float(weights @ x**4) + n * (n - 1) * m**2 * (mu + 1.0) / mu
    assert want == pytest.approx(130.275, rel=1e-14)
    rng = substream(113, f"fourth:d={d}:mu={mu:.17g}:n={n}")
    states = walk_batch(law, StructureParams(1, d, mu), n, [rng] * walks)[:, -1]
    s4 = np.real(states[:, 0, 0]) ** 4
    z = (s4.mean() - want) / (s4.std(ddof=1) / math.sqrt(walks))
    assert abs(z) <= 4.0, (s4.mean(), want, z)
