"""Independent oracle for the cone walk: the rotated-frame ("orbit") picture.

At index mu = p d / 2 with integer p, the convolution of cone point masses
is the law of the radial part (x* x)^{1/2} of a sum of p x q matrices over
the field whose q frame columns are uniformly rotated.  So a walk with
step law nu has, step by step, the law of the radial parts of the partial
sums of independent matrices U_j s_j, with s_j drawn from nu and U_j a
Haar-distributed p x q matrix with orthonormal columns.

None of this goes through the ball density or its sampler, which makes it
a check on hypergroup.walk_simulate rather than a second copy of it.
"""

from __future__ import annotations

import numpy as np

from conebessel.errors import DimensionError, DomainError
from conebessel.linalg import ConeMatrix, psd_sqrt


def radial_part(x: np.ndarray) -> ConeMatrix:
    """(x* x)^{1/2} of a p x q matrix."""
    g = x.conj().T @ x
    return psd_sqrt((g + g.conj().T) / 2.0)


def _frame(p: int, q: int, d: int, rng) -> np.ndarray:
    """Haar-distributed p x q matrix with orthonormal columns: Z (Z* Z)^{-1/2}
    for a p x q Gaussian Z over the field, O(p q^2) where a p x p QR costs
    O(p^3)."""
    z = rng.standard_normal((p, q))
    if d == 2:
        z = z + 1j * rng.standard_normal((p, q))
    w, v = np.linalg.eigh(z.conj().T @ z)
    return z @ ((v / np.sqrt(w)) @ v.conj().T)


def radial_matrix_sample(nu, p: int, params, rng) -> np.ndarray:
    """p x q matrix with uniformly rotated frame and radial part drawn from nu."""
    if p < params.q:
        raise DimensionError(f"need p >= q, got p={p}, q={params.q}")
    atom = nu.atoms[nu.sample_index(rng)]
    return _frame(p, params.q, params.d, rng) @ atom.array


def orbit_walk_simulate(nu, p: int, params, n_steps: int, rng) -> tuple:
    """Radial parts of partial sums of independent rotated-frame matrices.

    For mu = p d / 2 this has the same law, step by step, as walk_simulate,
    and is returned the same way: a tuple of ConeMatrix starting at zero.
    """
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    total = np.zeros((p, params.q), dtype=params.dtype)
    steps = [ConeMatrix(np.zeros((params.q, params.q), dtype=params.dtype))]
    for _ in range(n_steps):
        total = total + radial_matrix_sample(nu, p, params, rng)
        steps.append(radial_part(total))
    return tuple(steps)
