"""Matrix types and primitives for Hermitian matrices over R or C.

Everything downstream (Bessel series, hypergroup sampling, experiment
drivers) goes through the small set of primitives defined here, so the
numerical policy is in one place: Hermiticity is enforced to 1e-12
relative, positive semidefiniteness to 1e-10 relative with eigenvalue
clamping at construction, and one eigh call (_clamped_spectrum) is the
single primitive used for square roots.  These checks run where outside
input enters; a stack of arrays that are Hermitian and PSD by construction
(a walk step) takes the same spectral path without them, in the stack's
own dtype, and psd_sqrt is that path on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class StructureParams:
    """Rank, base field and index of a matrix cone problem.

    q is the rank (matrices are q x q), d selects the field (1 for real
    symmetric, 2 for complex Hermitian) and mu is the continuous index of
    the Bessel function / hypergroup. The half-sum shift rho and the Jack
    parameter alpha are derived, never stored.
    """

    q: int
    d: int
    mu: float

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)) or self.q < 1:
            raise DomainError(f"rank q must be a positive integer, got {self.q!r}")
        if self.d == 4:
            raise DomainError(
                "d=4 (quaternionic matrices) is not supported; only d=1 (real) "
                "and d=2 (complex) are implemented"
            )
        if self.d not in (1, 2):
            raise DomainError(f"field selector d must be 1 or 2, got {self.d!r}")
        mu = float(self.mu)
        if not np.isfinite(mu) or mu <= self.rho - 1.0:
            raise DomainError(
                f"index mu must exceed rho - 1 = {self.rho - 1.0}; got mu={self.mu}"
            )

    @property
    def rho(self) -> float:
        """Half-sum shift d*(q - 1/2) + 1."""
        return self.d * (self.q - 0.5) + 1.0

    @property
    def alpha(self) -> float:
        """Jack parameter 2/d."""
        return 2.0 / self.d

    @property
    def dtype(self):
        return np.complex128 if self.d == 2 else np.float64

    def with_mu(self, mu: float) -> "StructureParams":
        return StructureParams(self.q, self.d, float(mu))

    @cached_property
    def _ball_shapes(self) -> tuple:
        """(width, shapes) of _ball_variates: the d (q^2 + q(q-1)/2) normals
        and the q gamma shapes mu - d (q + i) / 2, i < q, of one ball draw.
        At q = 1 the shape is a float, which standard_gamma takes faster
        than a one-element array, with the same draws."""
        q, d = self.q, self.d
        shapes = self.mu - d * (q + np.arange(q)) / 2.0
        return d * (q * q + q * (q - 1) // 2), float(shapes[0]) if q == 1 else shapes


def _as_array(x) -> np.ndarray:
    if isinstance(x, HermitianMatrix):
        return x.array
    return np.asarray(x)


def _require_field(params: StructureParams, a) -> None:
    """Raise DomainError where a has a nonzero imaginary part over the reals (d=1)."""
    if params.d == 1 and np.iscomplexobj(a) and np.any(np.imag(a)):
        raise DomainError("a matrix with a nonzero imaginary part needs the complex field, d=2")


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """a, one matrix or a stack, or its real part when every imaginary part
    of every matrix is exactly zero."""
    if np.iscomplexobj(a) and not np.any(a.imag):
        return a.real
    return a


def _clamped_spectrum(h: np.ndarray):
    """eigh of one or a stack of exactly Hermitian arrays: (smallest raw
    eigenvalue, eigenvalues clamped at zero, eigenvectors), the last two in
    descending order."""
    w, v = np.linalg.eigh(h)
    return w[..., 0], np.maximum(w, 0.0)[..., ::-1].copy(), v[..., ::-1].copy()


def _rebuild(eigs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The exact Hermitian part of vecs diag(eigs) vecs* for one or a stack
    of eigendecompositions with nonnegative eigs."""
    a = (vecs * eigs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


class HermitianMatrix:
    """Square matrix equal to its conjugate transpose within tolerance.

    The stored array is the exact Hermitian part (x + x*)/2 of the input.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        a = np.asarray(_as_array(array))
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise DimensionError(f"expected a nonempty square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("matrix entries must be finite")
        # both norms taken after dividing by the largest entry, so that
        # they stay finite for entries beyond 1e154
        peak = float(np.max(np.abs(a), initial=0.0)) or 1.0
        b = a / peak
        scale = float(np.linalg.norm(b)) + 1.0 / peak
        dev = float(np.linalg.norm(b - b.conj().T))
        if dev > HERMITIAN_TOL * scale:
            raise DomainError(
                f"matrix is not Hermitian: |x - x*| = {dev:.3e} exceeds "
                f"{HERMITIAN_TOL:.0e} relative tolerance"
            )
        object.__setattr__(self, "array", _real_if_exact((a + a.conj().T) / 2.0))

    @property
    def q(self) -> int:
        return self.array.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        return np.linalg.eigvalsh(self.array)[::-1]

    def __repr__(self):
        return f"{type(self).__name__}(q={self.q})"


class ConeMatrix(HermitianMatrix):
    """Positive semidefinite Hermitian matrix (a point of the cone).

    Eigenvalues are computed once at construction, negatives within
    tolerance are clamped to zero and the array is rebuilt from the
    clamped spectrum, so the stored matrix is PSD exactly (up to the
    reconstruction rounding).  Only the eigenvalues are kept.
    """

    __slots__ = ("eigs",)

    def __init__(self, array):
        super().__init__(array)
        low, eigs, vecs = _clamped_spectrum(self.array)
        if low < -PSD_TOL * (eigs[0] + 1.0):
            raise DomainError(
                f"matrix is not positive semidefinite: min eigenvalue {low:.3e} "
                f"below -{PSD_TOL:.0e} relative tolerance"
            )
        if low < 0.0:
            object.__setattr__(self, "array", _real_if_exact(_rebuild(eigs, vecs)))
        object.__setattr__(self, "eigs", eigs)

    def eigenvalues(self) -> np.ndarray:
        return self.eigs

    def is_zero(self) -> bool:
        return not np.any(self.array)


def psd_sqrt(a) -> ConeMatrix:
    """Unique PSD square root of a PSD matrix: the validated ConeMatrix of
    _psd_sqrt_stack on the stack of one that holds a's validated array."""
    c = a if isinstance(a, ConeMatrix) else ConeMatrix(a)
    return ConeMatrix(_psd_sqrt_stack(c.array[None])[0])


def _psd_sqrt_stack(m: np.ndarray) -> np.ndarray:
    """The PSD square root of each matrix of a stack (n, q, q) that is
    finite, exactly Hermitian and PSD up to rounding by construction, so
    the checks are skipped: one eigh, a clamp, a square root and a
    rebuild, in m's dtype.  A complex-typed real matrix takes the complex
    routine, so its root matches the root of its real part only to
    rounding (at q = 1 bit for bit).
    """
    _, eigs, vecs = _clamped_spectrum(m)
    return _rebuild(np.sqrt(eigs), vecs)


def _haar_batch(p: int, d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-distributed orthogonal (d=1) or unitary (d=2) p x p matrices,
    stacked along the first axis.

    The columns of a field-normal matrix G (its imaginary parts drawn after
    its real parts), orthonormalized by classical Gram-Schmidt run twice,
    which keeps them orthonormal to rounding (Giraud, Langou and
    Rozloznik, Comput. Math. Appl. 50, 2005): the Q of G = QR with R's
    diagonal positive, which is exactly Haar (Mezzadri, Notices AMS 54,
    2007).  p=1, d=1 gives +-1 with equal probability.
    The arithmetic runs entry by entry on (p, n) arrays along the sample
    axis, with no LAPACK call per matrix, so at d=1 a draw's bits do not
    depend on the draws stacked with it.  The result is a view whose .T
    is the contiguous (column, row, sample) array the integrands read.
    """
    g = rng.standard_normal((n, p, p))
    if d == 2:
        g = g + 1j * rng.standard_normal((n, p, p))
    cols = np.ascontiguousarray(g.T)
    for j in range(p):
        v = cols[j]
        for _ in range(2):
            r = [(cols[k].conj() * v).sum(axis=0) for k in range(j)]
            for k in range(j):
                v -= cols[k] * r[k]
        v /= np.sqrt((v.conj() * v).real.sum(axis=0))
    return cols.T


def _ball_variates(params: StructureParams, rng, n: int):
    """The random input of n draws from the ball density, for _ball_points.

    One standard_normal call fills an (n, d (q^2 + q(q-1)/2)) array, one
    row per draw: the q x q entries of G row by row, then the Bartlett
    entries below the diagonal, each entry over the complex field as a
    (real, imaginary) pair.  One standard_gamma call then gives (n, q)
    variates of shapes mu - d (q + i) / 2 = d (nu - i) / 2, i < q, with
    nu = 2 mu / d - q the Wishart degrees of freedom.
    """
    width, shapes = params._ball_shapes
    return rng.standard_normal((n, width)), rng.standard_gamma(shapes, size=(n, params.q))


def _ball_points(params: StructureParams, z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Draws v = G L^{-*} of the ball density Delta(I - v*v)^{mu-rho}, stacked
    (n, q, q), from the variates of _ball_variates.

    G is field-normal and T lower triangular with T_ii^2 = 2 g_i and the
    field normals below its diagonal, so T T* is Wishart_q(nu); L is the
    Cholesky factor of G*G + T T*.  Then I - v*v = L^{-1} T T* L^{-*}, and
    v has the ball density with mu - rho = d (nu - q + 1) / 2 - 1 for every
    mu > rho - 1 (Bartlett's decomposition and the matrix-variate beta law,
    Muirhead 1982, sections 3.2 and 3.3).
    The q x q algebra runs entry by entry on arrays along the sample axis,
    with no LAPACK call per matrix, so a draw's bits do not depend on the
    draws stacked with it.
    """
    q = params.q
    cj = np.conj if params.d == 2 else (lambda a: a)
    e = np.ascontiguousarray(z.view(params.dtype).T)  # one row per field entry
    G = e[: q * q].reshape(q, q, -1)
    Gc = cj(G)
    below = iter(e[q * q :])
    T = [[next(below) for _ in range(i)] + [np.sqrt(2.0 * g[:, i])] for i in range(q)]
    L = [[None] * q for _ in range(q)]  # lower Cholesky factor
    Lc = [[None] * q for _ in range(q)]  # its conjugate below the diagonal
    for j in range(q):
        for i in range(j, q):
            s = Gc[0, i] * G[0, j]
            for k in range(1, q):
                s += Gc[k, i] * G[k, j]
            for k in range(j + 1):
                s += T[i][k] * cj(T[j][k])
            for k in range(j):
                s -= L[i][k] * Lc[j][k]
            if i == j:
                L[j][j] = np.sqrt(s.real)
            else:
                L[i][j] = s / L[j][j]
                Lc[i][j] = cj(L[i][j])
    v = np.empty((z.shape[0], q, q), dtype=params.dtype)
    for r in range(q):
        for j in range(q):
            s = G[r, j]
            for k in range(j):
                s = s - v[:, r, k] * Lc[j][k]
            v[:, r, j] = s / L[j][j]
    return v
