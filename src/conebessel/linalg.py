"""Matrix types and primitives for Hermitian matrices over R or C.

Everything downstream (Bessel series, hypergroup sampling, experiment
drivers) goes through the small set of primitives defined here, so the
numerical policy is in one place: Hermiticity is enforced to 1e-12
relative, positive semidefiniteness to 1e-10 relative with eigenvalue
clamping at construction, and eigendecomposition is the single primitive
used for square roots and ball membership.  These checks run where outside
input enters; an array that is Hermitian and PSD by construction (a walk
step) takes the same spectral path without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
    def ambient_dim(self) -> int:
        """Real dimension of the q x q matrix space over the field."""
        return self.d * self.q * self.q

    def with_mu(self, mu: float) -> "StructureParams":
        return StructureParams(self.q, self.d, float(mu))


def _as_array(x) -> np.ndarray:
    if isinstance(x, HermitianMatrix):
        return x.array
    return np.asarray(x)


def _imag_free(a: np.ndarray):
    """Per matrix of a complex (..., q, q) array: is every imaginary part
    exactly zero?"""
    return np.max(np.abs(a.imag), axis=(-2, -1)) == 0.0


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """a, or its real part when every imaginary part is exactly zero."""
    if np.iscomplexobj(a) and _imag_free(a):
        return a.real
    return a


def _clamped_spectrum(h: np.ndarray):
    """eigh of one or a stack of exactly Hermitian arrays: (smallest raw
    eigenvalue, eigenvalues clamped at zero, eigenvectors), the last two in
    descending order."""
    w, v = np.linalg.eigh(h)
    return w[..., 0], np.maximum(w, 0.0)[..., ::-1].copy(), v[..., ::-1].copy()


def _rebuild(eigs: np.ndarray, vecs: np.ndarray):
    """(eigs clamped at zero, exact Hermitian part of vecs diag(eigs) vecs*)
    for one or a stack of eigendecompositions."""
    e = np.maximum(eigs, 0.0)
    a = (vecs * e[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return e, (a + a.conj().swapaxes(-1, -2)) / 2.0


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

    def trace(self) -> float:
        return float(np.real(np.trace(self.array)))

    def __repr__(self):
        return f"{type(self).__name__}(q={self.q})"


class ConeMatrix(HermitianMatrix):
    """Positive semidefinite Hermitian matrix (a point of the cone).

    Eigenvalues are computed once at construction, negatives within
    tolerance are clamped to zero and the array is rebuilt from the
    clamped spectrum, so the stored matrix is PSD exactly (up to the
    reconstruction rounding).
    """

    __slots__ = ("eigs", "_vecs")

    def __init__(self, array):
        super().__init__(array)
        low, eigs, vecs = _clamped_spectrum(self.array)
        if low < -PSD_TOL * (eigs[0] + 1.0):
            raise DomainError(
                f"matrix is not positive semidefinite: min eigenvalue {low:.3e} "
                f"below -{PSD_TOL:.0e} relative tolerance"
            )
        if low < 0.0:
            object.__setattr__(self, "array", ConeMatrix._from_eigh(eigs, vecs).array)
        object.__setattr__(self, "eigs", eigs)
        object.__setattr__(self, "_vecs", vecs)

    @classmethod
    def _from_eigh(cls, eigs_desc: np.ndarray, vecs: np.ndarray) -> "ConeMatrix":
        """Build directly from a known eigendecomposition (internal fast path)."""
        e, a = _rebuild(np.asarray(eigs_desc, dtype=float), vecs)
        return cls._of(_real_if_exact(a), e, vecs.copy())

    @classmethod
    def _of(cls, array: np.ndarray, eigs: np.ndarray, vecs: np.ndarray) -> "ConeMatrix":
        """Wrap an array and its clamped descending spectrum, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "array", array)
        object.__setattr__(obj, "eigs", eigs)
        object.__setattr__(obj, "_vecs", vecs)
        return obj

    def eigenvalues(self) -> np.ndarray:
        return self.eigs

    def norm(self) -> float:
        """Frobenius norm; finite whenever it is representable."""
        if self.eigs[0] < 1e150:
            # no entry exceeds the top eigenvalue, so no square overflows
            return float(np.linalg.norm(self.array))
        with np.errstate(over="ignore"):
            plain = np.linalg.norm(self.array)
        if np.isfinite(plain):
            return float(plain)
        # the sum of squares overflowed: scale by the largest entry
        top = np.max(np.abs(self.array))
        return float(top * np.linalg.norm(self.array / top))

    def is_zero(self) -> bool:
        return not np.any(self.array)


def psd_sqrt(a) -> ConeMatrix:
    """Unique PSD square root of a PSD matrix."""
    c = a if isinstance(a, ConeMatrix) else ConeMatrix(a)
    return ConeMatrix._from_eigh(np.sqrt(c.eigs), c._vecs)


def _psd_sqrt_stack(m: np.ndarray) -> list:
    """psd_sqrt(ConeMatrix(m[i])) for each matrix of a stack (n, q, q) that
    is finite, exactly Hermitian and PSD up to rounding by construction, so
    the checks are skipped: one eigh, a clamp, a square root and a rebuild.

    Whether a complex matrix counts as real is decided per matrix, before
    eigh and again after the rebuild, because real and complex inputs take
    different LAPACK routines; the results equal the one-matrix path bit
    for bit.
    """
    out = [None] * m.shape[0]
    groups = [(range(m.shape[0]), m)]
    if np.iscomplexobj(m):
        real = _imag_free(m)
        groups = [(np.flatnonzero(real), m.real[real]), (np.flatnonzero(~real), m[~real])]
    for rows, h in groups:
        if len(rows) == 0:
            continue
        _, eigs, vecs = _clamped_spectrum(h)
        e, a = _rebuild(np.sqrt(eigs), vecs)
        exact = _imag_free(a) if np.iscomplexobj(a) else np.zeros(len(rows), dtype=bool)
        for k, i in enumerate(rows):
            out[i] = ConeMatrix._of(a[k].real if exact[k] else a[k], e[k], vecs[k])
    return out


def _haar_batch(p: int, d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-distributed orthogonal (d=1) or unitary (d=2) p x p matrices,
    stacked along the first axis.

    QR of a Gaussian matrix with the R-diagonal phase folded back into Q,
    which makes the distribution exactly Haar rather than QR-convention
    dependent. p=1, d=1 gives +-1 with equal probability.
    """
    if d == 1:
        g = rng.standard_normal((n, p, p))
    else:
        g = rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p))
    q, r = np.linalg.qr(g)
    diag = np.einsum("nii->ni", r)
    phase = diag / np.abs(diag)
    return q * phase[:, None, :]


def _ball_draw(expo: float, params: StructureParams, rng, m: int, gaussian: bool) -> np.ndarray:
    """m proposals for the ball density Delta(I - v*v)^expo, stacked (m, q, q).

    The proposal is Gaussian with per-real-coordinate variance 1/(2 expo)
    when `gaussian`, else uniform on the entry-wise box [-1, 1]; over the
    complex field the imaginary parts are drawn after the real parts.
    """
    q = params.q
    if gaussian:
        sd = math.sqrt(1.0 / (2.0 * expo))
        v = rng.standard_normal((m, q, q)) * sd
        if params.d == 2:
            v = v + 1j * (rng.standard_normal((m, q, q)) * sd)
    else:
        v = rng.uniform(-1.0, 1.0, (m, q, q))
        if params.d == 2:
            v = v + 1j * rng.uniform(-1.0, 1.0, (m, q, q))
    return v


def _ball_weigh(expo: float, v: np.ndarray, gaussian: bool, cut: float = 1.0):
    """(inside, log_ratio) for stacked proposals v from _ball_draw.

    `inside` marks draws whose v*v has top eigenvalue below `cut`, and
    log_ratio is expo * (sum log(1 - a) [+ sum a for the Gaussian]) over the
    eigenvalues a of v*v, the log of target over proposal density up to a
    constant (zero outside).  Each draw is weighed on its own, so proposals
    from several streams can be weighed in one call.
    """
    a = np.linalg.eigvalsh(np.conj(np.swapaxes(v, 1, 2)) @ v)
    inside = a[:, -1] < cut
    a_in = np.where(inside[:, None], a, 0.0)
    log_ratio = np.log1p(-a_in).sum(axis=1)
    if gaussian:
        log_ratio = log_ratio + a_in.sum(axis=1)
    return inside, expo * log_ratio
