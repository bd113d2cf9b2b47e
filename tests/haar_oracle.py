"""Householder oracle for the Haar frames and the chamber integrand.

Haar matrices as the Q of a LAPACK QR of a field-normal matrix, with R's
diagonal phases folded back into Q (Mezzadri, Notices AMS 54, 2007), and
the chamber integrand (1/4) eta u xi^2 u* eta as one batched matrix
product made Hermitian by averaging with its adjoint.  Both draw the
normals exactly as linalg._haar_batch does, so from one generator state
they must give the package's frames and eigenvalues up to rounding.
"""

from __future__ import annotations

import numpy as np


def haar_batch_qr(p: int, d: int, rng, n: int) -> np.ndarray:
    """n Haar p x p matrices, stacked (n, p, p), by QR and a phase fold."""
    if d == 1:
        g = rng.standard_normal((n, p, p))
    else:
        g = rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p))
    q, r = np.linalg.qr(g)
    diag = np.einsum("nii->ni", r)
    return q * (diag / np.abs(diag))[:, None, :]


def integrand_eigs(p: int, d: int, xv, ev, rng, m: int) -> np.ndarray:
    """Eigenvalues, shape (m, p), of (1/4) eta u xi^2 u* eta at m draws u
    of haar_batch_qr."""
    u = haar_batch_qr(p, d, rng, m)
    w = (u * (xv * xv)) @ np.conj(np.swapaxes(u, 1, 2))
    arg = 0.25 * ev[None, :, None] * w * ev[None, None, :]
    return np.linalg.eigvalsh((arg + np.conj(np.swapaxes(arg, 1, 2))) / 2.0)
