"""Independent oracle for the ball density Delta(I - v*v)^{mu-rho}.

Proposals from a dominating law, weighed through the eigenvalues of v*v:
a Gaussian with per-real-coordinate variance 1/(2(mu-rho)) when
mu - rho >= 1, else the uniform law on the entry-wise box [-1, 1].  The
weights are bounded, so their mean is an importance estimate of the
normalizer kappa_mu with an honest standard error, and accept/reject with
them gives exact draws for mu >= rho.  None of this goes through
linalg._ball_points, which makes it a check on the package's sampler
rather than a second copy of it.
"""

from __future__ import annotations

import math

import numpy as np


def _propose(expo: float, q: int, d: int, rng, m: int, gaussian: bool) -> np.ndarray:
    """m proposals, stacked (m, q, q); over the complex field the imaginary
    parts are drawn after the real parts."""
    if gaussian:
        sd = math.sqrt(1.0 / (2.0 * expo))
        v = rng.standard_normal((m, q, q)) * sd
        if d == 2:
            v = v + 1j * (rng.standard_normal((m, q, q)) * sd)
    else:
        v = rng.uniform(-1.0, 1.0, (m, q, q))
        if d == 2:
            v = v + 1j * rng.uniform(-1.0, 1.0, (m, q, q))
    return v


def _log_ratio(expo: float, v: np.ndarray, gaussian: bool):
    """(inside, log target/proposal up to a constant) per proposal: inside
    marks a top eigenvalue of v*v below one, and the log ratio is expo *
    (sum log(1 - a) [+ sum a for the Gaussian]) over the eigenvalues a."""
    a = np.linalg.eigvalsh(np.conj(np.swapaxes(v, 1, 2)) @ v)
    inside = a[:, -1] < 1.0
    a_in = np.where(inside[:, None], a, 0.0)
    log_ratio = np.log1p(-a_in).sum(axis=1)
    if gaussian:
        log_ratio = log_ratio + a_in.sum(axis=1)
    return inside, expo * log_ratio


def kappa_importance(params, n: int, rng):
    """Importance estimate of kappa_mu from n proposals: (mean, std error)."""
    expo = params.mu - params.rho
    gaussian = expo >= 1.0
    dim = params.d * params.q * params.q
    log_base = dim / 2.0 * math.log(math.pi / expo) if gaussian else dim * math.log(2.0)
    v = _propose(expo, params.q, params.d, rng, n, gaussian)
    inside, log_ratio = _log_ratio(expo, v, gaussian)
    w = np.where(inside, np.exp(log_ratio + log_base), 0.0)
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(n))


def rejection_sample(params, n: int, rng, block: int = 1 << 14) -> np.ndarray:
    """n exact draws by accept/reject, stacked (n, q, q); needs mu >= rho,
    where the proposal dominates the density."""
    expo = params.mu - params.rho
    if expo < 0.0:
        raise ValueError("rejection sampling needs mu >= rho")
    gaussian = expo >= 1.0
    kept = []
    count = 0
    while count < n:
        v = _propose(expo, params.q, params.d, rng, block, gaussian)
        inside, log_ratio = _log_ratio(expo, v, gaussian)
        accept = inside & (np.log(rng.uniform(size=block)) < log_ratio)
        kept.append(v[accept])
        count += int(accept.sum())
    return np.concatenate(kept)[:n]
