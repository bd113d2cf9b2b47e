"""Fixed-seed acceptance suite.

Twelve checks, one per headline claim of the library: classical
reductions, normalization identities, the inequality stock the series
estimates rest on, stability of the large-index envelopes, cross-oracle
agreement between independent evaluation routes, and the three
limit-theorem experiments.  Each check is deterministic (seeds are
hardcoded) and returns a CriterionResult; `run_all` drives them in order.

Tolerances are stated inline next to the quantity they bound.  Inequality
checks use violations normalized by max(1, magnitude of the sides), since
an absolute 1e-10 is below float resolution for exponentially large
values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bessel import (
    bessel_classical,
    bessel_integral_mc,
    bessel_series,
    kappa_mu,
    theorem1_gap,
)
from .dunkl import (
    ChamberPoint,
    bessel_B_mc,
    exp_conjugation_mc,
    harish_chandra_exact,
    hyper_0F0,
)
from .hypergroup import RadialLaw, _convolve_stack, _sample_ball_batch, walk_batch
from .jack import gen_pochhammer, layers, partitions_of_weight
from .limits import (
    Schedule,
    free_energy_empirical,
    free_energy_limit,
    rate_function,
    wlln_experiment,
    slln_experiment,
)
from .linalg import ConeMatrix, StructureParams
from .seeds import substream, substreams


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _norm_violation(lhs, rhs):
    """Positive part of lhs - rhs, scaled by max(1, |lhs|, |rhs|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return float(np.max((lhs - rhs) / scale, initial=-np.inf))


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic max |F_a - F_b| over the pooled sample."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, "right") / a.size
    fb = np.searchsorted(b, pooled, "right") / b.size
    return float(np.max(np.abs(fa - fb)))


def q1_classical_identity():
    """Rank-one kernel equals the classical one-variable function:
    |J_mu(x^2/4) - j_{mu-1}(x)| <= 1e-9 on mu in {2,5,10}, x in [0,4]."""
    worst = 0.0
    for mu in (2.0, 5.0, 10.0):
        params = StructureParams(q=1, d=1, mu=mu)
        for x in np.arange(0.0, 4.0 + 1e-12, 0.25):
            v, _ = bessel_series(np.asarray([[x * x / 4.0]]), params)
            w, _ = bessel_classical(mu - 1.0, float(x))
            worst = max(worst, abs(v - w))
    return worst <= 1e-9, f"max |series - classical| = {worst:.2e} (tol 1e-9)"


def zonal_power_trace():
    """Layer sums of the zonal polynomials reproduce trace powers:
    rel err of sum over |lambda|=k of Z_lambda(y) vs (tr y)^k <= 1e-8."""
    worst = 0.0
    for q in (2, 3):
        for d in (1, 2):
            rng = substream(102, f"zonal:q={q}:d={d}")
            eigs = rng.standard_normal((100, q)) ** 2
            tr = eigs.sum(axis=1)
            for k, (_, vals) in enumerate(layers(2.0 / d, q, eigs, 8), start=1):
                rel = np.abs(vals.sum(axis=0) - tr**k) / tr**k
                worst = max(worst, float(rel.max()))
    return worst <= 1e-8, f"max rel err = {worst:.2e} (tol 1e-8)"


def _check_scalar_inequalities(rng, n):
    out = {}
    r = rng.uniform(1e-3, 50.0, n)
    z = -20.0 + (r + 20.0) * rng.uniform(0.0, 1.0, n)
    out["power_vs_exp"] = _norm_violation((1.0 - z / r) ** r, np.exp(-z))

    r = rng.uniform(1.0, 100.0, n)
    zc = np.minimum(r, 20.0)
    z = zc * rng.uniform(-1.0, 1.0, n)
    diff = np.exp(-z) - (1.0 - z / r) ** r
    out["remainder_nonneg"] = _norm_violation(0.0, diff)
    out["remainder_bound"] = _norm_violation(diff, z * z * np.exp(-z) / r)

    r = rng.uniform(1e-3, 30.0, n)
    z = rng.uniform(1e-6, 8.0, n)
    base = 1.0 + z / r
    out["lower_power"] = _norm_violation(base**r, np.exp(z))
    out["upper_power"] = _norm_violation(np.exp(z), base ** (r + z / 2.0))
    return out


def _random_square(rng, q, d, n):
    g = rng.standard_normal((n, q, q))
    if d == 2:
        g = g + 1j * rng.standard_normal((n, q, q))
    return g


def _check_matrix_inequalities(rng, n_per):
    out = {"det_lower": -np.inf, "det_upper": -np.inf,
           "det_plus_lower": -np.inf, "det_plus_upper": -np.inf}
    for q in (1, 2, 3):
        for d in (1, 2):
            mu = rng.uniform(1.001, 100.0, n_per)
            v = _random_square(rng, q, d, n_per)
            a = np.linalg.eigvalsh(np.conj(np.swapaxes(v, 1, 2)) @ v)
            # rescale into the ball of radius sqrt(mu), with random fill
            top = np.sqrt(a[:, -1])
            scale = np.sqrt(mu) * rng.uniform(0.05, 0.999, n_per) / top
            a = a * (scale[:, None] ** 2)
            tr = a.sum(axis=1)
            diff = np.exp(-tr) - np.prod(1.0 - a / mu[:, None], axis=1) ** mu
            out["det_lower"] = max(out["det_lower"], _norm_violation(0.0, diff))
            bound = (a * a).sum(axis=1) / mu * np.exp(-tr)
            out["det_upper"] = max(out["det_upper"], _norm_violation(diff, bound))

            mu = rng.uniform(1e-3, 100.0, n_per)
            v = _random_square(rng, q, d, n_per)
            a = np.linalg.eigvalsh(np.conj(np.swapaxes(v, 1, 2)) @ v)
            a = a * (rng.uniform(0.05, 1.0, n_per) / np.maximum(a.sum(axis=1), 1e-12) * 10.0)[:, None]
            tr = a.sum(axis=1)
            m = a[:, -1]
            lower = np.prod(1.0 + a / mu[:, None], axis=1) ** mu
            upper = np.prod(1.0 + a / mu[:, None], axis=1) ** (mu + m / 2.0)
            out["det_plus_lower"] = max(out["det_plus_lower"], _norm_violation(lower, np.exp(tr)))
            out["det_plus_upper"] = max(out["det_plus_upper"], _norm_violation(np.exp(tr), upper))
    return out


def _check_zonal_sign_bound(rng, n_per):
    worst = -np.inf
    for q in (2, 3):
        for d in (1, 2):
            eigs = rng.standard_normal((n_per, q)) ** 2
            for (_, pos), (_, neg) in zip(layers(2.0 / d, q, eigs, 8), layers(2.0 / d, q, -eigs, 8)):
                worst = max(worst, _norm_violation(np.abs(neg), pos))
    return worst


def _check_pochhammer_bounds(rng, n):
    worst_ratio = -np.inf
    worst_gap = -np.inf
    qs = rng.integers(1, 4, n)
    ds = rng.integers(1, 3, n)
    ks = rng.integers(0, 9, n)
    for i in range(n):
        q, d, k = int(qs[i]), int(ds[i]), int(ks[i])
        rho = d * (q - 0.5) + 1.0
        parts = partitions_of_weight(k, q)
        lam = parts[int(rng.integers(0, len(parts)))]
        cap = 2.0 ** (d * q * (q - 1) / 2.0)
        mu = rho - 1.0 + 10.0 ** rng.uniform(-3, 3)
        poch = gen_pochhammer(mu, lam, 2.0 / d)
        worst_ratio = max(worst_ratio, _norm_violation(mu**k / poch, cap))
        mu = rng.uniform(rho, 1000.0)
        poch = gen_pochhammer(mu, lam, 2.0 / d)
        lhs = abs(1.0 - mu**k / poch)
        worst_gap = max(worst_gap, _norm_violation(lhs, d * q * cap * k * k / mu))
    return worst_ratio, worst_gap


def exponential_inequalities():
    """The scalar and determinantal exponential bounds, the zonal sign
    bound, and the Pochhammer floor/gap bounds, each on 10^4 random
    samples with normalized tolerance 1e-10."""
    tol = 1e-10
    rng = substream(103, "inequalities")
    results = _check_scalar_inequalities(rng, 10_000)
    results.update(_check_matrix_inequalities(rng, 1700))
    results["zonal_sign"] = _check_zonal_sign_bound(rng, 2500)
    ratio, gap = _check_pochhammer_bounds(rng, 10_000)
    results["poch_floor"] = ratio
    results["poch_gap"] = gap
    worst_name = max(results, key=results.get)
    worst = results[worst_name]
    return worst <= tol, f"worst normalized violation {worst:.2e} ({worst_name}; tol 1e-10)"


def kernel_gap_stability():
    """Normalized distance of J_mu(mu y) from e^{-tr y} keeps a stable
    constant: gap/envelope within a factor 4 of its mu=16 value while mu
    doubles to 256, on a fixed q=2 grid with tr y up to 10."""
    params = StructureParams(q=2, d=1, mu=16.0)
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.asarray([[c, -s], [s, c]])
    ys = [
        np.diag([0.3, 0.2]),
        np.diag([1.2, 0.8]),
        rot @ np.diag([2.5, 0.5]) @ rot.T,
        np.diag([6.0, 4.0]),
        rot @ np.diag([9.5, 0.5]) @ rot.T,
    ]
    mus = (16.0, 32.0, 64.0, 128.0, 256.0)
    worst = 0.0
    for y in ys:
        ratios = []
        for mu in mus:
            gap, env = theorem1_gap(y, params.with_mu(mu))
            ratios.append(gap / env)
        base = ratios[0]
        spread = max(max(r / base for r in ratios), max(base / r for r in ratios))
        worst = max(worst, spread)
    return worst <= 4.0, f"max deviation factor from mu=16 value = {worst:.2f} (limit 4)"


def normalizer_asymptotics():
    """The ball-volume normalizer: the closed form matches quadrature to
    1e-8 at rank one, and at rank two mu^2 * kappa approaches pi^2 at
    log-log slope <= -0.8."""
    # 64-node Gauss-Legendre in theta on [0, pi/2] after v = sin(theta) (r at d = 2):
    # 2 int cos^(2e+1) and 2 pi int sin cos^(2e+1), e = mu - rho
    x, w = np.polynomial.legendre.leggauss(64)
    theta, w = (x + 1.0) * (math.pi / 4.0), w * (math.pi / 4.0)
    worst = 0.0
    for d in (1, 2):
        for mu in (2.5, 4.0, 7.0):
            params = StructureParams(q=1, d=d, mu=mu)
            cos = np.cos(theta) ** (2.0 * (mu - params.rho) + 1.0)
            jac = 2.0 if d == 1 else 2.0 * math.pi * np.sin(theta)
            worst = max(worst, abs(kappa_mu(params) - float(w @ (jac * cos))))
    if worst > 1e-8:
        return False, f"rank one off quadrature by {worst:.2e} (tol 1e-8)"

    mus = np.asarray([16.0, 32.0, 64.0, 128.0, 256.0])
    diffs = [abs(mu * mu * kappa_mu(StructureParams(q=2, d=1, mu=float(mu))) - math.pi**2)
             for mu in mus]
    slope = float(np.polyfit(np.log(mus), np.log(diffs), 1)[0])
    return slope <= -0.8, f"q=1 worst {worst:.1e}; q=2 slope {slope:.2f} (need <= -0.8)"


def series_integral_cross():
    """Series evaluation agrees with the ball-integral Monte Carlo within
    3 standard errors at q=2, five random arguments, 10^6 samples."""
    params = StructureParams(q=2, d=1, mu=5.0)
    rng = substream(106, "cross-args")
    worst_z = 0.0
    for mc_rng in substreams(106, "cross-mc", range(5)):
        x = 0.6 * rng.standard_normal((2, 2))
        series, tail = bessel_series(x.T @ x, params)
        mc, se = bessel_integral_mc(x, params, 1_000_000, mc_rng)
        z = abs(series - mc) / se
        worst_z = max(worst_z, z)
    return worst_z <= 3.0, f"max |series - MC| = {worst_z:.2f} standard errors (limit 3)"


def orbit_projection_consistency():
    """At index mu = p/2 * d the abstract convolution matches the law of
    the genuine p-dimensional geometric walk: two-sample KS below the 1%
    critical value for one step and for a two-step walk, N = 10^5."""
    n = 100_000
    p = 8
    params = StructureParams(q=1, d=1, mu=p / 2.0)
    one = ConeMatrix(np.asarray([[1.0]]))
    law = RadialLaw(weights=(1.0,), atoms=(one,))
    crit = 1.628 * math.sqrt(2.0 / n)

    # n one-step convolutions of 1 with 1, and below n two-step walks, each
    # batch on one stream: the bits of n successive calls on it
    ones = np.ones((n, 1, 1))
    v = _sample_ball_batch(params, [substream(107, "conv")] * n, 1)[:, 0]
    a = _convolve_stack(ones, ones, v)[:, 0, 0]
    g = substream(107, "sphere-1").standard_normal((n, p))
    z = g / np.linalg.norm(g, axis=1, keepdims=True)
    b = np.sqrt(2.0 + 2.0 * z[:, 0])
    d1 = _ks_statistic(a, b)

    a2 = walk_batch(law, params, 2, [substream(107, "walk")] * n)[:, -1, 0, 0]
    g = substream(107, "sphere-2").standard_normal((n, 2, p))
    z = g / np.linalg.norm(g, axis=2, keepdims=True)
    b2 = np.linalg.norm(z.sum(axis=1), axis=1)
    d2 = _ks_statistic(a2, b2)

    ok = d1 < crit and d2 < crit
    return ok, f"KS one-step {d1:.5f}, two-step {d2:.5f} (crit 1% = {crit:.5f})"


def conjugation_average_triangle():
    """Three routes to the same conjugation average at d=2, q=2 agree:
    alternating sum vs Jack series within 1e-6, and each within 3
    standard errors of plain Haar Monte Carlo."""
    pairs = [
        ((1.0, 0.5), (2.0, 1.0)),
        ((2.5, 0.7), (1.2, 0.3)),
        ((3.0, 1.5), (0.8, 0.4)),
        ((1.8, 0.9), (1.5, 0.6)),
        ((2.2, 1.0), (2.0, 0.9)),
    ]
    worst_det = 0.0
    worst_z = 0.0
    for (x2, e2), rng in zip(pairs, substreams(108, "triangle", range(len(pairs)))):
        hc = harish_chandra_exact(x2, e2)
        ser, _ = hyper_0F0(1.0, [-a for a in x2], e2, tol=1e-10, max_weight=60)
        mc, se = exp_conjugation_mc(x2, e2, 2, 200_000, rng)
        worst_det = max(worst_det, abs(hc - ser))
        worst_z = max(worst_z, abs(mc - hc) / se, abs(mc - ser) / se)
    ok = worst_det <= 1e-6 and worst_z <= 3.0
    return ok, (
        f"|alternating - series| = {worst_det:.1e} (tol 1e-6), "
        f"max MC deviation {worst_z:.2f} se (limit 3)"
    )


def weak_law_tail():
    """Tail probabilities of the normalized walk endpoint shrink: at
    mu_k = k, the empirical P(|S_k/sqrt(k) - 1| > 0.1) over 200
    replicates is <= 0.05 at k=400 and non-increasing along 25/100/400."""
    params = StructureParams(q=1, d=1, mu=4.0)
    law = RadialLaw(weights=(1.0,), atoms=(ConeMatrix(np.asarray([[1.0]])),))
    sched = Schedule(mu_family="poly", mu_c=1.0, mu_b=1.0)
    rows = wlln_experiment(law, params, sched, (25, 100, 400), 200, 0.1, master_seed=109)
    probs = [r.value for r in rows]
    ok = probs[-1] <= 0.05 and probs[0] >= probs[1] >= probs[2]
    return ok, f"tail probabilities {probs} (last <= 0.05, non-increasing)"


def strong_law_trend():
    """Along the doubling-index schedule a single path's deviation at
    k=20 falls below its k=5 value in at least 18 of 20 seeded runs."""
    params = StructureParams(q=1, d=1, mu=4.0)
    law = RadialLaw(weights=(1.0,), atoms=(ConeMatrix(np.asarray([[1.0]])),))
    sched = Schedule(mu_family="pow2", n_family="poly")
    wins = 0
    for seed in range(20):
        rows = slln_experiment(law, params, sched, 20, master_seed=seed)
        dev = {r.k: r.value for r in rows if r.statistic == "deviation"}
        if dev[20] < dev[5]:
            wins += 1
    return wins >= 18, f"deviation shrank in {wins}/20 paths (need >= 18)"


def free_energy_rate():
    """Rank-one large deviations for the fair two-atom law: the
    finite-k free energy matches its limit within 0.05 at t = +-1, and
    the rate function matches the closed entropy form within 1e-3."""
    params = StructureParams(q=1, d=1, mu=4.0)
    law = RadialLaw(
        weights=(0.5, 0.5),
        atoms=(ConeMatrix(np.asarray([[0.0]])), ConeMatrix(np.asarray([[1.0]]))),
    )
    t = np.array([1.0, -1.0])
    ck, _ = free_energy_empirical(law, params.with_mu(2.0**20), 20, t, 10_000, master_seed=111)
    worst_c = float(np.max(np.abs(ck - free_energy_limit(law, t))))
    s = np.arange(0.1, 0.95, 0.1)
    exact = s * np.log(2.0 * s) + (1.0 - s) * np.log(2.0 * (1.0 - s))
    worst_i = float(np.max(np.abs(rate_function(law, s) - exact)))
    i_half = rate_function(law, 0.5)
    ok = worst_c <= 0.05 and worst_i <= 1e-3 and i_half <= 1e-6
    return ok, (
        f"|c_k - c| = {worst_c:.4f} (tol 0.05), rate err {worst_i:.1e} (tol 1e-3), "
        f"I(1/2) = {i_half:.1e} (tol 1e-6)"
    )


def chamber_limit_stability():
    """The chamber Bessel function approaches its flat limit at rate 1/mu:
    the normalized gap stays within a factor 4 (plus 3 sigma of MC noise)
    of its mu=64 value as mu doubles to 256, for both fields."""
    pairs = [((0.9, 0.4), (1.0, 0.6)), ((1.2, 0.5), (0.8, 0.3))]
    detail = []
    ok = True
    for d in (1, 2):
        base = StructureParams(q=2, d=d, mu=64.0)
        for j, (xv, ev) in enumerate(pairs):
            xi, eta = ChamberPoint(xv), ChamberPoint(ev)
            x2 = xi.array() ** 2
            e2 = eta.array() ** 2
            m = min(1.0, float(np.linalg.norm(x2) * np.linalg.norm(e2)) ** 2)
            a_val, _ = hyper_0F0(2.0 / d, -x2, e2, tol=1e-10, max_weight=60)
            gs, sigmas = [], []
            rngs = substreams(112, f"chamber:d={d}:pair={j}", range(3))
            for mu, rng in zip((64.0, 128.0, 256.0), rngs):
                b_val, se = bessel_B_mc(
                    xi.scaled(2.0 * math.sqrt(mu)), eta, base.with_mu(mu), 40_000, rng
                )
                gs.append(abs(b_val - a_val) * mu / m)
                sigmas.append(se * mu / m)
            for i in (1, 2):
                hi = 4.0 * gs[0] + 3.0 * (sigmas[i] + 4.0 * sigmas[0])
                lo = gs[0] / 4.0 - 3.0 * (sigmas[i] + sigmas[0] / 4.0)
                ok = ok and (lo <= gs[i] <= hi)
            detail.append(f"d={d} pair{j}: " + "/".join(f"{g:.3f}" for g in gs))
    return ok, "normalized gaps " + "; ".join(detail) + " (factor-4 band + noise)"


CRITERIA = (
    ("q1_classical_identity", q1_classical_identity),
    ("zonal_power_trace", zonal_power_trace),
    ("exponential_inequalities", exponential_inequalities),
    ("kernel_gap_stability", kernel_gap_stability),
    ("normalizer_asymptotics", normalizer_asymptotics),
    ("series_integral_cross", series_integral_cross),
    ("orbit_projection_consistency", orbit_projection_consistency),
    ("conjugation_average_triangle", conjugation_average_triangle),
    ("weak_law_tail", weak_law_tail),
    ("strong_law_trend", strong_law_trend),
    ("free_energy_rate", free_energy_rate),
    ("chamber_limit_stability", chamber_limit_stability),
)


def run_criterion(name: str) -> CriterionResult:
    fn = dict(CRITERIA)[name]
    start = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_all():
    """Run every criterion in order, yielding CriterionResults."""
    for name, _ in CRITERIA:
        yield run_criterion(name)
