"""Limit-theorem experiments for the radial cone walks.

The walks of growing index obey a weak law of large numbers
(S_k normalized by sqrt(k) concentrates at the matrix square root of the
second moment of the step law), a strong law along index/step schedules
that grow fast enough, and, for rank one, a large-deviation principle
whose free energy and rate function have exact finite forms for atomic
step laws.  This module drives desk-scale experiments for all three and
reports them in a reproducible tabular form.

The three conditions a strong-law schedule must meet are decided exactly
from its families and exponents.  The limits themselves are not
observable at finite k: the experiments' rows are finite-sample evidence.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedRankError
# walk_simulate is a perfbench span target
from .hypergroup import RadialLaw, _picks, _walk_draws, _walk_steps, walk_batch, walk_simulate  # noqa: F401
from .linalg import ConeMatrix, StructureParams, _real_if_exact, psd_sqrt
# substream is a perfbench span target
from .seeds import STREAM_VERSION, substream, substreams  # noqa: F401

_MU_FAMILIES = ("poly", "pow2")
_N_FAMILIES = ("poly", "polylog")


@dataclass(frozen=True)
class Schedule:
    """Index sequence mu_k and step-count sequence n_k, k = 1, 2, ...

    mu families:  poly  -> mu_k = mu_c * k**mu_b
                  pow2  -> mu_k = mu_c * 2**k
    n families:   poly   -> n_k = ceil(n_c * k**n_b)
                  polylog-> n_k = ceil(n_c * (ln k)**n_b), floored at 1
    """

    mu_family: str = "pow2"
    mu_c: float = 1.0
    mu_b: float = 1.0
    n_family: str = "poly"
    n_c: float = 1.0
    n_b: float = 1.0

    def __post_init__(self):
        if self.mu_family not in _MU_FAMILIES:
            raise DomainError(f"mu_family must be one of {_MU_FAMILIES}")
        if self.n_family not in _N_FAMILIES:
            raise DomainError(f"n_family must be one of {_N_FAMILIES}")
        if not all(map(math.isfinite, (self.mu_c, self.mu_b, self.n_c, self.n_b))):
            raise DomainError("schedule constants and exponents must be finite")
        if not (self.mu_c > 0 and self.n_c > 0):
            raise DomainError("family scale constants must be positive")

    def mu(self, k: int) -> float:
        if k < 1:
            raise DomainError("k starts at 1")
        try:
            power = float(k) ** self.mu_b if self.mu_family == "poly" else 2.0 ** float(k)
            mu = self.mu_c * power
        except OverflowError:
            mu = math.inf
        if not math.isfinite(mu):
            raise DomainError(f"mu_{k} overflows a float; not a simulable schedule")
        return mu

    def n(self, k: int) -> int:
        if k < 1:
            raise DomainError("k starts at 1")
        if self.n_family == "poly":
            raw = self.n_c * float(k) ** self.n_b
        else:
            raw = self.n_c * math.log(k) ** self.n_b if k > 1 else 0.0
        if raw > 1e15:
            raise DomainError(f"n_{k} exceeds 1e15; not a simulable schedule")
        return max(1, math.ceil(raw))


def schedule_conditions(schedule: Schedule):
    """The three strong-law schedule conditions as (name, verdict) pairs,
    each verdict "diverging" or "not diverging", decided exactly from the
    families and exponents:

      (1) mu_k / k^a -> infinity for every a: iff mu is pow2;
      (2) mu_k / (n_k^2 (ln k)^2) -> infinity: always for pow2 mu; for poly
          mu iff mu_b > max(2 n_b, 0) under poly n, or mu_b > 0 under
          polylog n;
      (3) n_k / (ln k)^2 -> infinity: iff n is poly with n_b > 0, or
          polylog with n_b > 2.

    A non-positive n exponent leaves n_k bounded, hence the 0 floors.
    """
    s = schedule
    poly_n = s.n_family == "poly"
    powers = s.mu_family == "pow2"
    squared = powers or s.mu_b > (max(2.0 * s.n_b, 0.0) if poly_n else 0.0)
    logs = s.n_b > (0.0 if poly_n else 2.0)
    names = ("index_beats_all_powers", "index_beats_steps_squared", "steps_beat_log_squared")
    return tuple(
        (name, "diverging" if ok else "not diverging")
        for name, ok in zip(names, (powers, squared, logs))
    )


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    k: int
    mu: float
    n: int
    replicates: int
    statistic: str
    value: float
    stderr: float
    seed: int


REPORT_COLUMNS = "experiment,k,mu,n,replicates,statistic,value,stderr,seed"


def config_hash(config: dict) -> str:
    """Stable 16-hex-digit digest of a JSON-serializable config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def csv_text(config_digest: str, seed: int, columns: str, rows) -> str:
    """A run's CSV: a line with the config hash and the stream version, the
    master seed line, the column header and the rows."""
    head = f"# config_hash={config_digest} stream_version={STREAM_VERSION}"
    lines = [head, f"# seed={seed}", columns, *rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentReport:
    """Rows of one experiment (each carries the master seed) and any
    schedule condition verdicts."""

    rows: tuple
    diagnostics: tuple = ()

    def csv_rows(self) -> list:
        """One CSV line per row, in REPORT_COLUMNS order."""
        return [
            f"{r.experiment},{r.k},{r.mu:.17g},{r.n},{r.replicates},"
            f"{r.statistic},{r.value:.17g},{r.stderr:.17g},{r.seed}"
            for r in self.rows
        ]


def second_moment(nu: RadialLaw) -> ConeMatrix:
    """Weighted mean of the squared atoms, a point of the cone."""
    q = nu.q
    total = np.zeros((q, q), dtype=nu.atoms[0].array.dtype)
    for w, atom in zip(nu.weights, nu.atoms):
        total = total + w * (atom.array @ atom.array)
    return ConeMatrix(total)


def _deviation(end: np.ndarray, n_steps: int, target) -> float:
    # an imaginary-free endpoint divides as a real array: complex division
    # by a real scalar rounds differently
    return float(np.linalg.norm(_real_if_exact(end) / math.sqrt(n_steps) - target))


def wlln_experiment(
    nu: RadialLaw,
    params: StructureParams,
    schedule: Schedule,
    k_grid,
    replicates: int,
    epsilon: float,
    master_seed: int,
) -> ExperimentReport:
    """Empirical weak-law tail probabilities.

    For each k in k_grid, run `replicates` independent k-step walks at
    index mu_k and record the fraction whose normalized endpoint
    S_k/sqrt(k) lies farther than epsilon (Frobenius) from the square
    root of the second moment of nu, with binomial standard error.
    """
    if replicates < 2:
        raise DomainError("replicates must be at least 2")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    target = psd_sqrt(second_moment(nu)).array
    rows = []
    for k in k_grid:
        k = int(k)
        pk = params.with_mu(schedule.mu(k))
        rngs = substreams(master_seed, f"wlln:k={k}", range(replicates))
        ends = walk_batch(nu, pk, k, rngs)[:, -1]
        hits = sum(_deviation(end, k, target) > epsilon for end in ends)
        p_hat = hits / replicates
        se = math.sqrt(p_hat * (1.0 - p_hat) / replicates)
        rows.append(ReportRow("wlln", k, pk.mu, k, replicates, "tail_prob", p_hat, se, master_seed))
    return ExperimentReport(rows=tuple(rows))


def slln_experiment(
    nu: RadialLaw,
    params: StructureParams,
    schedule: Schedule,
    k_max: int,
    master_seed: int,
) -> ExperimentReport:
    """Single-path strong-law deviations along a schedule.

    For each k <= k_max, simulate one fresh n_k-step walk at index mu_k
    and record d_k = ||S_{n_k}/sqrt(n_k) - sqrt(second moment)||, plus the
    running supremum of deviations from k onward.  The schedule must meet
    the three conditions of schedule_conditions, which are exact; the
    report embeds their verdicts.  Almost-sure convergence is not
    testable; the rows are trend evidence only.
    """
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    diags = schedule_conditions(schedule)
    bad = [name for name, verdict in diags if verdict != "diverging"]
    if bad:
        raise DomainError(f"schedule fails the divergence conditions: {', '.join(bad)}")
    target = psd_sqrt(second_moment(nu)).array
    devs = []
    rngs = substreams(master_seed, "slln", range(1, k_max + 1))
    for k, rng in enumerate(rngs, start=1):
        pk = params.with_mu(schedule.mu(k))
        nk = schedule.n(k)
        end = walk_batch(nu, pk, nk, [rng])[0, -1]
        devs.append((k, pk.mu, nk, _deviation(end, nk, target)))
    rows = [ReportRow("slln", k, mu_k, nk, 1, "deviation", dev, 0.0, master_seed)
            for k, mu_k, nk, dev in devs]
    tail = -math.inf
    sup_rows = []
    for k, mu_k, nk, dev in reversed(devs):
        tail = max(tail, dev)
        sup_rows.append(ReportRow("slln", k, mu_k, nk, 1, "tail_sup", tail, 0.0, master_seed))
    rows.extend(reversed(sup_rows))
    return ExperimentReport(rows=tuple(rows), diagnostics=diags)


def _tilt(nu: RadialLaw, t):
    """The tilted laws of the rank-one large deviations at a scalar or an
    array of t: the atom squares x (m,), the tilted weights
    p_i(t) = w_i e^{t x_i - c(t)} (t's shape + (m,)) and the free energy
    c(t) = ln sum_i w_i e^{t x_i} (t's shape), shifted by the largest
    exponent.  c'(t) is the mean of x under p(t) and c''(t) its variance."""
    if nu.q != 1:
        raise UnsupportedRankError("the large deviations are defined for q = 1 only")
    with np.errstate(over="ignore"):
        x = np.array([np.real(a.array[0, 0]) ** 2 for a in nu.atoms])
    if not np.all(np.isfinite(x)):
        raise DomainError("the squares of the atoms must be finite floats")
    exps = np.multiply.outer(t, x)
    shift = exps.max(axis=-1, keepdims=True)
    p = np.asarray(nu.weights) * np.exp(exps - shift)
    total = p.sum(axis=-1, keepdims=True)
    return x, p / total, (shift + np.log(total))[..., 0]


def free_energy_empirical(nu: RadialLaw, params: StructureParams, n: int, t,
                          replicates: int, master_seed: int):
    """Finite-k free energy c_k(t) = (1/n) ln E[exp(t S_n^2)] at the index
    params.mu by Monte Carlo over `replicates` walks, with delta-method
    standard error, at a scalar t (two floats) or an array of t (two arrays
    of its shape).

    The walks pick their atoms from the tilted law nu_t and are reweighted
    exactly: c_k(t) = c(t) + (1/n) ln E_{nu_t}[exp(t (S_n^2 - sum_k x_{i_k}))].
    The exponent is the walk's fluctuation about the sum of its steps'
    squares.  At a large index it is small, the weights are nearly equal
    and the standard error is honest.  At a small one nu_t is not the
    optimal tilt: at t > 0 the mean is carried by rare, nearly aligned ball
    draws that the weights miss, and the standard error does not show it.
    The fair {0, 1} law at mu = 8, n = 10, t = +1 (20,000 replicates, seed
    7) reads 1.1122 +- 0.0216 against the exact 1.5272 (z = -19), below
    the CLI's 20%-of-value warning; at t = -1, and at mu = 2^10, |z| <= 2.

    Each t has its own streams, labelled by mu, n and t, and each stream
    makes a walk_batch walk's generator calls; only its map from pick
    variates to atoms follows nu_t.  The walks of every nonzero t run as
    one stack, and a walk's bits do not depend on the stack, so each t gets
    the value of a call with t alone.  c_k(0) = 0 needs no walks.
    """
    if params.q != 1:
        raise UnsupportedRankError("the free energy is defined for q = 1 only")
    if n < 1 or replicates < 2:
        raise DomainError("need n >= 1 and replicates >= 2")
    t = np.asarray(t, dtype=float)
    c_k, se = np.zeros(t.shape), np.zeros(t.shape)
    tilted = t != 0.0
    tilts = t[tilted]
    if tilts.size:
        x, p, c = _tilt(nu, tilts)
        label = f"ldp:mu={params.mu:.17g}:n={n}"
        rngs = [rng for tt in tilts
                for rng in substreams(master_seed, f"{label}:t={tt:.17g}", range(replicates))]
        atoms, u, balls = _walk_draws(nu, params, n, rngs)
        # an atom whose tilted weight underflows to 0 is never picked
        u = u.reshape(len(tilts), replicates, n)
        picks = np.concatenate([_picks(row, block) for row, block in zip(p, u)])
        ends = _walk_steps(params, atoms, picks, balls)[:, -1]
        fluctuations = np.real(ends[:, 0, 0]) ** 2 - x[picks].sum(axis=1)
        values = []
        for tt, ct, fluct in zip(tilts, c, fluctuations.reshape(len(tilts), replicates)):
            exponents = tt * fluct
            shift = float(exponents.max())
            w = np.exp(exponents - shift)
            mean_w = float(w.mean())
            rel_se = float(w.std(ddof=1)) / (mean_w * math.sqrt(replicates))
            values.append((float(ct) + (shift + math.log(mean_w)) / n, rel_se / n))
        c_k[tilted], se[tilted] = np.array(values).T
    return (c_k, se) if t.ndim else (float(c_k), float(se))


def free_energy_limit(nu: RadialLaw, t):
    """Limiting free energy c(t) = ln of the atomic mean of exp(t s^2), at a
    scalar or an array of t, in t's shape."""
    c = _tilt(nu, np.asarray(t, dtype=float))[2]
    return c if c.ndim else float(c)


def rate_function(nu: RadialLaw, s):
    """Legendre transform I(s) = sup_t (s t - c(t)) at a scalar or an
    array of s, in s's shape.

    Strictly inside the range of the atom squares the supremum is where
    c'(t), the tilted mean, equals s.  Newton steps solve that for the whole
    grid at once on the log-odds ln(c' - min x) - ln(max x - c'), which is
    t plus a constant for two atoms, with slope c'' (the tilted variance)
    over (c' - min x)(max x - c'), inside a bracket that each step shrinks
    (bisecting where a step would leave it), in units of the spread of the
    squares, so the atoms' scale does not change the steps.  At an end of
    the range I is -ln of the weight there; outside it I is inf, and at a
    nan s it is nan.  Where the
    supremum lies at a t beyond the float range (atom squares closer than
    about 1e-306 of their spread), I is nan.
    """
    x, w, _ = _tilt(nu, 0.0)
    s = np.asarray(s, dtype=float)
    lo, hi = x.min(), x.max()
    w_lo, w_hi = w[x == lo].sum(), w[x == hi].sum()
    rate = np.where(np.isnan(s), math.nan, math.inf)
    # + 0.0: a weight of 1 gives 0, not -0
    rate[s == lo] = -math.log(w_lo) + 0.0
    rate[s == hi] = -math.log(w_hi) + 0.0
    inside = (lo < s) & (s < hi)
    if inside.any():
        target = s[inside]
        unit = hi - lo
        y = (x - lo) / unit
        # max x - c'(t) = sum_i p_i(t) u_i <= sum_i w_i u_i e^{-t u_i} / w_hi
        # <= 1 / (e t w_hi) for t > 0 (u_i = max x - x_i), below max x - s
        # at t_hi; likewise c'(t) < s at t_lo.  An s a subnormal distance
        # from an end overflows these bounds: they are kept where t x and
        # the midpoint of two bounds are floats
        big = np.finfo(float).max / (2.0 * max(hi, 1.0))
        with np.errstate(divide="ignore", over="ignore"):
            t_lo = np.maximum(-1.0 / (w_lo * (target - lo)), -big)
            t_hi = np.minimum(1.0 / (w_hi * (hi - target)), big)
        goal = np.log(target - lo) - np.log(hi - target)
        t = np.zeros_like(target)
        while True:
            _, p, _ = _tilt(nu, t)
            above, below = p @ y, p @ (1.0 - y)
            var = (p * (y - above[:, None]) ** 2).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                logit = np.log(above) - np.log(below)
                step = t + (goal - logit) * above * below / (var * unit)
            t_lo = np.where(logit < goal, t, t_lo)
            t_hi = np.where(logit > goal, t, t_hi)
            step = np.where((t_lo < step) & (step < t_hi), step, (t_lo + t_hi) / 2.0)
            # a step that cannot move, or is nan past the float range, ends it
            done = not np.any(np.abs(step - t) * unit > 1e-12 * np.maximum(1.0, np.abs(t) * unit))
            t = step
            if done:
                break
        # an iterate past half the clamp ran into it: the supremum lies at a
        # t beyond the float range, and s t - c(t) there is a lower bound
        rate[inside] = np.where(np.abs(t) < big / 2.0, target * t - _tilt(nu, t)[2], math.nan)
    return rate if rate.ndim else float(rate)
