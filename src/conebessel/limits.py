"""Limit-theorem experiments for the radial cone walks.

The walks of growing index obey a weak law of large numbers
(S_k normalized by sqrt(k) concentrates at the matrix square root of the
second moment of the step law), a strong law along index/step schedules
that grow fast enough, and, for rank one, a large-deviation principle
whose free energy and rate function have exact finite forms for atomic
step laws.  This module drives desk-scale experiments for all three and
reports them in a reproducible tabular form.

Limits themselves are not observable at finite k; every verdict emitted
here is a finite-sample diagnostic and is labeled as such.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedRankError
from .hypergroup import RadialLaw, walk_batch, walk_simulate
from .linalg import ConeMatrix, StructureParams, psd_sqrt
from .seeds import STREAM_VERSION, substream

_MU_FAMILIES = ("poly", "pow2")
_N_FAMILIES = ("poly", "polylog")

HEURISTIC_NOTE = "finite-k diagnostic, not a proof of the limit"

_LN10 = math.log(10.0)

# strong-law schedules are checked for divergence out to this k at least
_DIAGNOSTIC_HORIZON = 100_000
# the rate function's supremum over t is searched on this interval
_T_LO, _T_HI = -60.0, 60.0


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
        if not (self.mu_c > 0 and self.n_c > 0):
            raise DomainError("family scale constants must be positive")

    def mu(self, k: int) -> float:
        if k < 1:
            raise DomainError("k starts at 1")
        if self.mu_family == "poly":
            return self.mu_c * float(k) ** self.mu_b
        return self.mu_c * 2.0 ** float(k)

    def log_mu(self, k: int) -> float:
        """ln(mu_k), stable for schedules that overflow a float."""
        if k < 1:
            raise DomainError("k starts at 1")
        if self.mu_family == "poly":
            return math.log(self.mu_c) + self.mu_b * math.log(k)
        return math.log(self.mu_c) + k * math.log(2.0)

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

    def log_n(self, k: int) -> float:
        return math.log(self.n(k))


@dataclass(frozen=True)
class ConditionDiagnostic:
    """Finite-k divergence diagnostic for one schedule condition."""

    name: str
    ratio_label: str
    ks: tuple
    log_ratios: tuple
    verdict: str
    note: str = HEURISTIC_NOTE


def _diverging(log_ratios) -> bool:
    # heuristic: the monitored ratio must have grown by at least a decade
    # from the first probe to the last, and the last probe must be the max
    lr = list(log_ratios)
    return lr[-1] - lr[0] >= _LN10 and lr[-1] >= max(lr)


def _probe_ks(k_max: int) -> tuple:
    ks = np.unique(np.rint(np.geomspace(2, k_max, 12)).astype(int))
    return tuple(int(v) for v in ks if v >= 2)


def schedule_conditions(schedule: Schedule, k_max: int):
    """Divergence diagnostics for the three strong-law schedule conditions:

      (1) mu_k / k^a -> infinity for every a (probed at a = 1, 2, 3),
      (2) mu_k / (n_k^2 (ln k)^2) -> infinity,
      (3) n_k / (ln k)^2 -> infinity.

    Each is monitored at a log-spaced set of k up to k_max and classified
    "diverging" or "not diverging" by a monotone-growth heuristic.  Slowly
    diverging ratios need a generous k_max to register; finite probes can
    never prove a limit either way.
    """
    if k_max < 10:
        raise DomainError(f"k_max must be at least 10, got {k_max}")
    ks = _probe_ks(k_max)

    probes = {}
    for a in (1, 2, 3):
        probes[a] = [schedule.log_mu(k) - a * math.log(k) for k in ks]
    verdict1 = "diverging" if all(_diverging(probes[a]) for a in (1, 2, 3)) else "not diverging"
    cond1 = ConditionDiagnostic(
        name="index_beats_all_powers",
        ratio_label="mu_k / k^3 (deciding probe a=3 of a in {1,2,3})",
        ks=ks,
        log_ratios=tuple(probes[3]),
        verdict=verdict1,
    )

    lr2 = tuple(
        schedule.log_mu(k) - 2.0 * schedule.log_n(k) - 2.0 * math.log(math.log(k))
        for k in ks
    )
    cond2 = ConditionDiagnostic(
        name="index_beats_steps_squared",
        ratio_label="mu_k / (n_k^2 (ln k)^2)",
        ks=ks,
        log_ratios=lr2,
        verdict="diverging" if _diverging(lr2) else "not diverging",
    )

    lr3 = tuple(
        schedule.log_n(k) - 2.0 * math.log(math.log(k)) for k in ks
    )
    cond3 = ConditionDiagnostic(
        name="steps_beat_log_squared",
        ratio_label="n_k / (ln k)^2",
        ks=ks,
        log_ratios=lr3,
        verdict="diverging" if _diverging(lr3) else "not diverging",
    )
    return (cond1, cond2, cond3)


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
    schedule diagnostics."""

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


def _endpoints(nu, params, n_steps, rngs) -> list:
    """S_n of one walk per stream, all run together by walk_batch."""
    for states in walk_batch(nu, params, n_steps, rngs):
        pass
    return states


def _deviation(end: ConeMatrix, n_steps: int, target) -> float:
    return float(np.linalg.norm(end.array / math.sqrt(n_steps) - target))


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
        label = f"wlln:k={k}"
        rngs = [substream(master_seed, label, r) for r in range(replicates)]
        ends = _endpoints(nu, pk, k, rngs)
        hits = sum(_deviation(end, k, target) > epsilon for end in ends)
        p_hat = hits / replicates
        se = math.sqrt(p_hat * (1.0 - p_hat) / replicates)
        rows.append(
            ReportRow(
                experiment="wlln",
                k=k,
                mu=pk.mu,
                n=k,
                replicates=replicates,
                statistic="tail_prob",
                value=p_hat,
                stderr=se,
                seed=master_seed,
            )
        )
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
    running supremum of deviations from k onward.  The schedule must pass
    the three divergence diagnostics (checked out to k = 100,000);
    the report embeds those diagnostics.  Almost-sure convergence is not
    testable; this is trend evidence only.
    """
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    diags = schedule_conditions(schedule, max(k_max, _DIAGNOSTIC_HORIZON))
    bad = [d.name for d in diags if d.verdict != "diverging"]
    if bad:
        raise DomainError(
            f"schedule fails divergence diagnostics: {', '.join(bad)}"
        )
    target = psd_sqrt(second_moment(nu)).array
    devs = []
    for k in range(1, k_max + 1):
        pk = params.with_mu(schedule.mu(k))
        nk = schedule.n(k)
        end = walk_simulate(nu, pk, nk, substream(master_seed, "slln", k))[-1]
        devs.append((k, pk.mu, nk, _deviation(end, nk, target)))
    rows = []
    for k, mu_k, nk, dev in devs:
        rows.append(
            ReportRow("slln", k, mu_k, nk, 1, "deviation", dev, 0.0, master_seed)
        )
    tail = -math.inf
    sup_rows = []
    for k, mu_k, nk, dev in reversed(devs):
        tail = max(tail, dev)
        sup_rows.append(
            ReportRow("slln", k, mu_k, nk, 1, "tail_sup", tail, 0.0, master_seed)
        )
    rows.extend(reversed(sup_rows))
    return ExperimentReport(rows=tuple(rows), diagnostics=diags)


def _require_rank_one(params: StructureParams, what: str):
    if params.q != 1:
        raise UnsupportedRankError(f"{what} is defined for q = 1 only")


def free_energy_empirical(
    nu: RadialLaw,
    params: StructureParams,
    mu: float,
    n: int,
    t: float,
    replicates: int,
    master_seed: int,
):
    """Finite-k free energy c_k(t) = (1/n) ln E[exp(t S_n^2)] by Monte
    Carlo over `replicates` walks, with delta-method standard error.

    The plain-MC estimator degrades quickly for large positive t (the
    expectation is dominated by rare paths); callers should treat a
    relative standard error above 20% as unusable.
    """
    _require_rank_one(params, "the free energy")
    if n < 1 or replicates < 2:
        raise DomainError("need n >= 1 and replicates >= 2")
    pk = params.with_mu(mu)
    if t == 0.0:
        return 0.0, 0.0
    label = f"ldp:mu={mu:.17g}:n={n}:t={t:.17g}"
    rngs = [substream(master_seed, label, r) for r in range(replicates)]
    exponents = np.empty(replicates)
    for r, end in enumerate(_endpoints(nu, pk, n, rngs)):
        s_val = float(np.real(end.array[0, 0]))
        exponents[r] = t * s_val * s_val
    shift = float(exponents.max())
    w = np.exp(exponents - shift)
    mean_w = float(w.mean())
    c_val = (shift + math.log(mean_w)) / n
    rel_se = float(w.std(ddof=1)) / (mean_w * math.sqrt(replicates))
    return c_val, rel_se / n


def _atom_squares(nu: RadialLaw) -> list:
    """s^2 for each rank-one atom s."""
    return [float(np.real(a.array[0, 0])) ** 2 for a in nu.atoms]


def _free_energy(weights, squares, t: float) -> float:
    """ln sum_i weights[i] exp(t squares[i]), shifted by its largest exponent."""
    exps = [t * sq for sq in squares]
    shift = max(exps)
    acc = sum(w * math.exp(e - shift) for w, e in zip(weights, exps))
    return shift + math.log(acc)


def free_energy_limit(nu: RadialLaw, params: StructureParams, t: float) -> float:
    """Limiting free energy c(t) = ln of the atomic mean of exp(t s^2)."""
    _require_rank_one(params, "the free energy")
    return _free_energy(nu.weights, _atom_squares(nu), t)


def rate_function(nu: RadialLaw, params: StructureParams, s: float) -> float:
    """Legendre transform I(s) = sup_t (s t - c(t)) by golden-section
    search over -60 <= t <= 60 (the objective is concave).  Returns
    math.inf when the supremum runs into a search bound with positive
    outward slope; clamped below at 0, which the exact supremum attains
    at t = 0.
    """
    _require_rank_one(params, "the rate function")

    squares = _atom_squares(nu)

    def g(t: float) -> float:
        return s * t - _free_energy(nu.weights, squares, t)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = _T_LO, _T_HI
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(120):
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - inv_phi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv_phi * (b - a)
            gd = g(d)
    t_star = (a + b) / 2.0
    width = _T_HI - _T_LO
    h = 1e-7 * max(1.0, abs(t_star))
    if _T_HI - t_star < 1e-6 * width and g(_T_HI) - g(_T_HI - h) > 0:
        return math.inf
    if t_star - _T_LO < 1e-6 * width and g(_T_LO) - g(_T_LO + h) > 0:
        return math.inf
    return max(g(t_star), 0.0)
