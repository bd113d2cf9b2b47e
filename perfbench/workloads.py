"""Seeded op generators and reference checks for the four workloads.

One op is one `conebessel.cli.main([...])` call.  The workload seed
drives a `random.Random` that generates each op's arguments, including
the `--seed` the program sees; the program receives only those
arguments.  Work sizes cycle through a fixed set in shuffled blocks, so
every seed runs the same mix of op shapes and only the values vary.

Each op carries a check that reads the op's CSV back and compares it with
a reference computed here, independently of the package: the exact
second-moment identity for walks, closed forms for the rank-one free
energy and rate function, the Harish-Chandra determinant for the complex
chamber limit, and the series/Monte Carlo agreement of the Bessel grid.
The module imports no numpy, so the config generator is cheap to test.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

# Deviations allowed for Monte Carlo quantities, in estimated standard
# errors.  Ops run by the thousand, so each bound keeps the chance of a
# false miss per op far below 1e-4.
WALK_Z = 8.0  # t statistic on 20 replicates, four components per op
FREE_ENERGY_Z = 4.0  # on top of the 0.05 tolerance of free_energy_rate
CHAMBER_Z = 5.0  # replaces the 3 sigma noise allowance of the criterion
BALL_Z = 6.0

FREE_ENERGY_TOL = 0.05  # acceptance criterion free_energy_rate
RATE_TOL = 1e-3  # acceptance criterion free_energy_rate
HC_TOL = 1e-6  # acceptance criterion conjugation_average_triangle
SERIES_TOL = 1e-10  # the CLI's default series tolerance


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments (no --out), work units, CSV name and check.

    `check(csv_text)` returns None when the output matches the reference,
    else a one-line reason.
    """

    argv: tuple
    work: int
    csv: str
    check: Callable[[str], str | None]


def _rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _fmt(values) -> str:
    return ",".join(repr(v) for v in values)


# ----------------------------------------------------------------- walk

WALK_MUS = (6.0, 8.0, 12.0, 16.0)
WALK_REPLICATES = 20
WALK_STEPS = 25


def _walk_ops(rng: random.Random, scale: float = 1.0):
    steps = max(2, round(WALK_STEPS * scale))
    while True:
        for mu in rng.sample(WALK_MUS, len(WALK_MUS)):
            big = (round(rng.uniform(0.6, 1.2), 3), round(rng.uniform(0.6, 1.2), 3))
            small = (round(rng.uniform(0.1, 0.5), 3), round(rng.uniform(0.1, 0.5), 3))
            w = round(rng.uniform(0.3, 0.7), 2)
            weights = (w, round(1.0 - w, 2))
            argv = (
                "walk", "--q", "2", "--d", "2", "--mu", repr(mu),
                "--steps", str(steps), "--replicates", str(WALK_REPLICATES),
                "--atoms", f"{_fmt(big)};{_fmt(small)}", "--weights", _fmt(weights),
                "--seed", str(rng.getrandbits(32)),
            )
            check = partial(check_walk, weights, (big, small), WALK_REPLICATES, steps)
            yield Op(argv, WALK_REPLICATES * steps, "walk.csv", check)


def check_walk(weights, atoms, replicates, steps, text):
    """E[S_k^2] = k * sum_i w_i a_i^2 for every index mu, because the ball
    density has mean zero.  Compares the per-replicate means of S_k^2 / k
    (entries 11, 22, Re 12, Im 12) with that value by a t statistic."""
    rows = _rows(text)
    if len(rows) != replicates * (steps + 1):
        return f"expected {replicates * (steps + 1)} rows, got {len(rows)}"
    m11 = sum(w * a[0] ** 2 for w, a in zip(weights, atoms))
    m22 = sum(w * a[1] ** 2 for w, a in zip(weights, atoms))
    expect = (m11, m22, 0.0, 0.0)
    per_rep = [[0.0] * 4 for _ in range(replicates)]
    for row in rows:
        rep, k = int(row[0]), int(row[1])
        x11, x11i, x12r, x12i, x22, x22i = (float(v) for v in row[2:8])
        if x11i != 0.0 or x22i != 0.0:
            return f"replicate {rep} step {k}: diagonal entry not real"
        if k == 0:
            if any(float(v) != 0.0 for v in row[2:]):
                return f"replicate {rep} does not start at zero"
            continue
        x12 = complex(x12r, x12i)
        off = x12 * (x11 + x22)
        acc = per_rep[rep]
        acc[0] += (x11 * x11 + abs(x12) ** 2) / k
        acc[1] += (abs(x12) ** 2 + x22 * x22) / k
        acc[2] += off.real / k
        acc[3] += off.imag / k
    for c in range(4):
        vals = [acc[c] / steps for acc in per_rep]
        mean = sum(vals) / replicates
        sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (replicates - 1))
        se = sd / math.sqrt(replicates)
        if abs(mean - expect[c]) > WALK_Z * se + 1e-12 * (1.0 + abs(expect[c])):
            return f"component {c}: mean S_k^2/k {mean:.6g} vs {expect[c]:.6g} (se {se:.3g})"
    return None


# ----------------------------------------------------------- freeenergy

FE_REPLICATES = 100
FE_K_MAX = 20
FE_T = (-1.0, 1.0)
FE_RATE_POINTS = 9


def _free_energy_ops(rng: random.Random, scale: float = 1.0):
    replicates = max(2, round(FE_REPLICATES * scale))
    while True:
        s_grid = tuple(sorted(round(rng.uniform(0.05, 0.95), 3) for _ in range(FE_RATE_POINTS)))
        argv = (
            "ldp", "--q", "1", "--d", "1", "--atoms", "0;1", "--weights", "0.5,0.5",
            "--mu-family", "pow2", "--k-max", str(FE_K_MAX), f"--t-values={_fmt(FE_T)}",
            "--replicates", str(replicates), "--grid", _fmt(s_grid),
            "--seed", str(rng.getrandbits(32)),
        )
        # n_k = k under the default polynomial step schedule
        work = replicates * FE_K_MAX * len(FE_T)
        yield Op(argv, work, "ldp.csv", partial(check_free_energy, s_grid))


def fair_bernoulli_free_energy(t: float) -> float:
    """c(t) = ln E exp(t X^2) for X uniform on {0, 1}."""
    return math.log(0.5 + 0.5 * math.exp(t))


def fair_bernoulli_rate(s: float) -> float:
    """Legendre transform of c: the relative entropy s ln 2s + (1-s) ln 2(1-s)."""
    return s * math.log(2.0 * s) + (1.0 - s) * math.log(2.0 * (1.0 - s))


def check_free_energy(s_grid, text):
    rows = _rows(text)
    got = {(kind, float(arg)): (float(val), float(se)) for kind, arg, val, se in rows}
    for t in FE_T:
        exact = fair_bernoulli_free_energy(t)
        lim = got.get(("c_limit", t))
        if lim is None or abs(lim[0] - exact) > 1e-14 * (1.0 + abs(exact)):
            return f"c_limit({t}) = {lim} vs exact {exact!r}"
        ck = got.get(("c_k", t))
        if ck is None or not abs(ck[0] - exact) <= FREE_ENERGY_TOL + FREE_ENERGY_Z * ck[1]:
            return f"c_k({t}) = {ck} vs limit {exact:.6g}"
    for s in s_grid:
        rate = got.get(("rate", s))
        exact = fair_bernoulli_rate(s)
        if rate is None or not abs(rate[0] - exact) <= RATE_TOL:
            return f"rate({s}) = {rate} vs {exact:.6g}"
    if len(rows) != 2 * len(FE_T) + len(s_grid):
        return f"unexpected row count {len(rows)}"
    return None


# -------------------------------------------------------------- chamber

CHAMBER_GRID = (64.0, 128.0, 256.0)
# Haar samples per grid point, set so both fields cost about the same per
# op; otherwise the latency distribution is bimodal and its median jumps.
CHAMBER_SAMPLES = {1: 4000, 2: 3600}


def _chamber_ops(rng: random.Random, scale: float = 1.0):
    base = (1.0, 0.5, 1.0 / 3.0)
    for i in itertools.count():
        d = 1 + i % 2
        xi = tuple(round(b * rng.uniform(0.85, 1.0), 4) for b in base)
        eta = tuple(round(0.8 * b * rng.uniform(0.85, 1.0), 4) for b in base)
        n = max(2, round(CHAMBER_SAMPLES[d] * scale))
        argv = (
            "dunkl", "--q", "3", "--d", str(d), "--grid", _fmt(CHAMBER_GRID),
            "--n-samples", str(n), "--xi", _fmt(xi), "--eta", _fmt(eta),
            "--seed", str(rng.getrandbits(32)),
        )
        yield Op(argv, n * len(CHAMBER_GRID), "dunkl.csv", partial(check_chamber, d, xi, eta))


def harish_chandra(x2, e2) -> float:
    """0F0^(1)(-x2, e2) by the Harish-Chandra-Itzykson-Zuber determinant,

        prod_{j<q} j! * det[exp(-x2_i e2_j)] / (V(-x2) V(e2)),

    with V the Vandermonde product prod_{i<j} (z_i - z_j)."""
    q = len(x2)
    det = 0.0
    for perm in itertools.permutations(range(q)):
        inversions = sum(1 for i in range(q) for j in range(i + 1, q) if perm[i] > perm[j])
        det += (-1) ** inversions * math.exp(-sum(x2[i] * e2[perm[i]] for i in range(q)))
    vx = math.prod(-x2[i] + x2[j] for i in range(q) for j in range(i + 1, q))
    ve = math.prod(e2[i] - e2[j] for i in range(q) for j in range(i + 1, q))
    return math.prod(math.factorial(j) for j in range(1, q)) * det / (vx * ve)


def check_chamber(d, xi, eta, text):
    """The normalized gap |b - a| mu / m stays in the factor-4 band of the
    chamber_limit_stability criterion relative to its mu=64 value; at d=2
    the flat limit equals the Harish-Chandra determinant."""
    rows = [[float(v) for v in row] for row in _rows(text)]
    if tuple(r[0] for r in rows) != CHAMBER_GRID:
        return f"grid {[r[0] for r in rows]} is not {list(CHAMBER_GRID)}"
    x2 = [v * v for v in xi]
    e2 = [v * v for v in eta]
    a = rows[0][3]
    if any(r[3] != a for r in rows):
        return "a_limit differs between rows"
    if d == 2 and abs(a - harish_chandra(x2, e2)) > HC_TOL:
        return f"a_limit {a!r} vs Harish-Chandra {harish_chandra(x2, e2)!r}"
    for mu, b, se, _, gap, _ in rows:
        if gap != abs(b - a):
            return f"gap column at mu={mu} is not |b - a|"
    m = min(1.0, (math.hypot(*x2) * math.hypot(*e2)) ** 2)
    g = [abs(r[1] - a) * r[0] / m for r in rows]
    sig = [r[2] * r[0] / m for r in rows]
    for i in (1, 2):
        hi = 4.0 * g[0] + CHAMBER_Z * (sig[i] + 4.0 * sig[0])
        lo = g[0] / 4.0 - CHAMBER_Z * (sig[i] + sig[0] / 4.0)
        if not lo <= g[i] <= hi:
            return f"normalized gap {g[i]:.4g} at mu={rows[i][0]} outside [{lo:.4g}, {hi:.4g}]"
    return None


# --------------------------------------------------------------- ballmc

BALL_SAMPLES = 100_000
# Grid points per (q, d), set so every shape costs about the same per op.
BALL_POINTS = {(2, 1): 4, (2, 2): 2, (3, 1): 2, (3, 2): 1}


def _ball_ops(rng: random.Random, scale: float = 1.0):
    shapes = tuple(BALL_POINTS)
    n = max(2, round(BALL_SAMPLES * scale))
    while True:
        for q, d in rng.sample(shapes, len(shapes)):
            rho = d * (q - 0.5) + 1.0
            mu = rho + round(rng.uniform(2.0, 6.0), 1)
            grid = tuple(sorted(round(rng.uniform(0.25, 2.0), 3) for _ in range(BALL_POINTS[q, d])))
            argv = (
                "bessel", "--q", str(q), "--d", str(d), "--mu", repr(mu),
                "--grid", _fmt(grid), "--n-samples", str(n),
                "--seed", str(rng.getrandbits(32)),
            )
            yield Op(argv, n * len(grid), "bessel.csv", partial(check_ball, grid))


def check_ball(grid, text):
    """|mc - series| within BALL_Z Monte Carlo standard errors plus the
    series tail, and the tail certified to the default tolerance."""
    rows = _rows(text)
    if tuple(float(r[0]) for r in rows) != grid:
        return f"grid {[r[0] for r in rows]} is not {list(grid)}"
    for x, series, tail, mc, se, _ in rows:
        series, tail, mc, se = float(series), float(tail), float(mc), float(se)
        if not tail <= SERIES_TOL:
            return f"series tail {tail:.3g} at x={x} above {SERIES_TOL:.0e}"
        if not abs(mc - series) <= BALL_Z * se + tail:
            return f"x={x}: |mc - series| = {abs(mc - series):.3g}, se {se:.3g}"
    return None


# ------------------------------------------------------------ registry

GENERATORS = {
    "walk": _walk_ops,
    "freeenergy": _free_energy_ops,
    "chamber": _chamber_ops,
    "ballmc": _ball_ops,
}
# Warm-up per workload: (ops, scale of the op's sample or step count).
# Every op shape with its own Jack tables runs once, small, so that set-up
# is imports, first calls and table builds rather than sampling.  Walks
# shrink in steps, not replicates, which their t statistic needs.
WARMUP = {"walk": (1, 0.2), "freeenergy": (1, 0.2), "chamber": (2, 0.1), "ballmc": (4, 0.05)}


def ops(workload: str, seed: int):
    """Endless, deterministic op sequence for a workload seed."""
    return GENERATORS[workload](random.Random(f"perfbench:{workload}:{seed}"))


def warmup(workload: str, seed: int) -> list:
    count, scale = WARMUP[workload]
    gen = GENERATORS[workload](random.Random(f"perfbench-warmup:{workload}:{seed}"), scale)
    return list(itertools.islice(gen, count))
