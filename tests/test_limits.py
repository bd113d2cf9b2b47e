"""Schedules, their divergence diagnostics, and the three experiments.

Rank-one large-deviation quantities have closed forms for two-atom step
laws (Bernoulli free energy ln((w0 + w1 e^t)) and the entropy rate
function), which pin the numerics exactly.
"""

import math

import numpy as np
import pytest

from conebessel.errors import DimensionError, DomainError, UnsupportedRankError
from conebessel.hypergroup import RadialLaw, walk_batch
from conebessel.limits import (
    ExperimentReport,
    HEURISTIC_NOTE,
    REPORT_COLUMNS,
    ReportRow,
    Schedule,
    config_hash,
    csv_text,
    free_energy_empirical,
    free_energy_limit,
    rate_function,
    schedule_conditions,
    second_moment,
    slln_experiment,
    wlln_experiment,
)
from conebessel.linalg import ConeMatrix, StructureParams
from conebessel.seeds import substream


def _bernoulli_law():
    return RadialLaw(
        weights=(0.5, 0.5),
        atoms=(ConeMatrix(np.zeros((1, 1))), ConeMatrix(np.eye(1))),
    )


P1 = StructureParams(q=1, d=1, mu=2.0)


# ----------------------------------------------------------------- schedule


def test_schedule_families_exact_values():
    s = Schedule(mu_family="pow2", mu_c=1.0)
    assert s.mu(10) == 1024.0
    assert s.log_mu(10) == pytest.approx(10 * math.log(2.0))
    s = Schedule(mu_family="poly", mu_c=2.0, mu_b=1.5)
    assert s.mu(4) == pytest.approx(16.0)
    s = Schedule(n_family="poly", n_c=1.5, n_b=1.0)
    assert s.n(3) == 5  # ceil(4.5)
    s = Schedule(n_family="polylog", n_c=2.0, n_b=2.0)
    assert s.n(1) == 1  # floored at one step
    assert s.n(20) == math.ceil(2.0 * math.log(20) ** 2)


def test_schedule_guards():
    with pytest.raises(DomainError):
        Schedule(mu_family="exp")
    with pytest.raises(DomainError):
        Schedule(n_family="loglog")
    with pytest.raises(DomainError):
        Schedule(mu_c=0.0)
    s = Schedule()
    with pytest.raises(DomainError):
        s.mu(0)
    with pytest.raises(DomainError):
        s.n(0)
    # step counts past 1e15 are declared unsimulable rather than rounded
    with pytest.raises(DomainError):
        Schedule(n_family="poly", n_c=1.0, n_b=4.0).n(10**4)
    # so are indices past the float range, where 2.0**k would overflow
    assert Schedule(mu_family="pow2").mu(1023) == 2.0**1023
    with pytest.raises(DomainError, match="mu_1100 overflows"):
        Schedule(mu_family="pow2").mu(1100)
    with pytest.raises(DomainError, match="overflows"):
        Schedule(mu_family="pow2", mu_c=4.0).mu(1023)
    with pytest.raises(DomainError, match="overflows"):
        Schedule(mu_family="poly", mu_b=400.0).mu(10**4)


def test_schedule_conditions_verdicts():
    fast = Schedule(mu_family="pow2", n_family="poly", n_c=1.0, n_b=1.0)
    diags = schedule_conditions(fast, 100_000)
    assert [d.name for d in diags] == [
        "index_beats_all_powers",
        "index_beats_steps_squared",
        "steps_beat_log_squared",
    ]
    assert all(d.verdict == "diverging" for d in diags)
    assert all(d.note == HEURISTIC_NOTE for d in diags)

    # mu_k = k loses against k^2 and k^3
    slow = Schedule(mu_family="poly", mu_c=1.0, mu_b=1.0)
    diags = schedule_conditions(slow, 100_000)
    assert diags[0].verdict == "not diverging"

    with pytest.raises(DomainError):
        schedule_conditions(fast, 9)


# ---------------------------------------------------------------- reporting


def test_config_hash_is_order_invariant_and_frozen():
    assert config_hash({"a": 1, "b": [1, 2]}) == "8baa73198470c7bb"
    assert config_hash({"b": [1, 2], "a": 1}) == "8baa73198470c7bb"


def test_report_csv_golden():
    rep = ExperimentReport(rows=(ReportRow("wlln", 2, 4.0, 2, 10, "tail_prob", 0.25, 0.1, 7),))
    want = (
        "# config_hash=015abd7f5cc57a2d stream_version=4\n"
        "# seed=7\n"
        "experiment,k,mu,n,replicates,statistic,value,stderr,seed\n"
        "wlln,2,4,2,10,tail_prob,0.25,0.10000000000000001,7\n"
    )
    assert csv_text(config_hash({"a": 1}), 7, REPORT_COLUMNS, rep.csv_rows()) == want


# ----------------------------------------------------------------- moments


def test_second_moment_is_weighted_square_mean():
    law = RadialLaw(
        weights=(0.25, 0.75),
        atoms=(ConeMatrix(np.diag([2.0, 0.0])), ConeMatrix(np.diag([1.0, 1.0]))),
    )
    m = second_moment(law)
    assert np.allclose(m.array, np.diag([0.25 * 4.0 + 0.75, 0.75]))


# -------------------------------------------------------------- experiments


def test_wlln_runs_deterministically():
    law = _bernoulli_law()
    sched = Schedule(mu_family="pow2")
    r1 = wlln_experiment(law, P1, sched, (4, 8), 30, 0.2, master_seed=5)
    r2 = wlln_experiment(law, P1, sched, (4, 8), 30, 0.2, master_seed=5)
    assert r1.rows == r2.rows
    assert all(row.statistic == "tail_prob" for row in r1.rows)
    assert all(0.0 <= row.value <= 1.0 for row in r1.rows)
    assert [row.mu for row in r1.rows] == [16.0, 256.0]
    assert all(row.seed == 5 for row in r1.rows)


def test_wlln_guards():
    law = _bernoulli_law()
    sched = Schedule()
    with pytest.raises(DomainError):
        wlln_experiment(law, P1, sched, (4,), 1, 0.2, master_seed=0)
    with pytest.raises(DomainError):
        wlln_experiment(law, P1, sched, (4,), 10, 0.0, master_seed=0)


def test_slln_requires_diverging_schedule():
    law = _bernoulli_law()
    slow = Schedule(mu_family="poly", mu_c=1.0, mu_b=1.0)
    with pytest.raises(DomainError, match="divergence"):
        slln_experiment(law, P1, slow, k_max=5, master_seed=1)


def test_slln_tail_sup_is_reverse_running_max():
    law = _bernoulli_law()
    # n_k = k diverges against (ln k)^2 but registers only at a long horizon
    sched = Schedule(mu_family="pow2", n_family="poly", n_c=1.0, n_b=1.0)
    rep = slln_experiment(law, P1, sched, k_max=6, master_seed=2)
    dev = {r.k: r.value for r in rep.rows if r.statistic == "deviation"}
    sup = {r.k: r.value for r in rep.rows if r.statistic == "tail_sup"}
    assert set(dev) == set(range(1, 7))
    for k in range(1, 7):
        assert sup[k] == max(dev[j] for j in range(k, 7))
    assert len(rep.diagnostics) == 3


# SHA-256 of the seeded lln and slln CSVs below the config-hash line (which
# carries the stream version), recorded under stream version 2 and holding
# under version 3 (seeds.STREAM_VERSION); every byte must stay the same
# until the version changes.
_LLN_DIGEST = "c3466c2a27b075d123359ea690e07977cd17ff51ea39d548043fc14ceb18bd1f"
_SLLN_DIGEST = "c4e2240f5ba937f3e1f1528f6bd7a9b30cbbb2c0369314dc3541f2575232d986"


def test_lln_csv_matches_pinned_digest(csv_digest):
    # no --grid: the subcommand's default walk lengths 25, 100, 400
    argv = ["lln", "--q", "2", "--d", "1", "--atoms", "1,0.5;0.3,0.2", "--weights", "0.6,0.4",
            "--mu-family", "poly", "--replicates", "12", "--seed", "5"]
    assert csv_digest(argv) == _LLN_DIGEST


def test_slln_csv_matches_pinned_digest(csv_digest):
    argv = ["slln", "--q", "1", "--d", "2", "--k-max", "8", "--seed", "5"]
    assert csv_digest(argv) == _SLLN_DIGEST


def test_free_energy_empirical_basics():
    law = _bernoulli_law()
    v0, s0 = free_energy_empirical(law, P1, mu=64.0, n=4, t=0.0, replicates=10, master_seed=3)
    assert (v0, s0) == (0.0, 0.0)
    v1, s1 = free_energy_empirical(law, P1, mu=64.0, n=4, t=-1.0, replicates=50, master_seed=3)
    v2, _ = free_energy_empirical(law, P1, mu=64.0, n=4, t=-1.0, replicates=50, master_seed=3)
    assert v1 == v2
    assert s1 > 0.0
    with pytest.raises(UnsupportedRankError):
        free_energy_empirical(law, StructureParams(q=2, d=1, mu=4.0), 64.0, 4, 1.0, 10, 0)
    with pytest.raises(DomainError):
        free_energy_empirical(law, P1, 64.0, 0, 1.0, 10, 0)


def test_free_energy_at_zero_tilt_runs_no_walks(monkeypatch):
    import conebessel.limits as limits

    def no_walks(*args):
        raise AssertionError("c_k(0) = 0 needs no walks")

    monkeypatch.setattr(limits, "_walk_draws", no_walks)
    law = _bernoulli_law()
    assert free_energy_empirical(law, P1, 64.0, 4, 0.0, 10, 3) == (0.0, 0.0)
    with pytest.raises(DomainError):  # the argument checks still come first
        free_energy_empirical(law, P1, 64.0, 0, 0.0, 10, 3)


def test_free_energy_tilt_grid_is_its_scalar_calls():
    # every tilt's walks run as one stack, each on its own streams: the
    # grid gives the scalar calls' bits, and c_k(0) = 0 is no walk at all
    law = _rank_one_law((0.3, 0.7), (0.4, 1.0))
    grid = free_energy_empirical(law, P1, 16.0, 5, [-1.0, 0.0, 1.0], 20, 8)
    scalar = [free_energy_empirical(law, P1, 16.0, 5, t, 20, 8) for t in (-1.0, 0.0, 1.0)]
    assert all(isinstance(v, float) for pair in scalar for v in pair)
    assert grid[0].shape == grid[1].shape == (3,)
    assert grid[0].tolist() == [c for c, _ in scalar]
    assert grid[1].tolist() == [se for _, se in scalar]
    assert scalar[1] == (0.0, 0.0)
    limits = free_energy_limit(law, P1, [-1.0, 0.0, 1.0])
    assert limits.tolist() == [free_energy_limit(law, P1, t) for t in (-1.0, 0.0, 1.0)]


def test_free_energy_limit_bernoulli_closed_form():
    law = _bernoulli_law()
    for t in (-3.0, -0.5, 0.0, 1.0, 4.0):
        want = math.log((1.0 + math.exp(t)) / 2.0)
        assert free_energy_limit(law, P1, t) == pytest.approx(want, rel=1e-12)
    # the shifted log-sum-exp must survive huge tilts
    big = free_energy_limit(law, P1, 800.0)
    assert big == pytest.approx(800.0 + math.log(0.5), rel=1e-12)


def test_rate_function_bernoulli_entropy():
    law = _bernoulli_law()
    for s in (0.25, 0.5, 0.75):
        want = s * math.log(2.0 * s) + (1.0 - s) * math.log(2.0 * (1.0 - s))
        assert rate_function(law, P1, s) == pytest.approx(want, abs=1e-15)
    assert rate_function(law, P1, 0.5) == 0.0  # t = 0 exactly
    assert rate_function(law, P1, 1.5) == math.inf
    with pytest.raises(UnsupportedRankError):
        rate_function(law, StructureParams(q=2, d=1, mu=4.0), 0.5)


def _rank_one_law(weights, atoms):
    return RadialLaw(weights=weights, atoms=tuple(ConeMatrix(np.array([[a]])) for a in atoms))


@pytest.mark.parametrize("scale", [1.0, 0.1, 0.01, 100.0])
def test_rate_function_two_atom_entropy_at_any_scale(scale):
    # atoms {0, scale}: I(s scale^2) is the entropy form at s for every
    # scale, however far the maximizing t = ln(s / (1 - s)) / scale^2 lies
    law = _rank_one_law((0.5, 0.5), (0.0, scale))
    s = np.linspace(0.05, 0.95, 19)
    want = s * np.log(2.0 * s) + (1.0 - s) * np.log(2.0 * (1.0 - s))
    got = rate_function(law, P1, s * scale**2)
    assert got.shape == s.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_rate_function_three_atoms_matches_the_kl_dual():
    # I(s) = min KL(p || w) over laws p on the atom squares with mean s; on
    # three atoms those p form a segment, parametrized by the middle weight
    from scipy.optimize import minimize_scalar
    from scipy.special import rel_entr

    w = np.array([0.2, 0.5, 0.3])
    x0, x1, x2 = np.array([0.0, 0.6, 1.3]) ** 2
    law = _rank_one_law(tuple(w), (0.0, 0.6, 1.3))
    for s in (0.01, 0.2, 0.36, 0.9, 1.6):
        def kl(mid):
            top = (s - x0 - mid * (x1 - x0)) / (x2 - x0)
            return float(rel_entr(np.array([1.0 - mid - top, mid, top]), w).sum())

        end = min((s - x0) / (x1 - x0), (x2 - s) / (x2 - x1))
        best = minimize_scalar(kl, bounds=(0.0, end), method="bounded",
                               options={"xatol": 1e-12})
        assert rate_function(law, P1, s) == pytest.approx(best.fun, abs=1e-10)


def test_rate_function_endpoints_and_outside_the_support():
    # an end of the support is reached only by walks that always pick its
    # atom: I = -ln of that atom's weight; beyond the support I = inf
    law = _rank_one_law((0.2, 0.5, 0.3), (0.0, 0.6, 1.3))
    got = rate_function(law, P1, [[0.0, 1.69], [-0.1, 1.7]])
    assert got.shape == (2, 2)
    assert got[0, 0] == pytest.approx(-math.log(0.2), rel=1e-15)
    assert got[0, 1] == pytest.approx(-math.log(0.3), rel=1e-15)
    assert np.all(got[1] == math.inf)
    assert isinstance(rate_function(law, P1, 0.0), float)
    assert rate_function(_rank_one_law((1.0,), (0.7,)), P1, 0.7**2) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_function_next_to_an_end_of_the_support():
    # atom squares {0, 1e-150, 1}: at s a subnormal distance above 0 the
    # bracket bound -1 / (w_0 s) overflows a float, yet the supremum sits at
    # a finite t near -3.7e152 and I(s) is -ln w_0 to far below 1e-12
    law = _rank_one_law((0.25, 0.25, 0.5), (0.0, 1e-75, 1.0))
    got = rate_function(law, P1, [1e-310, 5e-324])
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, -math.log(0.25), rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_function_is_nan_where_the_supremum_is_beyond_the_float_range():
    # atom squares {0, 1.48e-323, 1}: at s = 5e-324 the supremum sits at t
    # near -1e323, past the bracket clamp.  The iterate ends at the clamp,
    # where s t - c(t) is only a lower bound (0.6931, against the true 0.7498
    # of the two-atom relative entropy), so I is nan there and finite where
    # the squares are spread
    for a in (3.85e-162, 6.3e-162, 1e-161):
        law = _rank_one_law((0.25, 0.25, 0.5), (0.0, a, 1.0))
        got = rate_function(law, P1, [5e-324, 0.25])
        assert math.isnan(got[0]), a
        assert math.isfinite(got[1])


def test_large_deviations_need_a_rank_one_law():
    # q = 1 params with a rank-2 law would read each atom's [0, 0] entry
    law = RadialLaw(weights=(0.5, 0.5), atoms=(np.diag([0.0, 5.0]), np.eye(2)))
    with pytest.raises(DimensionError):
        free_energy_limit(law, P1, 1.0)
    with pytest.raises(DimensionError):
        rate_function(law, P1, 0.5)
    with pytest.raises(DimensionError):
        free_energy_empirical(law, P1, 64.0, 4, 1.0, 10, 0)


def test_free_energy_reweights_walks_of_the_tilted_law():
    # c_k(t) = c(t) + (1/n) ln mean exp(t (S_n^2 - sum_k x_{i_k})) over the
    # walks of nu_t that walk_batch runs on the same streams
    law = _rank_one_law((0.3, 0.7), (0.4, 1.0))
    t, n, mu, reps = 0.8, 6, 16.0, 40
    x = np.array([0.16, 1.0])
    c = math.log(0.3 * math.exp(t * x[0]) + 0.7 * math.exp(t * x[1]))
    tilted = RadialLaw(weights=tuple(law.weights * np.exp(t * x - c)), atoms=law.atoms)
    label = f"ldp:mu={mu:.17g}:n={n}:t={t:.17g}"
    for states in walk_batch(tilted, P1.with_mu(mu), n,
                             [substream(5, label, r) for r in range(reps)]):
        pass
    u = [substream(5, label, r).random(n) for r in range(reps)]
    picks = tilted._cdf.searchsorted(u, side="right")
    ratios = np.exp(t * (states[:, 0, 0] ** 2 - x[picks].sum(axis=1)))
    got, se = free_energy_empirical(law, P1, mu, n, t, reps, 5)
    assert got == pytest.approx(c + math.log(ratios.mean()) / n, rel=1e-12)
    assert 0.0 < se < 0.1


def _free_energy_runs(mu, t, seeds):
    law = _bernoulli_law()
    return np.array([free_energy_empirical(law, P1, mu, 20, t, 100, seed) for seed in seeds])


def test_free_energy_stderr_covers_at_a_large_index():
    # perfbench's freeenergy config: the tilted estimator's 3-SE interval
    # misses the limit for at most 2% of (seed, t) pairs; the untilted one
    # missed for about 8%
    misses = 0
    for t in (-1.0, 1.0):
        runs = _free_energy_runs(2.0**20, t, range(100))
        c = free_energy_limit(_bernoulli_law(), P1, t)
        misses += int(np.sum(np.abs(runs[:, 0] - c) > 3.0 * runs[:, 1]))
    assert misses <= 4


def test_free_energy_stderr_understates_the_spread_at_a_small_index():
    # at mu = 8 the walk's fluctuation about the sum of its steps' squares is
    # of order one and nu_t is not the optimal tilt: the weights are heavy
    # tailed, and across seeds c_k spreads several times its median stderr
    runs = _free_energy_runs(8.0, 1.0, range(100))
    assert np.std(runs[:, 0], ddof=1) > 2.0 * np.median(runs[:, 1])
