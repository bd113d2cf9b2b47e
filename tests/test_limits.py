"""Schedules, their exact divergence conditions, and the three experiments.

Rank-one large-deviation quantities have closed forms for two-atom step
laws (Bernoulli free energy ln((w0 + w1 e^t)) and the entropy rate
function), which pin the numerics exactly.
"""

import math

import numpy as np
import pytest

from conebessel import cli
from conebessel.errors import DomainError, UnsupportedRankError
from conebessel.hypergroup import RadialLaw, _picks, walk_batch
from conebessel.limits import (
    Schedule,
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
P16, P64 = P1.with_mu(16.0), P1.with_mu(64.0)


# ----------------------------------------------------------------- schedule


def test_schedule_families_exact_values():
    s = Schedule(mu_family="pow2", mu_c=1.0)
    assert s.mu(10) == 1024.0
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


@pytest.mark.parametrize("field", ["mu_c", "mu_b", "n_c", "n_b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_schedule_refuses_non_finite_constants(field, value):
    with pytest.raises(DomainError, match="must be finite"):
        Schedule(mu_family="poly", n_family="polylog", **{field: value})


_CONDITIONS = ("index_beats_all_powers", "index_beats_steps_squared", "steps_beat_log_squared")


def _verdicts(schedule):
    diags = schedule_conditions(schedule)
    assert tuple(name for name, _ in diags) == _CONDITIONS
    return [verdict == "diverging" for _, verdict in diags]


def test_schedule_conditions_verdicts():
    fast = Schedule(mu_family="pow2", n_family="poly", n_c=1.0, n_b=1.0)
    assert _verdicts(fast) == [True, True, True]

    # mu_k = k loses against k^2 and k^3
    slow = Schedule(mu_family="poly", mu_c=1.0, mu_b=1.0)
    assert _verdicts(slow)[0] is False


def test_schedule_conditions_read_the_exponents_exactly():
    # n_k / (ln k)^2 = n_c ln k diverges, however slowly
    assert _verdicts(Schedule(mu_family="pow2", n_family="polylog", n_b=3.0)) == [True, True, True]
    assert _verdicts(Schedule(mu_family="pow2", n_family="poly", n_b=0.3)) == [True, True, True]
    # k^4 / k^a -> 0 for every a > 4: condition (1) fails for any poly index
    for mu_b in (4.0, 40.0):
        assert _verdicts(Schedule(mu_family="poly", mu_b=mu_b)) == [False, True, True]
    # (3) at its polylog boundary n_b = 2, where n_k / (ln k)^2 -> n_c
    assert _verdicts(Schedule(n_family="polylog", n_b=2.0))[2] is False
    assert _verdicts(Schedule(n_family="polylog", n_b=2.1))[2] is True
    assert _verdicts(Schedule(n_family="poly", n_b=0.0))[2] is False
    # (2) at mu_b = 2 n_b, where the ratio is 1 / (n_c^2 (ln k)^2) -> 0
    assert _verdicts(Schedule(mu_family="poly", mu_b=3.0, n_b=1.5))[1] is False
    assert _verdicts(Schedule(mu_family="poly", mu_b=3.1, n_b=1.5))[1] is True
    # a bounded n_k leaves only mu_k / (ln k)^2, which needs mu_b > 0
    assert _verdicts(Schedule(mu_family="poly", mu_b=0.5, n_b=-1.0))[1] is True
    assert _verdicts(Schedule(mu_family="poly", mu_b=0.0, n_family="polylog"))[1] is False
    assert _verdicts(Schedule(mu_family="poly", mu_b=0.5, n_family="polylog", n_b=5.0))[1] is True


def test_slln_accepts_a_polylog_schedule_and_refuses_every_poly_index():
    law = _bernoulli_law()
    rows = slln_experiment(law, P1, Schedule(n_family="polylog", n_b=3.0), k_max=3, master_seed=1)
    assert [r.n for r in rows] == [1, 1, 2] * 2  # n_k = ceil((ln k)^3), floored at 1
    with pytest.raises(DomainError, match="index_beats_all_powers"):
        slln_experiment(law, P1, Schedule(mu_family="poly", mu_b=4.0), k_max=3, master_seed=1)


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
    assert r1 == r2
    assert all(row.statistic == "tail_prob" for row in r1)
    assert all(0.0 <= row.value <= 1.0 for row in r1)
    assert [row.mu for row in r1] == [16.0, 256.0]
    assert all(row.seed == 5 for row in r1)


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
    # pow2 mu and n_k = k meet all three conditions
    sched = Schedule(mu_family="pow2", n_family="poly", n_c=1.0, n_b=1.0)
    rows = slln_experiment(law, P1, sched, k_max=6, master_seed=2)
    dev = {r.k: r.value for r in rows if r.statistic == "deviation"}
    sup = {r.k: r.value for r in rows if r.statistic == "tail_sup"}
    assert set(dev) == set(range(1, 7))
    for k in range(1, 7):
        assert sup[k] == max(dev[j] for j in range(k, 7))


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


def test_lln_csv_config_hash_line_is_pinned(tmp_path, capsys):
    # the digests skip this line; it carries the hash of the config echo
    argv = ["lln", "--q", "2", "--d", "1", "--atoms", "1,0.5;0.3,0.2", "--weights", "0.6,0.4",
            "--mu-family", "poly", "--replicates", "12", "--seed", "5", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    head = (tmp_path / "lln.csv").read_text(encoding="utf-8").split("\n", 1)[0]
    assert head == "# config_hash=15a6f9feaa1846cd stream_version=5"
    capsys.readouterr()


def test_slln_csv_matches_pinned_digest(csv_digest):
    argv = ["slln", "--q", "1", "--d", "2", "--k-max", "8", "--seed", "5"]
    assert csv_digest(argv) == _SLLN_DIGEST


def test_free_energy_empirical_basics():
    law = _bernoulli_law()
    v0, s0 = free_energy_empirical(law, P64, n=4, t=0.0, replicates=10, master_seed=3)
    assert (v0, s0) == (0.0, 0.0)
    v1, s1 = free_energy_empirical(law, P64, n=4, t=-1.0, replicates=50, master_seed=3)
    v2, _ = free_energy_empirical(law, P64, n=4, t=-1.0, replicates=50, master_seed=3)
    assert v1 == v2
    assert s1 > 0.0
    with pytest.raises(UnsupportedRankError):
        free_energy_empirical(law, StructureParams(q=2, d=1, mu=64.0), 4, 1.0, 10, 0)
    with pytest.raises(DomainError):
        free_energy_empirical(law, P64, 0, 1.0, 10, 0)


def test_free_energy_at_zero_tilt_runs_no_walks(monkeypatch):
    import conebessel.limits as limits

    def no_walks(*args):
        raise AssertionError("c_k(0) = 0 needs no walks")

    monkeypatch.setattr(limits, "_walk_draws", no_walks)
    law = _bernoulli_law()
    assert free_energy_empirical(law, P64, 4, 0.0, 10, 3) == (0.0, 0.0)
    with pytest.raises(DomainError):  # the argument checks still come first
        free_energy_empirical(law, P64, 0, 0.0, 10, 3)


def test_free_energy_tilt_grid_is_its_scalar_calls():
    # every tilt's walks run as one stack, each on its own streams: the
    # grid gives the scalar calls' bits, and c_k(0) = 0 is no walk at all
    law = _rank_one_law((0.3, 0.7), (0.4, 1.0))
    grid = free_energy_empirical(law, P16, 5, [-1.0, 0.0, 1.0], 20, 8)
    scalar = [free_energy_empirical(law, P16, 5, t, 20, 8) for t in (-1.0, 0.0, 1.0)]
    assert all(isinstance(v, float) for pair in scalar for v in pair)
    assert grid[0].shape == grid[1].shape == (3,)
    assert grid[0].tolist() == [c for c, _ in scalar]
    assert grid[1].tolist() == [se for _, se in scalar]
    assert scalar[1] == (0.0, 0.0)
    limits = free_energy_limit(law, [-1.0, 0.0, 1.0])
    assert limits.tolist() == [free_energy_limit(law, t) for t in (-1.0, 0.0, 1.0)]


def test_free_energy_limit_bernoulli_closed_form():
    law = _bernoulli_law()
    for t in (-3.0, -0.5, 0.0, 1.0, 4.0):
        want = math.log((1.0 + math.exp(t)) / 2.0)
        assert free_energy_limit(law, t) == pytest.approx(want, rel=1e-12)
    # the shifted log-sum-exp must survive huge tilts
    big = free_energy_limit(law, 800.0)
    assert big == pytest.approx(800.0 + math.log(0.5), rel=1e-12)


def test_rate_function_bernoulli_entropy():
    law = _bernoulli_law()
    for s in (0.25, 0.5, 0.75):
        want = s * math.log(2.0 * s) + (1.0 - s) * math.log(2.0 * (1.0 - s))
        assert rate_function(law, s) == pytest.approx(want, abs=1e-15)
    assert rate_function(law, 0.5) == 0.0  # t = 0 exactly
    assert rate_function(law, 1.5) == math.inf


def _rank_one_law(weights, atoms):
    return RadialLaw(weights=weights, atoms=tuple(ConeMatrix(np.array([[a]])) for a in atoms))


@pytest.mark.parametrize("scale", [1.0, 0.1, 0.01, 100.0])
def test_rate_function_two_atom_entropy_at_any_scale(scale):
    # atoms {0, scale}: I(s scale^2) is the entropy form at s for every
    # scale, however far the maximizing t = ln(s / (1 - s)) / scale^2 lies
    law = _rank_one_law((0.5, 0.5), (0.0, scale))
    s = np.linspace(0.05, 0.95, 19)
    want = s * np.log(2.0 * s) + (1.0 - s) * np.log(2.0 * (1.0 - s))
    got = rate_function(law, s * scale**2)
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
        assert rate_function(law, s) == pytest.approx(best.fun, abs=1e-10)


def test_rate_function_endpoints_and_outside_the_support():
    # an end of the support is reached only by walks that always pick its
    # atom: I = -ln of that atom's weight; beyond the support I = inf
    law = _rank_one_law((0.2, 0.5, 0.3), (0.0, 0.6, 1.3))
    got = rate_function(law, [[0.0, 1.69], [-0.1, 1.7]])
    assert got.shape == (2, 2)
    assert got[0, 0] == pytest.approx(-math.log(0.2), rel=1e-15)
    assert got[0, 1] == pytest.approx(-math.log(0.3), rel=1e-15)
    assert np.all(got[1] == math.inf)
    assert isinstance(rate_function(law, 0.0), float)
    assert rate_function(_rank_one_law((1.0,), (0.7,)), 0.7**2) == 0.0


def test_rate_function_is_nan_at_a_nan_argument():
    # a nan s lies neither at an end of the support nor outside it
    law = _bernoulli_law()
    got = rate_function(law, [math.nan, 0.5, 2.0])
    assert math.isnan(got[0]) and got[1] == 0.0 and got[2] == math.inf
    assert math.isnan(rate_function(law, math.nan))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_function_next_to_an_end_of_the_support():
    # atom squares {0, 1e-150, 1}: at s a subnormal distance above 0 the
    # bracket bound -1 / (w_0 s) overflows a float, yet the supremum sits at
    # a finite t near -3.7e152 and I(s) is -ln w_0 to far below 1e-12
    law = _rank_one_law((0.25, 0.25, 0.5), (0.0, 1e-75, 1.0))
    got = rate_function(law, [1e-310, 5e-324])
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
        got = rate_function(law, [5e-324, 0.25])
        assert math.isnan(got[0]), a
        assert math.isfinite(got[1])


def test_large_deviations_need_a_rank_one_law():
    # a rank-2 law would read each atom's [0, 0] entry, with q = 1 params too
    law = RadialLaw(weights=(0.5, 0.5), atoms=(np.diag([0.0, 5.0]), np.eye(2)))
    with pytest.raises(UnsupportedRankError):
        free_energy_limit(law, 1.0)
    with pytest.raises(UnsupportedRankError):
        rate_function(law, 0.5)
    with pytest.raises(UnsupportedRankError):
        free_energy_empirical(law, P64, 4, 1.0, 10, 0)


def test_free_energy_reweights_walks_of_the_tilted_law():
    # c_k(t) = c(t) + (1/n) ln mean exp(t (S_n^2 - sum_k x_{i_k})) over the
    # walks of nu_t that walk_batch runs on the same streams
    law = _rank_one_law((0.3, 0.7), (0.4, 1.0))
    t, n, mu, reps = 0.8, 6, 16.0, 40
    x = np.array([0.16, 1.0])
    c = math.log(0.3 * math.exp(t * x[0]) + 0.7 * math.exp(t * x[1]))
    tilted = RadialLaw(weights=tuple(law.weights * np.exp(t * x - c)), atoms=law.atoms)
    label = f"ldp:mu={mu:.17g}:n={n}:t={t:.17g}"
    rngs = [substream(5, label, r) for r in range(reps)]
    states = walk_batch(tilted, P1.with_mu(mu), n, rngs)[:, -1]
    u = [substream(5, label, r).random(n) for r in range(reps)]
    picks = _picks(tilted.weights, u)
    ratios = np.exp(t * (states[:, 0, 0] ** 2 - x[picks].sum(axis=1)))
    got, se = free_energy_empirical(law, P1.with_mu(mu), n, t, reps, 5)
    assert got == pytest.approx(c + math.log(ratios.mean()) / n, rel=1e-12)
    assert 0.0 < se < 0.1


def _free_energy_runs(mu, t, seeds):
    law, params = _bernoulli_law(), P1.with_mu(mu)
    return np.array([free_energy_empirical(law, params, 20, t, 100, seed) for seed in seeds])


def test_free_energy_stderr_covers_at_a_large_index():
    # perfbench's freeenergy config: the tilted estimator's 3-SE interval
    # misses the limit for at most 2% of (seed, t) pairs; the untilted one
    # missed for about 8%
    misses = 0
    for t in (-1.0, 1.0):
        runs = _free_energy_runs(2.0**20, t, range(100))
        c = free_energy_limit(_bernoulli_law(), t)
        misses += int(np.sum(np.abs(runs[:, 0] - c) > 3.0 * runs[:, 1]))
    assert misses <= 4


def test_free_energy_stderr_understates_the_spread_at_a_small_index():
    # at mu = 8 the walk's fluctuation about the sum of its steps' squares is
    # of order one and nu_t is not the optimal tilt: the weights are heavy
    # tailed, and across seeds c_k spreads several times its median stderr
    runs = _free_energy_runs(8.0, 1.0, range(100))
    assert np.std(runs[:, 0], ddof=1) > 2.0 * np.median(runs[:, 1])
