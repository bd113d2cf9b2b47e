"""Schedules, their divergence diagnostics, and the three experiments.

Rank-one large-deviation quantities have closed forms for two-atom step
laws (Bernoulli free energy ln((w0 + w1 e^t)) and the entropy rate
function), which pin the numerics exactly.
"""

import math

import numpy as np
import pytest

from conebessel.errors import DomainError, UnsupportedRankError
from conebessel.hypergroup import RadialLaw
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
        "# config_hash=015abd7f5cc57a2d stream_version=2\n"
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

    monkeypatch.setattr(limits, "walk_batch", no_walks)
    law = _bernoulli_law()
    assert free_energy_empirical(law, P1, 64.0, 4, 0.0, 10, 3) == (0.0, 0.0)
    with pytest.raises(DomainError):  # the argument checks still come first
        free_energy_empirical(law, P1, 64.0, 0, 0.0, 10, 3)


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
        assert rate_function(law, P1, s) == pytest.approx(want, abs=1e-9)
    assert 0.0 <= rate_function(law, P1, 0.5) <= 1e-12  # clamped at zero
    assert rate_function(law, P1, 1.5) == math.inf
    with pytest.raises(UnsupportedRankError):
        rate_function(law, StructureParams(q=2, d=1, mu=4.0), 0.5)
