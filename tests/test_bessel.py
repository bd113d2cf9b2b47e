"""Matrix-argument Bessel series, its integral form, and the kernel gap.

Scalar oracles: scipy.special.hyp0f1 for the rank-one series, quadrature
for the ball-density normalizer at rank one, and the importance estimate
of tests/ball_oracle.py above it.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from conebessel.bessel import (
    _poisson_tail,
    _series_from_eigs,
    bessel_classical,
    bessel_integral_mc,
    bessel_series,
    kappa_mu,
    theorem1_gap,
)
from ball_oracle import kappa_importance
from conebessel.errors import ConvergenceError, DimensionError, DomainError
from conebessel.linalg import StructureParams
from conebessel.seeds import substream


def test_rank_one_series_is_hyp0f1():
    params = StructureParams(q=1, d=1, mu=3.5)
    for y in (0.0, 0.3, 2.0, 7.5, -1.25):
        val, tail = bessel_series(3.5, np.array([[y]]), params)
        want = special.hyp0f1(3.5, -y)
        assert abs(val - want) <= tail + 1e-12 * max(1.0, abs(want))
        assert val == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_series_tail_bound_is_honest_at_coarse_tolerance():
    # truncate early on purpose; the certified bound must cover the error
    params = StructureParams(q=1, d=1, mu=2.0)
    for y in (1.0, 4.0, 9.0):
        val, tail = bessel_series(2.0, np.array([[y]]), params, tol=1e-3)
        want = special.hyp0f1(2.0, -y)
        assert abs(val - want) <= tail
        assert tail <= 1e-3


def test_series_argument_and_domain_guards():
    params = StructureParams(q=2, d=1, mu=4.0)
    with pytest.raises(DimensionError):
        bessel_series(4.0, np.eye(3), params)
    with pytest.raises(DomainError):
        bessel_series(1.0, np.eye(2), params)  # mu at or below rho - 1
    with pytest.raises(DomainError):
        bessel_series(4.0, np.eye(2), params, tol=0.0)


def test_series_raises_with_achieved_bound_when_capped():
    params = StructureParams(q=1, d=1, mu=2.0)
    with pytest.raises(ConvergenceError) as err:
        bessel_series(2.0, np.array([[40.0]]), params, max_weight=5)
    assert err.value.achieved_bound > 0.0


def test_batch_tail_is_checked_at_the_largest_point_first():
    # the largest tr|x| sits in the middle row; the stopping weight and the
    # returned tails are those of the full batch evaluated after each layer
    params = StructureParams(q=2, d=1, mu=3.0)
    eigs = np.array([[0.5, -0.25], [0.1, 0.0], [-4.0, 3.0], [1.0, 1.0], [0.0, 0.0]])
    s = np.abs(eigs).sum(axis=1) / 3.0
    floor = 2.0 ** 1
    stop = next(k for k in range(31) if np.max(floor * _poisson_tail(k, s)) <= 1e-10)
    _, tail = _series_from_eigs(3.0, eigs, params)
    assert tail.tobytes() == (floor * _poisson_tail(stop, s)).tobytes()
    with pytest.raises(ConvergenceError) as err:
        _series_from_eigs(3.0, eigs, params, max_weight=stop - 1)
    assert err.value.achieved_bound == float(np.max(floor * _poisson_tail(stop - 1, s)))


def test_series_refuses_a_non_finite_partial_sum():
    # x**k overflows long before the tail bound certifies; a nan must not
    # come back with a small "certified" bound
    params = StructureParams(q=1, d=1, mu=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="not finite") as err:
            bessel_series(2.0, [[120.0]], params, max_weight=2000)
    assert err.value.achieved_bound == math.inf


def test_classical_bessel_against_scipy():
    # at z=11 the alternating sum cancels terms of size ~600 down to 4e-3,
    # so both sides carry ~1e-12 of float noise; the tolerance reflects that
    for kappa in (-0.5, 0.0, 1.25, 4.0):
        for z in (0.0, 0.5, 3.0, 11.0):
            val, tail = bessel_classical(kappa, z)
            want = special.hyp0f1(kappa + 1.0, -z * z / 4.0)
            assert val == pytest.approx(want, rel=1e-9, abs=1e-11)
            assert abs(val - want) <= tail + 1e-11


def test_classical_bessel_half_integer_is_cosine():
    for z in (0.1, 1.0, 2.5, 6.0):
        val, _ = bessel_classical(-0.5, z)
        assert val == pytest.approx(math.cos(z), rel=1e-11, abs=1e-13)


def test_classical_bessel_guards():
    with pytest.raises(DomainError):
        bessel_classical(-1.0, 1.0)
    # the term ratio stays above one past the 300-term cap
    with pytest.raises(ConvergenceError, match="in 300 terms") as err:
        bessel_classical(0.0, 500.0)
    assert math.isfinite(err.value.achieved_bound)


# -------------------------------------------------------------- normalizer


def test_kappa_rank_one_real_matches_quadrature():
    for mu in (2.0, 3.5, 10.0):
        params = StructureParams(q=1, d=1, mu=mu)
        a = mu - params.rho
        want, err = integrate.quad(lambda v: (1.0 - v * v) ** a, -1.0, 1.0)
        assert kappa_mu(params) == pytest.approx(want, rel=1e-10)


def test_kappa_rank_one_complex_is_disk_integral():
    # integral over the unit disk of (1 - |v|^2)^(mu - rho) = pi / (mu - rho + 1)
    for mu in (2.5, 6.0):
        params = StructureParams(q=1, d=2, mu=mu)
        assert kappa_mu(params) == pytest.approx(math.pi / (mu - params.rho + 1.0), rel=1e-12)


def test_kappa_higher_rank_matches_oracle_importance_estimate():
    for q, d, mu in ((2, 1, 5.0), (2, 2, 8.0), (3, 1, 6.0), (3, 2, 9.0)):
        params = StructureParams(q=q, d=d, mu=mu)
        est, se = kappa_importance(params, 200_000, substream(31, f"kappa:{q}:{d}:{mu}"))
        assert abs(kappa_mu(params) - est) <= 4.0 * se


def test_integral_mc_agrees_with_series():
    params = StructureParams(q=1, d=1, mu=3.0)
    x = np.array([[0.9]])
    want, _ = bessel_series(3.0, x @ x, params)
    got, se = bessel_integral_mc(3.0, x, params, 150_000, substream(2, "imc", 0))
    assert abs(got - want) <= 5.0 * se + 1e-4


def test_integral_mc_guards():
    params = StructureParams(q=1, d=1, mu=3.0)
    rng = substream(2, "imc", 1)
    with pytest.raises(DimensionError):
        bessel_integral_mc(3.0, np.eye(2), params, 100, rng)
    with pytest.raises(DomainError):
        bessel_integral_mc(0.4, np.eye(1), params, 100, rng)
    with pytest.raises(DomainError):
        bessel_integral_mc(3.0, np.eye(1), params, 1, rng)


# ---------------------------------------------------------------- envelopes


def test_theorem_gap_rank_one_matches_scalar_formula():
    params = StructureParams(q=1, d=1, mu=10.0)
    for y in (0.25, 1.0, 3.0):
        gap, env = theorem1_gap(10.0, np.array([[y]]), params)
        want = abs(special.hyp0f1(10.0, -10.0 * y) - math.exp(-y))
        assert gap == pytest.approx(want, rel=1e-7, abs=1e-12)
        assert env == pytest.approx(min(1.0, y * y) / 10.0)


def test_theorem_gap_guards():
    params = StructureParams(q=1, d=1, mu=10.0)
    with pytest.raises(DomainError):
        theorem1_gap(3.0, np.array([[1.0]]), params)  # needs mu > 2 rho
    with pytest.raises(DomainError):
        theorem1_gap(10.0, np.array([[-1.0]]), params)


# ------------------------------------------------------------- poisson tail


def test_poisson_tail_matches_brute_force():
    for s in (0.5, 2.0, 10.0):
        for k in (0, 3, 10):
            term = s**k / math.factorial(k)
            brute = 0.0
            for j in range(k + 1, 200):
                term *= s / j
                brute += term
            got = float(_poisson_tail(k, np.asarray([s]))[0])
            assert got == pytest.approx(brute, rel=1e-10, abs=1e-300)


# SHA-256 of the seeded bessel CSVs below the config-hash line (which
# carries the stream version), recorded under stream version 2 and holding
# under version 3 (seeds.STREAM_VERSION); every byte must stay the same
# until the version changes.
_BESSEL_DIGESTS = {
    (1, 1): "72b942f0cd402fdb73d6282bcad978f4b8add47bc67b58a21b52f07e3f7ffff0",
    (2, 1): "0d98895649356e96479fb3e67bf2ffee210bf852765109ef483c785bd76262cb",
    (2, 2): "09d36e941f37020a4f129c53c1a8a4422b3b56eda09f674111b984490e756dd7",
    (3, 1): "c771017a3cbf3f4123cf71ae37cda659af9f2606f181b21700d6f7b14e72e879",
    (3, 2): "9568f4f9883fecc8e0de177a0ebedc3f075466b31cc6a61c703b8b84f2f8d8b8",
}


@pytest.mark.parametrize("q, d", sorted(_BESSEL_DIGESTS))
def test_bessel_csv_matches_pinned_digest(csv_digest, q, d):
    # q = 1 includes the classical column; x up to 6 takes q = 3 past weight 16
    argv = ["bessel", "--q", str(q), "--d", str(d), "--mu", "12", "--grid", "0:6:0.75",
            "--n-samples", "3000", "--seed", "23"]
    assert csv_digest(argv) == _BESSEL_DIGESTS[(q, d)]


def test_bessel_default_grid_csv_matches_pinned_digest(csv_digest):
    # no --grid: the subcommand's default grid 0:4:0.25
    argv = ["bessel", "--q", "2", "--d", "1", "--mu", "4", "--n-samples", "500", "--seed", "5"]
    assert csv_digest(argv) == "559becca0fbf1dea220310fc1af45edffcdb341b3f8a8c0ed2eee31f3b478121"
