"""Matrix-argument Bessel series, its integral form, and the kernel gap.

Scalar oracles: scipy.special.hyp0f1 for the rank-one series, quadrature
for the ball-density normalizer at rank one, and the importance estimate
of tests/ball_oracle.py above it.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


# tail arguments: zero, the smallest subnormal, tiny, moderate, e^s near the
# largest float, and e^s past it
_TAIL_S = (0.0, 5e-324, 1e-300, 1e-8, *np.geomspace(0.1, 50.0, 24).tolist(), 700.0, 709.7, 800.0)


def _assert_certified_tail(k, s, got):
    """got is at least sum_{j>k} s^j / j! (mpmath, 50 digits) and within
    1e-13 of it, or within the subnormal pad of it below the normal range;
    inf where e^s overflows a float."""
    if s > math.log(np.finfo(float).max):
        assert got == math.inf, (k, s)
        return
    with mpmath.workdps(50):
        exact = mpmath.exp(s) * mpmath.gammainc(k + 1, 0, s, regularized=True)
        assert mpmath.mpf(got) >= exact, (k, s, got)
        assert mpmath.mpf(got) <= exact * (1 + mpmath.mpf(1e-13)) + (k + 2) ** 2 * 2.0**-1072, (k, s, got)


def test_poisson_tail_is_certified_against_mpmath():
    for k in range(81):
        batch = _poisson_tail(k, np.array(_TAIL_S))
        for s, got in zip(_TAIL_S, batch.tolist()):
            _assert_certified_tail(k, s, got)
            _assert_certified_tail(k, s, _poisson_tail(k, s))
    assert _poisson_tail(3, 0.0) == 0.0
    assert not _poisson_tail(3, np.zeros(4)).any()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80), st.lists(st.floats(0.0, 709.7), min_size=1, max_size=6))
def test_poisson_tail_property(k, points):
    # the float path, and the batch path with points on both sides of k + 1
    for s, got in zip(points, _poisson_tail(k, np.array(points)).tolist()):
        _assert_certified_tail(k, s, got)
        _assert_certified_tail(k, s, _poisson_tail(k, s))


# SHA-256 of the seeded bessel CSVs below the config-hash line (which
# carries the stream version), recorded under stream version 4
# (seeds.STREAM_VERSION); every byte must stay the same until the version
# changes.  The second digest of each case leaves out the series_tail
# column.  It was recorded under version 3, before the package computed
# the tail itself, and shows that no other value moved with it.
_BESSEL_DIGESTS = {
    (1, 1): ("76f9e1e38bfd313ee292b4cb2aa402f2237d66d6b1bfe9117629fa52debcf794",
             "0210851fa41492b743651e12b3c889ae69282b545868b251b6f867a0de7435d0"),
    (2, 1): ("333f1abdc1751cc33682622d2edba37e11566b47d74e2197c3bea064e5caee2c",
             "f4ca85e73760df755d5b4ce6a140b7c4ecb9055631e81339919f092d5e71dcda"),
    (2, 2): ("dd9de29bb3640012f33be4f62d862c337b8a1a718fccbd8787876700105bed38",
             "0811929106b5366b8cb80a0b47a4c8cdd22ffb3f464b3b05de67aef0e0a6517d"),
    (3, 1): ("7289d473dbddd74a594fa694088f2612e7c57fde1292cbdb45a2f8db32f0248f",
             "7882956d93acb3d41e8133efcd61bb076e21368cd052df1f5375d7a087dd3048"),
    (3, 2): ("be54338f3d733ac984b9af43d28f845ad9372ca52722ac91e08d0a5a24f04e74",
             "94947c448fb5268b90620ead24dd5463f1d588e902b65b6e943eedff0b986b14"),
}


@pytest.mark.parametrize("q, d", sorted(_BESSEL_DIGESTS))
def test_bessel_csv_matches_pinned_digest(csv_digest, q, d):
    # q = 1 includes the classical column; x up to 6 takes q = 3 past weight 16
    argv = ["bessel", "--q", str(q), "--d", str(d), "--mu", "12", "--grid", "0:6:0.75",
            "--n-samples", "3000", "--seed", "23"]
    assert (csv_digest(argv), csv_digest(argv, drop="series_tail")) == _BESSEL_DIGESTS[(q, d)]


def test_bessel_default_grid_csv_matches_pinned_digest(csv_digest):
    # no --grid: the subcommand's default grid 0:4:0.25
    argv = ["bessel", "--q", "2", "--d", "1", "--mu", "4", "--n-samples", "500", "--seed", "5"]
    assert csv_digest(argv) == "9cdbc130ac2ee8fa6c230b235706c49ebd4747ba83e7268440a511c1b008d767"
    assert (csv_digest(argv, drop="series_tail")
            == "1a9386b9c03dcb6fb3320e0bc86d92624e8976612f2afc538ac2a570dfc79b5b")
