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

from conebessel import jack
from conebessel.bessel import (
    _BALL_CHUNK,
    _poisson_tail,
    _series_from_eigs,
    bessel_classical,
    bessel_integral_mc,
    bessel_series,
    kappa_mu,
    theorem1_gap,
)
from ball_oracle import kappa_importance
from conebessel.dunkl import hyper_0F0
from conebessel.errors import ConvergenceError, DimensionError, DomainError
from conebessel.linalg import StructureParams, _ball_points, _ball_variates
from conebessel.seeds import substream


def test_rank_one_series_is_hyp0f1():
    params = StructureParams(q=1, d=1, mu=3.5)
    for y in (0.0, 0.3, 2.0, 7.5, -1.25):
        val, tail = bessel_series(np.array([[y]]), params)
        want = special.hyp0f1(3.5, -y)
        assert abs(val - want) <= tail + 1e-12 * max(1.0, abs(want))
        assert val == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_series_tail_bound_is_honest_at_coarse_tolerance():
    # truncate early on purpose; the certified bound must cover the error
    params = StructureParams(q=1, d=1, mu=2.0)
    for y in (1.0, 4.0, 9.0):
        val, tail = bessel_series(np.array([[y]]), params, tol=1e-3)
        want = special.hyp0f1(2.0, -y)
        assert abs(val - want) <= tail
        assert tail <= 1e-3


def test_series_argument_and_domain_guards():
    params = StructureParams(q=2, d=1, mu=4.0)
    with pytest.raises(DimensionError):
        bessel_series(np.eye(3), params)
    with pytest.raises(DomainError):
        bessel_series(np.eye(2), params, tol=0.0)


def test_series_raises_with_achieved_bound_when_capped():
    params = StructureParams(q=1, d=1, mu=2.0)
    with pytest.raises(ConvergenceError) as err:
        bessel_series(np.array([[40.0]]), params, max_weight=5)
    assert err.value.achieved_bound > 0.0


def test_batch_bound_is_the_tail_at_its_largest_point():
    # the largest tr|x| sits in the middle row; the batch stops at the first
    # weight whose tail there is within tol, and that one bound covers the
    # exact tail of every row
    params = StructureParams(q=2, d=1, mu=3.0)
    eigs = np.array([[0.5, -0.25], [0.1, 0.0], [-4.0, 3.0], [1.0, 1.0], [0.0, 0.0]])
    s = np.abs(eigs).sum(axis=1) / 3.0
    top, floor = float(s.max()), 2.0 ** 1
    stop = next(k for k in range(31) if floor * _poisson_tail(k, top) <= 1e-10)
    _, tail = _series_from_eigs(params, eigs)
    assert type(tail) is float and tail == floor * _poisson_tail(stop, top)
    with mpmath.workdps(50):
        for x in s.tolist():
            exact = mpmath.exp(x) * mpmath.gammainc(stop + 1, 0, x, regularized=True)
            assert mpmath.mpf(tail) >= floor * exact, x
    with pytest.raises(ConvergenceError) as err:
        _series_from_eigs(params, eigs, max_weight=stop - 1)
    assert err.value.achieved_bound == floor * _poisson_tail(stop - 1, top)


def test_an_uncertifiable_batch_raises_before_any_layer(monkeypatch):
    # the stop weight is decided at the batch's largest point before any
    # term is summed, so a batch the cap cannot certify evaluates no layer
    # (summing them all took 0.9 s at the default cap of 30)
    def no_layer(self, k):
        raise AssertionError(f"layer {k} was evaluated")

    monkeypatch.setattr(jack._JackTable, "layer", no_layer)
    params = StructureParams(q=3, d=1, mu=4.0)
    top, floor = 300.0 / 4.0, 2.0 ** 3
    for cap in (30, 60):
        with pytest.raises(ConvergenceError, match=f"within weight {cap};") as err:
            bessel_series(100.0 * np.eye(3), params, max_weight=cap)
        assert err.value.achieved_bound == floor * _poisson_tail(cap, top)
    with pytest.raises(ConvergenceError, match="0F0 series not certified") as err:
        hyper_0F0(1.0, [30.0], [2.0], max_weight=4)
    assert err.value.achieved_bound == _poisson_tail(4, 60.0)


def test_series_refuses_a_non_finite_partial_sum():
    # x**k overflows long before the tail bound certifies; a nan must not
    # come back with a small "certified" bound
    params = StructureParams(q=1, d=1, mu=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="not finite") as err:
            bessel_series([[120.0]], params, max_weight=2000)
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
    want, _ = bessel_series(x @ x, params)
    got, se = bessel_integral_mc(x, params, 150_000, substream(2, "imc", 0))
    assert abs(got - want) <= 5.0 * se + 1e-4


@pytest.mark.parametrize("c", [1e-2, 1e-4, 1e-6])
def test_integral_mc_stderr_is_the_two_pass_one_at_small_arguments(c):
    # near x = 0 every value is within c^2 of 1, where E[f^2] - E[f]^2
    # cancels to rounding noise (3.3e-11 at c = 1e-4, 0.0 at c = 1e-6)
    params, n = StructureParams(q=1, d=1, mu=4.0), 100_000
    got, se = bessel_integral_mc(c * np.eye(1), params, n, np.random.default_rng(1))
    rng, chunks = np.random.default_rng(1), []
    for lo in range(0, n, _BALL_CHUNK):
        v = _ball_points(params, *_ball_variates(params, rng, min(_BALL_CHUNK, n - lo)))
        chunks.append(np.cos(2.0 * c * v[:, 0, 0]))
    f = np.concatenate(chunks)
    assert got == sum(float(ch.sum()) for ch in chunks) / n
    # deviations from a correctly rounded mean, less their own sum's share
    dev = f - math.fsum(f) / n
    two_pass = math.sqrt(math.fsum(dev * dev) - math.fsum(dev) ** 2 / n) / n
    assert se > 0.0
    assert se == pytest.approx(two_pass, rel=1e-9, abs=0.0)


def test_integral_mc_guards():
    params = StructureParams(q=1, d=1, mu=3.0)
    rng = substream(2, "imc", 1)
    with pytest.raises(DimensionError):
        bessel_integral_mc(np.eye(2), params, 100, rng)
    with pytest.raises(DomainError):
        bessel_integral_mc(np.eye(1), params, 1, rng)


def test_integral_mc_refuses_a_complex_argument_over_the_reals():
    # J_5(x* x) at x = [[1j]] is J_5(1), about 0.816; the real ball would
    # read cos(0) = 1 at every draw
    rng = substream(2, "imc", 2)
    with pytest.raises(DomainError, match="d=2"):
        bessel_integral_mc([[1j]], StructureParams(1, 1, 5.0), 20_000, rng)
    got, _ = bessel_integral_mc(np.array([[1.0 + 0j]]), StructureParams(1, 1, 5.0), 100, rng)
    assert got < 1.0


# ---------------------------------------------------------------- envelopes


def test_theorem_gap_rank_one_matches_scalar_formula():
    params = StructureParams(q=1, d=1, mu=10.0)
    for y in (0.25, 1.0, 3.0):
        gap, env = theorem1_gap(np.array([[y]]), params)
        want = abs(special.hyp0f1(10.0, -10.0 * y) - math.exp(-y))
        assert gap == pytest.approx(want, rel=1e-7, abs=1e-12)
        assert env == pytest.approx(min(1.0, y * y) / 10.0)


def test_theorem_gap_guards():
    params = StructureParams(q=1, d=1, mu=10.0)
    with pytest.raises(DomainError):
        theorem1_gap(np.array([[1.0]]), params.with_mu(3.0))  # needs mu > 2 rho
    with pytest.raises(DomainError):
        theorem1_gap(np.array([[-1.0]]), params)


# ------------------------------------------------------------- poisson tail


def test_poisson_tail_matches_brute_force():
    for s in (0.5, 2.0, 10.0):
        for k in (0, 3, 10):
            term = s**k / math.factorial(k)
            brute = 0.0
            for j in range(k + 1, 200):
                term *= s / j
                brute += term
            got = _poisson_tail(k, s)
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
        for s in _TAIL_S:
            _assert_certified_tail(k, s, _poisson_tail(k, s))
    assert _poisson_tail(3, 0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80), st.lists(st.floats(0.0, 709.7), min_size=1, max_size=6))
def test_poisson_tail_property(k, points):
    # points on both sides of k + 1
    for s in points:
        _assert_certified_tail(k, s, _poisson_tail(k, s))


# SHA-256 of the seeded bessel CSVs below the config-hash line (which
# carries the stream version), recorded under stream version 5
# (seeds.STREAM_VERSION); every byte must stay the same until the version
# changes.  The second digest of each case leaves out the mc_stderr column.
# It was recorded under version 4, before the standard error was taken from
# deviations from a shift, and shows that no other value moved with it.
_BESSEL_DIGESTS = {
    (1, 1): ("8e0d2208a0d7a2701d978c681bacb47478e351696625bb9180ec841823a827fa",
             "5c6c388273aa2ebc0bd431d228205d642d25bef67a0029f0ffcee6bb82d89df9"),
    (2, 1): ("c1a2c997fc60562a3d4f3777cce24ce843833de5c53f4f6cd384d61b98296142",
             "91717608699c25f9e09542352c9c0143a6291736f4e08d6381372484fec20960"),
    (2, 2): ("ab8ae36ca4e3323b9302e95a8868f3d973819becd5d48c5e8b8c01782115740d",
             "a6440fce9eda44eeb6283a337d1c2c29a840bc3808684fe0a8974696c96ff374"),
    (3, 1): ("14291bc2910c32ae89646dcc4818cbd94b4950c4c938bd4f046762234f644853",
             "e76be342513d0ffbb515b84f385e65998984aae727196e4d34fda5c406c2466a"),
    (3, 2): ("5bb37c39870ed20bfebfdda13a69e74f565fa465af58ec093e61947b6831bf28",
             "d7a11599a971d46849e0ea6c4b0b3571ceaa4d3c1f56d0832eac2304ff3b1ca5"),
}


@pytest.mark.parametrize("q, d", sorted(_BESSEL_DIGESTS))
def test_bessel_csv_matches_pinned_digest(csv_digest, q, d):
    # q = 1 includes the classical column; x up to 6 takes q = 3 past weight 16
    argv = ["bessel", "--q", str(q), "--d", str(d), "--mu", "12", "--grid", "0:6:0.75",
            "--n-samples", "3000", "--seed", "23"]
    assert (csv_digest(argv), csv_digest(argv, drop="mc_stderr")) == _BESSEL_DIGESTS[(q, d)]


def test_bessel_default_grid_csv_matches_pinned_digest(csv_digest):
    # no --grid: the subcommand's default grid 0:4:0.25
    argv = ["bessel", "--q", "2", "--d", "1", "--mu", "4", "--n-samples", "500", "--seed", "5"]
    assert csv_digest(argv) == "0093c0e484a0b628b2c05e033490caca11b460959bd036b6adbc97885a0f18dd"
    assert (csv_digest(argv, drop="mc_stderr")
            == "1abaddc2f0752d4875252bcee4941fd5451a40a04f213f54aa795b2b46308f82")
