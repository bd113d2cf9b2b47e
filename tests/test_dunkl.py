"""Chamber Bessel functions: series, alternating closed form, Haar averages."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from haar_oracle import integrand_eigs
from conebessel.bessel import bessel_series
from conebessel.dunkl import (
    ChamberPoint,
    bessel_B_mc,
    _integrand_eigs,
    exp_conjugation_mc,
    harish_chandra_exact,
    hyper_0F0,
)
from conebessel.errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    IllConditionedError,
)
from conebessel.linalg import StructureParams
from conebessel.seeds import substream


def test_chamber_point_validation():
    p = ChamberPoint((2.0, 1.0, 0.0))
    assert p.q == 3
    assert p.scaled(2.0).xi == (4.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        ChamberPoint((1.0, 2.0))
    with pytest.raises(DomainError):
        ChamberPoint((1.0, -0.5))
    for bad in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (math.inf, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            ChamberPoint(bad)
    with pytest.raises(DimensionError):
        ChamberPoint(())
    with pytest.raises(DomainError):
        p.scaled(-1.0)


def test_hyper_0f0_rank_one_is_exponential():
    # the certified tail is absolute, so compare within tail + rounding
    for a, b in ((0.5, 1.2), (-2.0, 0.7), (3.0, -1.0)):
        val, tail = hyper_0F0(2.0, [a], [b])
        assert tail <= 1e-10
        assert abs(val - math.exp(a * b)) <= tail + 1e-12


def test_hyper_0f0_symmetric_in_arguments():
    x = np.array([1.3, 0.4])
    e = np.array([0.9, 0.2])
    for alpha in (0.5, 1.0, 2.0):
        v1, _ = hyper_0F0(alpha, x, e)
        v2, _ = hyper_0F0(alpha, e, x)
        assert v1 == pytest.approx(v2, rel=1e-12)


@pytest.mark.parametrize("d, n", [(1, 4000), (2, 3600)])
def test_chamber_draws_keep_a_small_traced_peak(d, n):
    # one chamber op's draw at mu = 64: the Haar arrays die before the
    # series runs, its power table stops at the stop weight and no layer
    # outlives the next (2.4-2.5 MB; 4.5-4.8 MB if they all live through
    # the series)
    params = StructureParams(q=3, d=d, mu=64.0)
    xi, eta = ChamberPoint((16.0, 8.0, 16.0 / 3.0)), ChamberPoint((0.8, 0.4, 0.8 / 3.0))
    # the same draws first, so that every Jack table the call reads is built
    bessel_B_mc(xi, eta, params, n, substream(1, "peak"))
    tracemalloc.start()
    try:
        bessel_B_mc(xi, eta, params, n, substream(1, "peak"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("q", (2, 3))
def test_integrand_eigenvalues_match_the_batched_product_oracle(q, d):
    # the entry-by-entry argument and the QR frames' batched product agree
    # from one generator state up to rounding, at the scale of the largest
    # eigenvalue
    params = StructureParams(q=q, d=d, mu=64.0)
    xv, ev = np.array([16.0, 8.0, 16.0 / 3.0])[:q], np.array([0.8, 0.4, 0.8 / 3.0])[:q]
    got = _integrand_eigs(params, xv, ev, np.random.default_rng(q + d), 2000)
    want = integrand_eigs(q, d, xv, ev, np.random.default_rng(q + d), 2000)
    assert got.shape == want.shape == (2000, q)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_hyper_0f0_alpha_one_matches_alternating_form():
    # harish_chandra_exact is an independent route to the same number
    x2 = np.array([1.1, 0.4, 0.05])
    e2 = np.array([0.9, 0.5, 0.1])
    series, tail = hyper_0F0(1.0, -x2, e2, tol=1e-12, max_weight=60)
    exact = harish_chandra_exact(x2, e2)
    assert abs(series - exact) <= tail + 1e-10


def test_hyper_0f0_guards_and_convergence():
    with pytest.raises(DomainError):
        hyper_0F0(0.0, [1.0], [1.0])
    with pytest.raises(DimensionError):
        hyper_0F0(1.0, [1.0, 2.0], [1.0])
    with pytest.raises(DomainError):
        hyper_0F0(1.0, [1.0], [1.0], tol=0.0)
    with pytest.raises(ConvergenceError) as err:
        hyper_0F0(1.0, [30.0], [2.0], max_weight=4)
    assert err.value.achieved_bound > 0.0
    # xi**2 overflows while eta**2 underflows: the weight-2 layer is inf * 0,
    # which must not come back as nan with the small tail of s = 1
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        with pytest.raises(ConvergenceError, match="not finite") as err:
            hyper_0F0(1.0, [1e200], [1e-200])
    assert err.value.achieved_bound == math.inf


def test_harish_chandra_rank_one_and_guards():
    assert harish_chandra_exact([1.7], [0.3]) == pytest.approx(math.exp(-0.51))
    with pytest.raises(IllConditionedError):
        harish_chandra_exact([1.0, 1.0 + 1e-9], [2.0, 1.0])
    with pytest.raises(DomainError):
        harish_chandra_exact(list(range(9)), list(range(9)))
    # well separated entries, but past q = 4 the quotient cancels beyond
    # the 1e-9 the 50-digit comparison below holds (3e-9 at q = 5 and
    # 2e-3 at q = 8 on its points)
    with pytest.raises(DomainError, match="past q = 4"):
        harish_chandra_exact([2.5, 2.0, 1.5, 1.0, 0.5], [2.0, 1.6, 1.2, 0.8, 0.4])
    with pytest.raises(DimensionError):
        harish_chandra_exact([1.0, 2.0], [1.0])


def test_harish_chandra_sign_for_small_arguments():
    # the value is an average of exp(-<e, u x u*>) and must be positive;
    # a missing (-1)^{q(q-1)/2} prefactor would flip it for q = 2, 3
    for q in (2, 3):
        x2 = np.array([0.4 * (q - i) for i in range(q)])
        e2 = np.array([0.3 * (q - i) for i in range(q)])
        val = harish_chandra_exact(x2, e2)
        lo = math.exp(-float(np.dot(x2, e2)))  # sharpest possible alignment
        assert lo <= val <= 1.0


def _harish_chandra_mp(x2, e2):
    """The closed form of harish_chandra_exact at 50 digits."""
    q = len(x2)
    with mpmath.workdps(50):
        x, e = [mpmath.mpf(float(v)) for v in x2], [mpmath.mpf(float(v)) for v in e2]
        det = mpmath.det(mpmath.matrix([[mpmath.exp(-a * b) for b in e] for a in x]))
        vdm = mpmath.fprod(z[i] - z[j] for z in (x, e) for i in range(q) for j in range(i + 1, q))
        pref = mpmath.fprod(mpmath.factorial(j) for j in range(1, q))
        return (-1) ** (q * (q - 1) // 2) * pref * det / vdm


@pytest.mark.parametrize("q", [2, 3, 4])
def test_harish_chandra_matches_a_50_digit_determinant(q):
    # the permutation sum lost 9e-9 of relative accuracy at q = 4 on these
    # points; LU with pivoting keeps it below 1e-10
    rng = substream(31, f"hc-det:q={q}")
    for _ in range(40):
        x2, e2 = (np.sort(rng.uniform(0.0, 3.0, q))[::-1] for _ in range(2))
        want = _harish_chandra_mp(x2, e2)
        assert abs(harish_chandra_exact(x2, e2) - want) <= 1e-9 * abs(want)


def test_conjugation_average_three_way_identity():
    x2 = np.array([1.4, 0.5])
    e2 = np.array([0.8, 0.2])
    exact = harish_chandra_exact(x2, e2)
    series, _ = hyper_0F0(1.0, -x2, e2, tol=1e-12, max_weight=60)
    mc, se = exp_conjugation_mc(x2, e2, 2, 60_000, substream(21, "conj", 0))
    assert series == pytest.approx(exact, abs=1e-9)
    assert abs(mc - exact) <= 5.0 * se


def test_conjugation_average_real_field_runs():
    mc, se = exp_conjugation_mc([1.0, 0.3], [0.5, 0.1], 1, 20_000, substream(21, "conj", 1))
    assert 0.0 < mc <= 1.0
    with pytest.raises(DomainError):
        exp_conjugation_mc([1.0], [1.0], 1, 1, substream(21, "conj", 2))
    with pytest.raises(DimensionError):
        exp_conjugation_mc([1.0, 2.0], [1.0], 2, 100, substream(21, "conj", 3))


def test_chamber_average_rank_one_is_deterministic():
    # u xi^2 u* = xi^2 for 1 x 1 unitaries, so every Haar sample agrees
    params = StructureParams(q=1, d=1, mu=4.0)
    xi, eta = ChamberPoint((1.1,)), ChamberPoint((0.7,))
    val, se = bessel_B_mc(xi, eta, params, 50, substream(22, "b", 0))
    want, _ = bessel_series(np.array([[0.25 * 1.1**2 * 0.7**2]]), params, tol=1e-9)
    assert se == pytest.approx(0.0, abs=1e-15)
    assert val == pytest.approx(want, rel=1e-12)


def test_chamber_average_guards():
    params = StructureParams(q=1, d=1, mu=4.0)
    xi, eta = ChamberPoint((1.0,)), ChamberPoint((1.0,))
    with pytest.raises(DimensionError):
        bessel_B_mc(ChamberPoint((1.0, 0.5)), eta, params, 10, substream(22, "b", 1))
    with pytest.raises(DomainError):
        bessel_B_mc(xi, eta, params, 1, substream(22, "b", 2))
    with pytest.raises(DomainError):
        # mu must exceed 2 rho for the integrand series
        bessel_B_mc(xi, eta, StructureParams(q=1, d=1, mu=2.0), 10, substream(22, "b", 3))


# SHA-256 of the seeded dunkl CSVs below the config-hash line, recorded
# under stream version 5; version 6 moved a b_stderr of the d=1 run in its
# last bit, and that digest was recorded again.  The second digest of each
# case leaves out the b_stderr column; it was recorded under version 4 and
# shows that no other value moved with the standard error (version 5) or
# with the rounding of the Haar frames and the integrand (version 6).
_DUNKL_DIGESTS = {
    1: ("c4ae7d391e02494e551ce9e95c688a9a4f011717f576bc7bacb8e8172024a5e3",
        "88a205c2956eec8575fcdb98d596216614abfb0f1412c20b6452e166c1e1d08a"),
    2: ("571f63692128f8daf073a614c2dc2f849a7c33fbbc29ac0eb117974d50d55fcd",
        "afc91efa122376d56dbaed54928f9f853efd1aacdaf5960f5f2092814da37b1d"),
}


@pytest.mark.parametrize("d", sorted(_DUNKL_DIGESTS))
def test_dunkl_csv_matches_pinned_digest(csv_digest, d):
    argv = ["dunkl", "--q", "3", "--d", str(d), "--grid", "16,64", "--n-samples", "300",
            "--seed", "17"]
    assert (csv_digest(argv), csv_digest(argv, drop="b_stderr")) == _DUNKL_DIGESTS[d]


def test_dunkl_default_grid_csv_matches_pinned_digest(csv_digest):
    # no --grid: the subcommand's default indices 64, 128, 256; both digests
    # recorded under version 6, whose rounding moved a b_value here
    argv = ["dunkl", "--q", "2", "--d", "1", "--n-samples", "200", "--seed", "5"]
    assert csv_digest(argv) == "860b51a027339dc1937f3b2d1627ac6ad921e4649cd7756170ec04b24d605761"
    assert (csv_digest(argv, drop="b_stderr")
            == "cb0e84eea949e7312c9a8786f580936701bac6467e4745d87c6b19b8aa01d8aa")
