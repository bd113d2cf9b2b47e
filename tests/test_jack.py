"""Partition combinatorics and Jack polynomial values.

The frozen table below comes from tests/jack_oracle.py, which builds the
same polynomials by a completely different route (Gram orthogonalization
of the monomial basis under the deformed power-sum pairing, normalized by
solving against (x_1+...+x_n)^k, all in exact rational arithmetic).  The
evaluation point is dyadic so the oracle values are exact binary floats.
Regenerate with:  python3 tests/jack_oracle.py
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conebessel.errors import DomainError
from conebessel.jack import (
    Partition,
    _get_table,
    gen_pochhammer,
    layer_values,
    layers,
    partitions_of_weight,
    unit_layers,
)

POINT = np.array([1.0, 0.5, 0.25, 0.125])

# frozen Jack C values at x = (1, 1/2, 1/4, 1/8)
FROZEN_C = {
    0.5: {
        (1,): 1.875,
        (2,): 2.7864583333333335,
        (1, 1): 0.7291666666666666,
        (3,): 3.6328125,
        (2, 1): 2.865234375,
        (1, 1, 1): 0.09375,
        (4,): 4.369970703125,
        (3, 1): 6.510807291666667,
        (2, 2): 0.9012369791666667,
        (2, 1, 1): 0.5740327380952381,
        (1, 1, 1, 1): 0.0035714285714285713,
        (5,): 4.990081787109375,
        (4, 1): 11.441476004464286,
        (3, 2): 4.5123291015625,
        (3, 1, 1): 1.8031529017857142,
        (2, 2, 1): 0.39794921875,
        (2, 1, 1, 1): 0.029296875,
        (6,): 5.503057752336774,
        (5, 1): 17.340055193219865,
        (4, 2): 12.438579740978422,
        (4, 1, 1): 4.075792100694445,
        (3, 3): 1.2620035807291667,
        (3, 2, 1): 2.6441737583705356,
        (3, 1, 1, 1): 0.11610243055555555,
        (2, 2, 2): 0.043538411458333336,
        (2, 2, 1, 1): 0.028483072916666668,
    },
    1.0: {
        (1,): 1.875,
        (2,): 2.421875,
        (1, 1): 1.09375,
        (3,): 2.724609375,
        (2, 1): 3.6328125,
        (1, 1, 1): 0.234375,
        (4,): 2.883544921875,
        (3, 1): 6.67529296875,
        (2, 2): 1.513671875,
        (2, 1, 1): 1.271484375,
        (1, 1, 1, 1): 0.015625,
        (5,): 2.964935302734375,
        (4, 1): 9.766845703125,
        (3, 2): 5.9600830078125,
        (3, 1, 1): 3.22998046875,
        (2, 2, 1): 1.13525390625,
        (2, 1, 1, 1): 0.1171875,
        (6,): 3.006114959716797,
        (5, 1): 12.765693664550781,
        (4, 2): 12.818984985351562,
        (4, 1, 1): 6.00738525390625,
        (3, 3): 2.199554443359375,
        (3, 2, 1): 5.9326171875,
        (3, 1, 1, 1): 0.37841796875,
        (2, 2, 2): 0.189208984375,
        (2, 2, 1, 1): 0.15380859375,
    },
    2.0: {
        (1,): 1.875,
        (2,): 2.0572916666666665,
        (1, 1): 1.4583333333333333,
        (3,): 2.044921875,
        (2, 1): 4.078125,
        (1, 1, 1): 0.46875,
        (4,): 1.9934361049107143,
        (3, 1): 6.1359747023809526,
        (2, 2): 1.9697916666666666,
        (2, 1, 1): 2.2104166666666667,
        (1, 1, 1, 1): 0.05,
        (5,): 1.9441659109933036,
        (4, 1): 7.8466796875,
        (3, 2): 6.296037946428571,
        (3, 1, 1): 4.486955915178571,
        (2, 2, 1): 2.265625,
        (2, 1, 1, 1): 0.33482142857142855,
        (6,): 1.9052945587026093,
        (5, 1): 9.396089231813109,
        (4, 2): 10.966273716517858,
        (4, 1, 1): 7.119845920138889,
        (3, 3): 2.7939918154761907,
        (3, 2, 1): 9.3779296875,
        (3, 1, 1, 1): 0.8572048611111112,
        (2, 2, 2): 0.5143229166666666,
        (2, 2, 1, 1): 0.5208333333333334,
    },
}


def _jack_C(lam, alpha):
    """C_lambda^alpha at POINT: its row of the weight-|lambda| layer."""
    parts, vals = layer_values(alpha, POINT.size, sum(lam), POINT[None, :])
    return float(vals[parts.index(Partition(lam)), 0])


@pytest.mark.parametrize("alpha", sorted(FROZEN_C))
def test_jack_C_matches_frozen_oracle(alpha):
    for lam, want in FROZEN_C[alpha].items():
        assert _jack_C(lam, alpha) == pytest.approx(want, rel=1e-12), (alpha, lam)


def test_jack_C_alpha_as_fraction_matches_float():
    assert _jack_C((3, 1), Fraction(1, 2)) == pytest.approx(_jack_C((3, 1), 0.5), rel=1e-14)


def test_layer_sums_to_trace_power():
    # normalization identity: the weight-k layer sums to (sum xi)^k
    rng = np.random.default_rng(5)
    for alpha, q, k in [(2.0, 3, 5), (1.0, 2, 6), (0.5, 4, 4), (2.0, 1, 7)]:
        xi = rng.uniform(-1.5, 1.5, (8, q))
        parts, vals = layer_values(alpha, q, k, xi)
        lhs = vals.sum(axis=0)
        rhs = xi.sum(axis=1) ** k
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_layer_values_shapes():
    parts, vals = layer_values(1.0, 2, 3, np.ones((5, 2)))
    assert [tuple(p) for p in parts] == [(3,), (2, 1)]
    assert vals.shape == (2, 5)
    with pytest.raises(DomainError):
        layer_values(1.0, 2, 0, np.ones((5, 2)))


def _reference_layer(alpha, q, k, xi):
    """Weight-k layer with its own powers xi ** (0..k), each monomial term a
    gathered row product: the evaluation before layers shared one table."""
    parts, coeff, expo, _ = _get_table(alpha, q).layer(k)
    powers = xi[:, :, None] ** np.arange(k + 1)
    cols = np.arange(q)
    mvals = np.empty((len(expo), xi.shape[0]))
    for r, perms in enumerate(expo):
        acc = np.zeros(xi.shape[0])
        for perm in perms:
            acc += powers[:, cols, perm].prod(axis=1)
        mvals[r] = acc
    return parts, coeff @ mvals


@pytest.mark.parametrize("alpha, q", [(1.0, 1), (1.0, 3), (2.0, 2), (2.0, 3), (0.5, 4)])
def test_unit_layers_are_the_layers_at_ones_bit_for_bit(alpha, q):
    # hyper_0F0 divides by these; tabulating them once per layer must not
    # move a bit of the values a third layers generator at (1, ..., 1) gave
    for k, v1, (_, want) in zip(range(1, 15), unit_layers(alpha, q), layers(alpha, q, np.ones((1, q)))):
        assert v1.tobytes() == want[:, 0].tobytes(), k


def _assert_layers_match_reference(alpha, q, xi):
    # weight 20 takes the shared table past its extension from 16 to 32 exponents
    for k, (parts, vals) in zip(range(1, 21), layers(alpha, q, xi)):
        want_parts, want = _reference_layer(alpha, q, k, xi)
        assert parts == want_parts
        assert vals.shape == want.shape
        assert vals.tobytes() == want.tobytes(), (q, k)


@st.composite
def _eig_batches(draw):
    # generic floats of both signs, some of them zero (the sign-bound
    # criterion evaluates at -eigs)
    q = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xi = rng.standard_normal((n, q)) * draw(st.sampled_from([0.3, 1.0, 4.0]))
    xi[rng.random((n, q)) < 0.2] = 0.0
    return q, xi


@settings(max_examples=40, deadline=None)
@given(batch=_eig_batches(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
def test_layers_match_per_weight_powers_bit_for_bit(batch, alpha):
    q, xi = batch
    _assert_layers_match_reference(alpha, q, xi)


@pytest.mark.parametrize("q", [2, 3])
def test_layers_match_per_weight_powers_on_a_large_batch(q):
    # with the batch axis innermost, numpy squares a batch this large by
    # x * x, which differs from its pow in a few percent of the entries
    # (small batches do not show it); the shared table must keep to pow
    rng = np.random.default_rng(40 + q)
    xi = rng.standard_normal((4000, q))
    xi[:50] = 0.0
    _assert_layers_match_reference(2.0 / q, q, xi)


# ---------------------------------------------------------------- partitions


def test_partition_counts_match_oeis():
    # 1, 1, 2, 3, 5, 7, 11, 15, 22 partitions of 0..8
    counts = [len(partitions_of_weight(k, k)) for k in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_partitions_respect_max_parts():
    assert [tuple(p) for p in partitions_of_weight(4, 2)] == [(4,), (3, 1), (2, 2)]
    assert partitions_of_weight(3, 0) == []
    assert [tuple(p) for p in partitions_of_weight(0, 3)] == [()]


def test_partitions_revlex_refines_dominance():
    def dominated(mu, lam):
        acc_l = acc_m = 0
        for i in range(max(len(mu), len(lam))):
            acc_l += lam[i] if i < len(lam) else 0
            acc_m += mu[i] if i < len(mu) else 0
            if acc_m > acc_l:
                return False
        return True

    parts = partitions_of_weight(7, 7)
    assert parts == sorted(parts, reverse=True)
    for i, lam in enumerate(parts):
        for mu in parts[i + 1 :]:
            # anything strictly after lam is never strictly above it
            assert not (dominated(lam, mu) and lam != mu)


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((2, -1))
    with pytest.raises(DomainError):
        Partition((2.5,))
    assert tuple(Partition((3, 2, 0, 0))) == (3, 2)
    assert Partition((3, 2)).weight == 5
    assert Partition((3, 2)).length == 2


def test_partition_conjugate():
    assert tuple(Partition((4, 2, 1)).conjugate()) == (3, 2, 1, 1)
    for lam in partitions_of_weight(6, 6):
        assert lam.conjugate().conjugate() == lam


# ------------------------------------------------------------- pochhammer


def test_gen_pochhammer_single_row_is_rising_factorial():
    # scipy.special.poch oracle
    for mu in (0.7, 2.0, 9.25):
        for k in range(6):
            assert gen_pochhammer(mu, (k,), 2.0) == pytest.approx(
                special.poch(mu, k), rel=1e-13
            )


def test_gen_pochhammer_column_shifts_by_inverse_alpha():
    mu, alpha = 3.5, 2.0
    assert gen_pochhammer(mu, (1, 1), alpha) == pytest.approx(mu * (mu - 1 / alpha))
    assert gen_pochhammer(mu, (2, 1), alpha) == pytest.approx(
        mu * (mu + 1) * (mu - 1 / alpha)
    )
    with pytest.raises(DomainError):
        gen_pochhammer(2.0, (1,), 0.0)
