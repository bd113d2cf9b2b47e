"""The exact ball-density sampler (linalg._ball_points) against independent
laws: the accept/reject and importance oracle of tests/ball_oracle.py, the
corner of a Haar matrix, and the rank-one arcsine law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ball_oracle import rejection_sample
from conebessel.bessel import kappa_mu
from conebessel.hypergroup import _sample_ball_batch
from conebessel.linalg import StructureParams, _ball_points, _ball_variates, _haar_batch
from conebessel.seeds import substream


def _spectrum_features(v):
    """Top eigenvalue and trace of v*v per draw."""
    a = np.linalg.eigvalsh(np.conj(np.swapaxes(v, 1, 2)) @ v)
    return a[:, -1], a.sum(axis=1)


def _exact(params, n, label):
    return _sample_ball_batch(params, [substream(32, label)], n)[0]


@pytest.mark.parametrize("q, d, mu", [(2, 1, 5.0), (2, 1, 3.0), (3, 1, 6.0), (2, 2, 4.5)])
def test_exact_sampler_matches_rejection_oracle(q, d, mu):
    # Gaussian proposals at mu - rho >= 1, box proposals below
    params = StructureParams(q=q, d=d, mu=mu)
    oracle = rejection_sample(params, 4000, substream(32, f"oracle:{q}:{d}:{mu}"))
    exact = _exact(params, 4000, f"exact:{q}:{d}:{mu}")
    for a, b in zip(_spectrum_features(oracle), _spectrum_features(exact)):
        assert stats.ks_2samp(a, b).pvalue > 1e-3


@pytest.mark.parametrize("q, d, p", [(2, 1, 4), (2, 2, 5), (3, 1, 7), (3, 2, 6)])
def test_exact_sampler_is_a_haar_corner_at_half_integer_index(q, d, p):
    # at mu = p d / 2 the density is that of the q x q corner of a Haar
    # p x p matrix; (2, 1, 4) has mu < rho, where the density is unbounded
    params = StructureParams(q=q, d=d, mu=p * d / 2.0)
    corner = _haar_batch(p, d, substream(33, f"haar:{q}:{d}:{p}"), 4000)[:, :q, :q]
    exact = _exact(params, 4000, f"corner:{q}:{d}:{p}")
    for a, b in zip(_spectrum_features(corner), _spectrum_features(exact)):
        assert stats.ks_2samp(a, b).pvalue > 1e-3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    q=st.integers(1, 3),
    d=st.sampled_from((1, 2)),
    excess=st.floats(-0.5, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_draw_lies_inside_the_unit_ball(q, d, excess, seed):
    # excess = mu - rho, down to the unbounded densities below rho
    params = StructureParams(q=q, d=d, mu=d * (q - 0.5) + 1.0 + excess)
    v = _ball_points(params, *_ball_variates(params, np.random.default_rng(seed), 256))
    assert v.shape == (256, q, q) and v.dtype == params.dtype
    assert np.all(np.linalg.norm(v, ord=2, axis=(1, 2)) < 1.0)


def test_draws_do_not_depend_on_the_batch():
    # the arithmetic runs along the sample axis, so a stream's draws keep
    # their bits whatever other streams are stacked with them
    params = StructureParams(q=3, d=2, mu=7.0)
    alone = _sample_ball_batch(params, [substream(34, "bits", 2)], 5)[0]
    stacked = _sample_ball_batch(params, [substream(34, "bits", i) for i in range(4)], 5)
    assert np.array_equal(stacked[2], alone)


@pytest.mark.parametrize("d, mu", [(1, 6.0), (2, 1.3), (1, 2.0**20)])
def test_rank_one_gamma_shape_is_a_float_with_the_array_shape_bits(d, mu):
    # at q = 1 the gamma shape goes to standard_gamma as a float: the same
    # draws and stream position as a one-element shape array
    params = StructureParams(q=1, d=d, mu=mu)
    rng, twin = np.random.default_rng(35), np.random.default_rng(35)
    z, g = _ball_variates(params, rng, 64)
    assert np.array_equal(z, twin.standard_normal((64, d)))
    assert np.array_equal(g, twin.standard_gamma(np.array([mu - d / 2.0]), size=(64, 1)))
    assert rng.random() == twin.random()


def test_rank_one_below_rho_is_the_arcsine_law():
    # q = d = 1 at mu = rho - 1/2: the density (1 - v^2)^(-1/2) / pi on (-1, 1)
    params = StructureParams(q=1, d=1, mu=1.0)
    v = _exact(params, 5000, "arcsine")[:, 0, 0]
    assert stats.kstest(v, lambda x: 0.5 + np.arcsin(x) / math.pi).pvalue > 1e-3
    assert kappa_mu(params) == pytest.approx(math.pi, rel=1e-12)
