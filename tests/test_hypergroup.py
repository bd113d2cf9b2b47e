"""Convolution sampling on the cone and the two walk constructions."""

import math

import numpy as np
import pytest
from scipy import stats

from conebessel.errors import DimensionError, DomainError
from conebessel.hypergroup import (
    RadialLaw,
    _sample_ball_batch,
    convolve_sample,
    walk_batch,
    walk_simulate,
)
from conebessel.linalg import ConeMatrix, StructureParams, psd_sqrt
from conebessel.seeds import substream
from orbit_oracle import orbit_walk_simulate, radial_matrix_sample, radial_part


def _law(q, diags, weights=None):
    atoms = tuple(ConeMatrix(np.diag(d)) for d in diags)
    w = weights if weights is not None else (1.0 / len(atoms),) * len(atoms)
    return RadialLaw(weights=w, atoms=atoms)


def test_radial_law_validation():
    with pytest.raises(DomainError):
        RadialLaw(weights=(0.5, 0.6), atoms=(np.eye(1), 2 * np.eye(1)))
    with pytest.raises(DomainError):
        RadialLaw(weights=(-0.5, 1.5), atoms=(np.eye(1), 2 * np.eye(1)))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            RadialLaw(weights=(bad, 1.0), atoms=(np.eye(1), 2 * np.eye(1)))
    with pytest.raises(DimensionError):
        RadialLaw(weights=(1.0,), atoms=(np.eye(1), np.eye(1)))
    with pytest.raises(DimensionError):
        RadialLaw(weights=(0.5, 0.5), atoms=(np.eye(1), np.eye(2)))
    with pytest.raises(DomainError):
        RadialLaw(weights=(1.0,), atoms=(np.zeros((2, 2)),))
    law = _law(2, [(1.0, 0.5), (0.0, 0.0)])
    assert law.q == 2  # a zero atom is fine when another carries mass


def test_radial_law_sample_index_distribution():
    law = _law(1, [(1.0,), (2.0,)], weights=(0.25, 0.75))
    rng = substream(11, "idx", 0)
    draws = np.array([law.sample_index(rng) for _ in range(4000)])
    assert set(np.unique(draws)) <= {0, 1}
    p = draws.mean()
    assert abs(p - 0.75) <= 5.0 * math.sqrt(0.25 * 0.75 / 4000)


def test_sample_index_is_generator_choice_bit_for_bit():
    # one random() through the normalized cdf: the same index and the same
    # stream position as rng.choice(n, p=weights), a single atom included
    for weights in ((0.25, 0.75), (0.1, 0.2, 0.3, 0.4), (1.0,)):
        law = _law(1, [(float(i + 1),) for i in range(len(weights))], weights=weights)
        ours, theirs = substream(11, "choice", len(weights)), substream(11, "choice", len(weights))
        for _ in range(500):
            assert law.sample_index(ours) == int(theirs.choice(len(weights), p=law.weights))
        assert ours.random() == theirs.random()


def test_zero_is_neutral_and_consumes_no_randomness():
    params = StructureParams(q=2, d=1, mu=4.0)
    r = ConeMatrix(np.diag([1.0, 0.5]))
    zero = ConeMatrix(np.zeros((2, 2)))
    # rng=None would crash if the sampler were touched
    assert convolve_sample(r, zero, params, None) is r
    assert convolve_sample(zero, r, params, None) is r


def test_step_equals_validated_square_root_bit_for_bit():
    # the step skips the Hermitian/PSD checks but must give exactly
    # psd_sqrt(ConeMatrix(m)) for the same ball draw, including the switch
    # to a real array at q=1, d=2
    for q, d in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        params = StructureParams(q=q, d=d, mu=3.0 * q + 4.0)
        r = ConeMatrix(np.diag(np.linspace(1.2, 0.4, q)))
        s = ConeMatrix(np.diag(np.linspace(0.3, 0.9, q)))
        for i in range(5):
            out = convolve_sample(r, s, params, substream(18, "bits", i))
            v = _sample_ball_batch(params, [substream(18, "bits", i)], 1)[0, 0]
            m = r.array @ r.array + s.array @ s.array + s.array @ v @ r.array
            m = m + r.array @ v.conj().T @ s.array
            want = psd_sqrt(ConeMatrix((m + m.conj().T) / 2.0))
            assert out.array.dtype == want.array.dtype
            assert np.array_equal(out.array, want.array)
            assert np.array_equal(out.eigs, want.eigs)


def test_step_validates_raw_arguments_and_refuses_overflow():
    params = StructureParams(q=2, d=1, mu=6.0)
    r = ConeMatrix(np.eye(2))
    with pytest.raises(DomainError):
        convolve_sample(np.diag([1.0, -1.0]), r, params, substream(18, "raw", 0))
    out = convolve_sample(np.eye(2), 2.0 * np.eye(2), params, substream(18, "raw", 1))
    assert isinstance(out, ConeMatrix)
    with np.errstate(over="ignore", invalid="ignore"):
        huge = ConeMatrix(1e200 * np.eye(2))
        with pytest.raises(DomainError, match="finite"):
            convolve_sample(huge, huge, params, substream(18, "raw", 2))


def test_convolution_spectral_norm_triangle_bound():
    params = StructureParams(q=2, d=2, mu=6.0)
    r = ConeMatrix(np.diag([1.2, 0.3]))
    s = ConeMatrix(np.diag([0.8, 0.8]))
    rng = substream(12, "tri", 0)
    for _ in range(60):
        out = convolve_sample(r, s, params, rng)
        assert out.eigs[0] <= r.eigs[0] + s.eigs[0] + 1e-9
        assert out.q == 2


def test_convolution_concentrates_at_large_index():
    # the ball draw shrinks like 1/sqrt(mu), so the result approaches
    # the Pythagorean sum sqrt(r^2 + s^2)
    params = StructureParams(q=2, d=1, mu=5000.0)
    r = ConeMatrix(np.eye(2))
    rng = substream(12, "conc", 0)
    target = math.sqrt(2.0)
    for _ in range(25):
        out = convolve_sample(r, r, params, rng)
        assert np.max(np.abs(out.eigs - target)) < 0.2


def test_second_moment_additivity_of_walk():
    # E tr(S_k^2) = k tr(a^2) exactly: the ball density is symmetric so the
    # cross terms vanish in expectation
    params = StructureParams(q=2, d=1, mu=4.0)
    law = _law(2, [(1.0, 0.5)])
    k, n = 6, 2500
    vals = np.empty(n)
    for i in range(n):
        path = walk_simulate(law, params, k, substream(13, "moment", i))
        vals[i] = float((path[-1].eigs ** 2).sum())
    want = k * 1.25
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - want) <= 5.0 * se


def test_walk_simulate_shape_and_determinism():
    params = StructureParams(q=2, d=1, mu=3.0)
    law = _law(2, [(1.0, 0.5), (0.5, 0.25)])
    p1 = walk_simulate(law, params, 5, substream(14, "walk", 0))
    p2 = walk_simulate(law, params, 5, substream(14, "walk", 0))
    assert len(p1) == 6
    assert p1[0].is_zero()
    assert all(isinstance(s, ConeMatrix) for s in p1)
    for a, b in zip(p1, p2):
        assert np.array_equal(a.array, b.array)
    with pytest.raises(DomainError):
        walk_simulate(law, params, -1, substream(14, "walk", 1))
    with pytest.raises(DimensionError):
        walk_simulate(_law(1, [(1.0,)]), params, 2, substream(14, "walk", 2))
    # a real walk's stacked states cannot hold a complex atom
    complex_law = RadialLaw(weights=(1.0,), atoms=(np.array([[1.0, 0.5j], [-0.5j, 1.0]]),))
    with pytest.raises(DomainError, match="d=2"):
        walk_simulate(complex_law, params, 2, substream(14, "walk", 3))


def test_real_convolution_refuses_a_complex_argument():
    params = StructureParams(q=2, d=1, mu=3.0)
    r = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    for other in (np.eye(2), np.zeros((2, 2))):
        for pair in ((r, other), (other, r)):
            with pytest.raises(DomainError, match="d=2"):
                convolve_sample(*pair, params, substream(14, "field", 0))
    # a complex array with no imaginary part is a real argument
    out = convolve_sample(np.eye(2) + 0j, np.eye(2), params, substream(14, "field", 1))
    assert not np.iscomplexobj(out.array)


def test_orbit_walk_matches_convolution_walk_in_law():
    # p x q partial sums with rotated frames reproduce the mu = p d / 2 walk
    p, q, d, steps = 6, 2, 1, 4
    params = StructureParams(q=q, d=d, mu=p * d / 2.0)
    law = _law(q, [(1.0, 0.6)])
    n = 700
    top_conv = np.empty(n)
    top_orbit = np.empty(n)
    for i in range(n):
        top_conv[i] = walk_simulate(law, params, steps, substream(15, "conv", i))[-1].eigs[0]
        orbit = orbit_walk_simulate(law, p, params, steps, substream(15, "orbit", i))
        assert len(orbit) == steps + 1 and orbit[0].is_zero()
        top_orbit[i] = orbit[-1].eigs[0]
    res = stats.ks_2samp(top_conv, top_orbit, method="asymp")
    assert res.pvalue > 1e-3


def test_radial_matrix_sample_has_prescribed_radial_part():
    params = StructureParams(q=2, d=2, mu=4.0)
    atom = ConeMatrix(np.diag([1.0, 0.4]))
    law = RadialLaw(weights=(1.0,), atoms=(atom,))
    rng = substream(16, "rect", 0)
    for p in (2, 5):
        m = radial_matrix_sample(law, p, params, rng)
        assert m.shape == (p, 2)
        assert np.allclose(radial_part(m).array, atom.array, atol=1e-10)
    with pytest.raises(DimensionError):
        radial_matrix_sample(law, 1, params, rng)


def test_sample_ball_stays_in_ball():
    for mu in (6.0, 4.5):
        params = StructureParams(q=2, d=2, mu=mu)
        v = _sample_ball_batch(params, [substream(17, "ball", i) for i in range(10)], 3)
        assert v.shape == (10, 3, 2, 2) and v.dtype == np.complex128
        assert np.all(np.linalg.norm(v, ord=2, axis=(2, 3)) < 1.0)


def test_sampler_samples_unbounded_density_inside_ball():
    # mu = rho - 1/2 makes the density blow up at the boundary; the draws
    # still lie inside the ball and the convolution still samples
    for q, d in ((1, 1), (2, 2), (3, 2)):
        params = StructureParams(q=q, d=d, mu=d * (q - 0.5) + 0.5)
        v = _sample_ball_batch(params, [substream(17, "ball", i) for i in range(10)], 50)
        assert v.shape == (10, 50, q, q)
        assert np.all(np.linalg.norm(v, ord=2, axis=(2, 3)) < 1.0)
        r = ConeMatrix(np.eye(q))
        out = convolve_sample(r, r, params, substream(17, "ball", 10))
        assert out.eigs[0] <= 2.0 + 1e-12


# ------------------------------------------------------------ batched walks


def test_walk_batch_matches_one_stream_walks_bit_for_bit():
    # zero states and a zero atom pass through, leaving their draws unused,
    # and each replicate reads only its own stream, whatever the others do
    for q, d, mu in ((1, 1, 6.0), (1, 2, 6.0), (2, 2, 8.0), (2, 2, 4.5), (3, 1, 9.0)):
        params = StructureParams(q=q, d=d, mu=mu)
        law = _law(q, [np.linspace(1.0, 0.6, q), np.zeros(q), np.linspace(0.5, 0.7, q)],
                   weights=(0.4, 0.3, 0.3))
        batch = walk_batch(law, params, 7, [substream(20, "batch", r) for r in range(5)])
        assert batch.shape == (5, 8, q, q) and batch.dtype == params.dtype
        for r in range(5):
            alone = walk_simulate(law, params, 7, substream(20, "batch", r))
            for k, point in enumerate(alone):
                got = batch[r, k]
                assert np.array_equal(got, point.array)
                # a real state reads +0.0, never -0.0, in the imaginary parts
                if not np.iscomplexobj(point.array):
                    assert not np.any(np.signbit(np.imag(got)))


def test_walk_batch_on_one_stream_is_successive_walks():
    # each stream draws its atom picks and then its ball variates before the
    # next stream draws, so m walks on [rng] * m are m successive walks on rng
    for q, d in ((1, 1), (1, 2), (2, 2), (3, 1)):
        params = StructureParams(q=q, d=d, mu=3.0 * q + 3.0)
        law = _law(q, [np.linspace(1.0, 0.6, q), np.zeros(q), np.linspace(0.5, 0.7, q)],
                   weights=(0.4, 0.3, 0.3))
        rng = substream(21, f"one-stream:{q}:{d}")
        batch = walk_batch(law, params, 7, [rng] * 4)
        rng = substream(21, f"one-stream:{q}:{d}")
        for r in range(4):
            alone = walk_simulate(law, params, 7, rng)
            for k, point in enumerate(alone):
                assert np.array_equal(batch[r, k], point.array)


# SHA-256 of the seeded walk and ldp CSVs below the config-hash line (which
# carries the stream version).  The walk digests were recorded under stream
# version 2 and hold under version 3; the ldp digest was recorded under
# version 3 (seeds.STREAM_VERSION).  Every byte must stay the same until the
# version changes.
_WALK_DIGESTS = {
    (1, 1, 6.0): "1b1b3b0dbd3a47f66d5de71844b17b9f9ffaa17c125c7c6c08f15d4ac329013e",
    (1, 2, 6.0): "a88d7774f3dcd317bd805929b0e540bb98764f301caf56dbc3154b39a1d2ab7d",
    (2, 1, 8.0): "419373ad431e41819e3563a46f5325c33cd7e7af3ccec7c6beac11b7479c2b3c",
    (2, 2, 8.0): "33409ac94a5604b386871644778107f7e8b958d7677e7dcd2d3c34f2636e3db5",
    (3, 1, 9.0): "338c02875fd7ba093a9eb8cf11dd72e7b1b87dea5aca0695d21d7c95a1eb1140",
    (2, 2, 4.5): "d2c0f3330688aac804b83bc30255fbbb712571bf3b29f57595920d1c595f6870",
    (2, 1, 3.0): "656f06ee27057cacfe2d5d50b2f4b492761fa8b96d568152efdd13c351d21a81",
}
_LDP_DIGEST = "0fbfecd7351d895a3e0a71e0356559c6dcfd604c1604ee423b6162ff7fdc5944"


@pytest.mark.parametrize("q, d, mu", sorted(_WALK_DIGESTS))
def test_walk_csv_matches_pinned_digest(csv_digest, q, d, mu):
    first = ",".join(f"{1.0 - 0.2 * i:g}" for i in range(q))
    last = ",".join(f"{0.5 + 0.1 * i:g}" for i in range(q))
    zero = ",".join(["0"] * q)
    argv = ["walk", "--q", str(q), "--d", str(d), "--mu", repr(mu), "--steps", "6",
            "--replicates", "4", "--atoms", f"{first};{zero};{last}",
            "--weights", "0.4,0.3,0.3", "--seed", "41"]
    assert csv_digest(argv) == _WALK_DIGESTS[(q, d, mu)]


def test_ldp_csv_matches_pinned_digest(csv_digest):
    argv = ["ldp", "--q", "1", "--d", "2", "--atoms", "0.3;1", "--weights", "0.5,0.5",
            "--k-max", "6", "--t-values=-1,1", "--replicates", "30", "--seed", "6"]
    assert csv_digest(argv) == _LDP_DIGEST
