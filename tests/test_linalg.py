"""Matrix primitives: construction guards, square roots, Haar sampling."""

import numpy as np
import pytest

from conebessel.errors import DimensionError, DomainError
from conebessel.linalg import (
    ConeMatrix,
    HermitianMatrix,
    StructureParams,
    _haar_batch,
    _psd_sqrt_stack,
    _real_if_exact,
    psd_sqrt,
)


def test_structure_params_derived_quantities():
    p = StructureParams(q=1, d=1, mu=2.0)
    assert p.rho == 1.5
    assert p.alpha == 2.0
    p = StructureParams(q=2, d=2, mu=6.0)
    assert p.rho == 4.0
    assert p.alpha == 1.0
    assert p.dtype == np.complex128
    assert p.with_mu(7.0).mu == 7.0


def test_structure_params_rejects_bad_inputs():
    with pytest.raises(DomainError):
        StructureParams(q=0, d=1, mu=2.0)
    with pytest.raises(DomainError):
        StructureParams(q=1, d=3, mu=2.0)
    with pytest.raises(DomainError, match="quaternionic"):
        StructureParams(q=1, d=4, mu=9.0)
    # the index must exceed rho - 1
    with pytest.raises(DomainError):
        StructureParams(q=1, d=1, mu=0.5)
    StructureParams(q=1, d=1, mu=0.5 + 1e-9)  # just above the wall is fine
    with pytest.raises(DomainError):
        StructureParams(q=2, d=2, mu=float("nan"))


def test_hermitian_matrix_stores_hermitian_part():
    h = HermitianMatrix(np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]]))
    assert np.allclose(h.array, h.array.T)
    assert h.q == 2
    w = h.eigenvalues()
    assert w[0] >= w[1]  # descending


def test_hermitian_matrix_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        HermitianMatrix(np.ones((2, 3)))
    for empty in (np.zeros((0, 0)), [[]]):
        with pytest.raises(DimensionError):
            HermitianMatrix(empty)
        with pytest.raises(DimensionError):
            ConeMatrix(empty)
    with pytest.raises(DomainError):
        HermitianMatrix(np.array([[1.0, 5.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        HermitianMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_hermitian_check_is_scaled_for_huge_entries():
    # both norms overflow past about 1e154; the check divides by the
    # largest entry first, so a skew part still registers
    with pytest.raises(DomainError, match="not Hermitian"):
        HermitianMatrix([[1e200, 5e199], [0.0, 1e200]])
    with pytest.raises(DomainError, match="not Hermitian"):
        HermitianMatrix([[1e300, 1e300j], [1e300j, 1e300]])
    big = HermitianMatrix([[1e200, 5e199], [5e199, 1e200]])
    assert np.array_equal(big.array, np.array([[1e200, 5e199], [5e199, 1e200]]))
    # within tolerance: still accepted, and the stored array is the exact
    # Hermitian part of the input, as before
    for a in (np.array([[2.0, 1.0 + 1e-14], [1.0, 3.0]]),
              np.array([[1.0, 0.5 - 2e-13j], [0.5 + 1e-13j, 2.0]]),
              np.array([[1e-300, 0.0], [1e-310, 0.0]]),
              np.zeros((2, 2))):
        assert np.array_equal(HermitianMatrix(a).array, _real_if_exact((a + a.conj().T) / 2.0))


def test_hermitian_complex_with_real_spectrum_demotes_to_real():
    h = HermitianMatrix(np.array([[2.0 + 0.0j, 0.0], [0.0, 1.0]]))
    assert not np.iscomplexobj(h.array)


def test_cone_matrix_clamps_tiny_negative_eigenvalues():
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    a = (v * np.array([1.0, -1e-13])) @ v.T
    c = ConeMatrix(a)
    assert np.all(c.eigs >= 0.0)
    assert c.eigs[0] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        ConeMatrix(np.diag([1.0, -0.5]))
    assert ConeMatrix(np.zeros((2, 2))).is_zero()
    assert not c.is_zero()


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((3, 3))
    a = g @ g.T
    s = psd_sqrt(a)
    assert np.allclose(s.array @ s.array, a, atol=1e-10)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])).array, np.diag([2.0, 3.0]))


def test_stacked_square_root_matches_one_matrix_path():
    # one stack mixing complex matrices and complex-typed real ones: each
    # goes to the LAPACK routine of its own kind and gets the bits of
    # psd_sqrt(ConeMatrix(m)), and a real root reads +0.0 imaginary parts
    rng = np.random.default_rng(7)
    for q in (1, 2, 3):
        stack = []
        for _ in range(3):
            g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            h = rng.standard_normal((q, q))
            stack += [g @ g.conj().T, (h @ h.T).astype(complex)]
        stack = np.stack([(m + m.conj().T) / 2.0 for m in stack])
        roots = _psd_sqrt_stack(stack)
        assert roots.shape == stack.shape and roots.dtype == stack.dtype
        for m, got in zip(stack, roots):
            want = psd_sqrt(ConeMatrix(m))
            assert np.array_equal(got, want.array)
            if not np.iscomplexobj(want.array):
                assert not np.any(np.signbit(got.imag))


@pytest.mark.parametrize("imag", [1.0, 0.0], ids=["no-real", "no-complex"])
def test_stacked_square_root_of_one_kind_makes_one_eigh(monkeypatch, imag):
    # a complex stack whose matrices are all of one kind makes no eigh call
    # on the empty other kind, and keeps the one-matrix path's bits
    import conebessel.linalg as linalg

    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 2, 2)) + 1j * imag * rng.standard_normal((4, 2, 2))
    stack = g @ g.conj().swapaxes(1, 2)
    stack = (stack + stack.conj().swapaxes(1, 2)) / 2.0
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(linalg.np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    roots = _psd_sqrt_stack(stack)
    monkeypatch.undo()
    assert calls == [(4, 2, 2)]
    for m, got in zip(stack, roots):
        assert np.array_equal(got, psd_sqrt(ConeMatrix(m)).array)


@pytest.mark.parametrize("d", (1, 2))
def test_haar_unitary_is_unitary(d):
    rng = np.random.default_rng(4)
    u = _haar_batch(4, d, rng, 3)
    assert u.shape == (3, 4, 4)
    for m in u:
        assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-12)
    assert np.iscomplexobj(u) == (d == 2)


def test_haar_scalar_real_case_is_a_sign():
    rng = np.random.default_rng(5)
    vals = set(_haar_batch(1, 1, rng, 40)[:, 0, 0].tolist())
    assert vals == {-1.0, 1.0}


def test_haar_first_entry_moment():
    # E |u_00|^2 = 1/p for Haar on either group
    rng = np.random.default_rng(6)
    n, p = 4000, 3
    vals = np.abs(_haar_batch(p, 2, rng, n)[:, 0, 0]) ** 2
    assert vals.mean() == pytest.approx(1.0 / p, abs=5 * vals.std() / np.sqrt(n))
