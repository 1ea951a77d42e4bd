import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_complex_matrix, random_hermitian, rng_for
from kdframes.channels import Unraveling, principal_kraus
from kdframes.frames import DensityMatrix, Frame, Povm
from kdframes.linalg import (
    as_complex_matrix,
    haar_unitary,
    hermitian_eig,
    hs_inner,
    require_hermitian,
    schatten_norm,
    singular_values,
)

seeds = st.integers(0, 2**32 - 1)


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0 + 0.0j)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2), np.eye(3))

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            hs_inner(bad, bad)

    def test_sic_kraus_overlap(self, sic):
        # <A_0 sqrt(rho), A_1 sqrt(rho)> for the pure frame state rho equals
        # the (0, 1) Gram entry 1/6; sqrt(rho) = rho for a pure state.
        kraus = principal_kraus(sic).kraus
        ket = sic.vectors[0]
        sqrt_rho = np.outer(ket, ket.conj())
        value = hs_inner(kraus[0] @ sqrt_rho, kraus[1] @ sqrt_rho)
        assert value == pytest.approx(1.0 / 6.0, abs=1e-12)

    @settings(deadline=None)
    @given(seed=seeds, rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_self_inner_is_frobenius_squared(self, seed, rows, cols):
        x = random_complex_matrix(rows, cols, rng_for(seed))
        value = hs_inner(x, x)
        assert abs(value.imag) <= 1e-12
        assert value.real >= 0.0
        assert value.real == pytest.approx(schatten_norm(x, 2) ** 2, rel=1e-10)


class TestSchattenNorm:
    def test_identity_frobenius(self):
        assert schatten_norm(np.eye(2), 2) == pytest.approx(np.sqrt(2.0))

    def test_density_matrix_trace_norm(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert schatten_norm(rho.matrix, 1) == pytest.approx(1.0)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(1, 6), q=st.floats(1.0, 12.0))
    def test_matches_singular_value_power_sum(self, seed, n, q):
        x = random_complex_matrix(n, n, rng_for(seed))
        s = singular_values(x)
        assert schatten_norm(x, q) == pytest.approx(np.sum(s**q) ** (1 / q), rel=1e-10)

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(2, 6))
    def test_spectral_norm_is_largest_singular_value(self, seed, n):
        x = random_complex_matrix(n, n, rng_for(seed))
        assert schatten_norm(x, np.inf) == pytest.approx(singular_values(x)[0])


class TestHermitianEig:
    def test_diagonal_sorted_non_increasing(self):
        spec = hermitian_eig(np.diag([1.0, 2.0]).astype(complex))
        assert spec.eigenvalues == pytest.approx([2.0, 1.0])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_residual(self):
        m = random_hermitian(5, rng_for(11))
        spec = hermitian_eig(m)
        rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
        residual = schatten_norm(rebuilt - m, 2) / schatten_norm(m, 2)
        assert residual <= 1e-10

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(1, 8))
    def test_spectrum_contract(self, seed, n):
        m = random_hermitian(n, rng_for(seed))
        spec = hermitian_eig(m)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        assert np.sum(spec.eigenvalues) == pytest.approx(np.trace(m).real, abs=1e-10)
        # columns diagonalize m
        diag = spec.eigenvectors.conj().T @ m @ spec.eigenvectors
        off = diag - np.diag(np.diagonal(diag))
        assert schatten_norm(off, 2) <= 1e-10 * max(schatten_norm(m, 2), 1.0)
        # eigenvalues match singular values in absolute value as multisets
        assert np.sort(np.abs(spec.eigenvalues)) == pytest.approx(
            np.sort(singular_values(m)), abs=1e-10
        )

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(1, 6))
    def test_phase_convention(self, seed, n):
        spec = hermitian_eig(random_hermitian(n, rng_for(seed)))
        for k in range(n):
            pivot = spec.eigenvectors[np.abs(spec.eigenvectors[:, k]).argmax(), k]
            assert pivot.real > 0.0
            assert abs(pivot.imag) <= 1e-10

    def test_deterministic(self):
        m = random_hermitian(4, rng_for(3))
        first = hermitian_eig(m)
        second = hermitian_eig(m)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)


class TestSingularValues:
    def test_identity(self):
        assert singular_values(np.eye(3)) == pytest.approx([1.0, 1.0, 1.0])

    def test_moduli_of_diagonal(self):
        assert singular_values(np.diag([3.0, -4.0])) == pytest.approx([4.0, 3.0])

    @settings(deadline=None)
    @given(seed=seeds)
    def test_squares_are_gram_eigenvalues(self, seed):
        x = random_complex_matrix(3, 4, rng_for(seed))
        gram_spec = hermitian_eig(x.conj().T @ x).eigenvalues
        expected = np.sqrt(np.clip(gram_spec, 0.0, None))[:3]
        got = singular_values(x)
        assert got == pytest.approx(expected[: got.size], abs=1e-10)


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(1, 8))
    def test_unitarity(self, seed, n):
        u = haar_unitary(n, seed)
        assert schatten_norm(u.conj().T @ u - np.eye(n), 2) <= 1e-10

    def test_seed_determinism(self):
        assert np.array_equal(haar_unitary(5, 42), haar_unitary(5, 42))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            haar_unitary(0, 1)


def test_require_hermitian_tolerance():
    nearly = np.array([[1.0, 1e-13j], [0.0, 1.0]])
    require_hermitian(nearly)
    with pytest.raises(ValueError):
        require_hermitian(np.array([[1.0, 1e-6j], [0.0, 1.0]]))


def with_first_entry(a: np.ndarray, value: complex) -> np.ndarray:
    bad = a.copy()
    bad.flat[0] = value
    return bad


PROJECTORS = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
# Each shared input check with an input it accepts.
CHECKED = {
    "as_complex_matrix": (as_complex_matrix, np.eye(2, dtype=complex)),
    "Frame": (Frame, np.eye(2, dtype=complex)),
    "DensityMatrix": (DensityMatrix, np.eye(2, dtype=complex) / 2),
    "Povm": (Povm, PROJECTORS),
    "Unraveling": (Unraveling, PROJECTORS),
}
# Complete, but neither effect is Hermitian.
SKEW_EFFECTS = np.array([[[1.0, 0.1], [0.0, 0.0]], [[0.0, -0.1], [0.0, 1.0]]], dtype=complex)
# Hermitian and complete, but one effect has eigenvalue -0.5.
NEGATIVE_EFFECT = np.array([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], dtype=complex)
INCOMPLETE = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])], dtype=complex)
BAD_INPUTS = [
    pytest.param(name, with_first_entry(valid, value), "non-finite", id=f"{name}-{kind}")
    for name, (_, valid) in CHECKED.items()
    for kind, value in (("nan-real", complex(np.nan, 0.0)), ("inf-imag", complex(0.0, np.inf)))
] + [
    pytest.param("DensityMatrix", np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian",
                 id="DensityMatrix-non-hermitian"),
    pytest.param("DensityMatrix", np.diag([1.5, -0.5]), "must be PSD", id="DensityMatrix-non-psd"),
    pytest.param("Povm", SKEW_EFFECTS, "effects must be Hermitian", id="Povm-non-hermitian"),
    pytest.param("Povm", NEGATIVE_EFFECT, "effects must be PSD", id="Povm-non-psd"),
    pytest.param("Povm", INCOMPLETE, "must be the identity", id="Povm-incomplete"),
    pytest.param("Unraveling", INCOMPLETE, "must be the identity", id="Unraveling-incomplete"),
]


@pytest.mark.parametrize("name, bad, message", BAD_INPUTS)
def test_shared_input_checks_reject(name, bad, message):
    check, valid = CHECKED[name]
    check(valid)
    with pytest.raises(ValueError, match=message):
        check(bad)
