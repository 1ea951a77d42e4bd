import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_complex_matrix, random_hermitian, rng_for
from kdframes.channels import Unraveling
from kdframes.frames import DensityMatrix, Frame
from kdframes.linalg import (
    as_complex_matrix,
    haar_unitary,
    hermitian_eigvals,
    require_hermitian,
)
from reference import Povm

seeds = st.integers(0, 2**32 - 1)


class TestHermitianEigvals:
    def test_diagonal_sorted_non_increasing(self):
        assert hermitian_eigvals(np.diag([1.0, 2.0]).astype(complex)) == pytest.approx([2.0, 1.0])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            hermitian_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigvals(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(1, 8))
    def test_spectrum_contract(self, seed, n):
        m = random_hermitian(n, rng_for(seed))
        values = hermitian_eigvals(m)
        assert np.all(np.diff(values) <= 1e-12)
        assert np.sum(values) == pytest.approx(np.trace(m).real, abs=1e-10)
        # eigenvalues match singular values in absolute value as multisets
        assert np.sort(np.abs(values)) == pytest.approx(
            np.sort(np.linalg.svd(m, compute_uv=False)), abs=1e-10
        )

    @settings(deadline=None)
    @given(seed=seeds)
    def test_gram_eigenvalues_are_squared_singular_values(self, seed):
        x = random_complex_matrix(3, 4, rng_for(seed))
        gram_spec = hermitian_eigvals(x.conj().T @ x)
        expected = np.sqrt(np.clip(gram_spec, 0.0, None))[:3]
        got = np.linalg.svd(x, compute_uv=False)
        assert got == pytest.approx(expected[: got.size], abs=1e-10)


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(1, 8))
    def test_unitarity(self, seed, n):
        u = haar_unitary(n, seed)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10

    def test_seed_determinism(self):
        assert np.array_equal(haar_unitary(5, 42), haar_unitary(5, 42))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            haar_unitary(0, 1)


def one_at_a_time_haar(n: int, gen: np.random.Generator) -> np.ndarray:
    """The single-matrix draw written out: two (n, n) normal calls, one QR, one phase fix."""
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


class TestHaarStack:
    @pytest.mark.parametrize("n", [1, 2, 19, 43])
    @pytest.mark.parametrize("k", [1, 5])
    def test_stack_is_bit_identical_to_single_draws(self, n, k):
        stack = haar_unitary(n, [np.random.default_rng([7, i]) for i in range(k)])
        assert stack.shape == (k, n, n)
        for i in range(k):
            assert np.array_equal(stack[i], haar_unitary(n, np.random.default_rng([7, i])))
            assert np.array_equal(stack[i], one_at_a_time_haar(n, np.random.default_rng([7, i])))

    @pytest.mark.parametrize("n", [1, 19])
    def test_list_of_ints_is_one_seed(self, n):
        u = haar_unitary(n, [7, 3])
        assert u.shape == (n, n)
        assert np.array_equal(u, one_at_a_time_haar(n, np.random.default_rng([7, 3])))

    def test_generator_advances_as_two_single_calls(self):
        stacked, single = np.random.default_rng(9), np.random.default_rng(9)
        haar_unitary(4, [stacked])
        one_at_a_time_haar(4, single)
        assert stacked.standard_normal() == single.standard_normal()

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError, match="at least one Generator"):
            haar_unitary(3, [])


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
