import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import assert_same, paley_frame, random_unit_vector, rng_for
from kdframes import io
from kdframes.cli import build_bounds_report, build_extremality_report, build_kd_report
from kdframes.frames import (
    DensityMatrix,
    Frame,
    coherence_constant,
    complement_etf,
    frame_mixture,
    frame_operator,
    gram_matrix,
    is_equiangular,
    is_tight,
    orthonormal_frame,
    purity,
    random_density_matrix,
    sic_qubit,
)
from kdframes.linalg import haar_unitary, hermitian_eigvals
from reference import Povm, outcome_probabilities, povm_from_frame

seeds = st.integers(0, 2**32 - 1)


class TestFrameValidation:
    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            Frame(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_too_few_vectors(self):
        with pytest.raises(ValueError):
            Frame(np.array([[1.0, 0.0]]))

    def test_shape_properties(self, sic):
        assert (sic.n, sic.d) == (4, 2)


class TestFrameOperator:
    def test_orthonormal_basis_completeness(self):
        assert frame_operator(orthonormal_frame(2)) == pytest.approx(np.eye(2))

    def test_sic_is_twice_identity(self, sic):
        assert frame_operator(sic) == pytest.approx(2.0 * np.eye(2), abs=1e-12)

    def test_extreme_eigenvalues_bound_quadratic_form(self):
        # Independent oracle: the frame condition constants are the extrema
        # of sum_j |<phi_j|psi>|^2 over unit vectors.
        rng = rng_for(20)
        vectors = np.array([random_unit_vector(2, rng) for _ in range(3)])
        frame = Frame(vectors)
        eigenvalues = hermitian_eigvals(frame_operator(frame))
        top, bottom = eigenvalues[0], eigenvalues[-1]
        samples = np.array(
            [
                np.sum(np.abs(vectors.conj() @ random_unit_vector(2, rng)) ** 2)
                for _ in range(5000)
            ]
        )
        assert samples.max() <= top + 1e-9
        assert samples.min() >= bottom - 1e-9
        spread = top - bottom
        assert samples.max() >= top - 0.02 * spread
        assert samples.min() <= bottom + 0.02 * spread


class TestTightness:
    def test_sic_tight(self, sic):
        assert is_tight(sic)

    def test_orthonormal_tight(self):
        assert is_tight(orthonormal_frame(3))

    def test_duplicated_vector_not_tight(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
        assert not is_tight(Frame(vectors))


class TestEquiangularity:
    def test_sic(self, sic):
        assert is_equiangular(sic) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_orthonormal(self):
        assert is_equiangular(orthonormal_frame(3)) == pytest.approx(0.0, abs=1e-14)

    def test_unequal_angles(self):
        theta = np.pi / 5
        vectors = np.array(
            [
                [1.0, 0.0],
                [np.cos(theta), np.sin(theta)],
                [np.cos(2.5 * theta), np.sin(2.5 * theta)],
            ],
            dtype=complex,
        )
        assert is_equiangular(Frame(vectors)) is None

    def test_trine(self, trine):
        assert is_equiangular(trine) == pytest.approx(0.25, abs=1e-12)
        assert is_tight(trine)


class TestCoherenceConstant:
    def test_sic_value(self):
        assert coherence_constant(4, 2) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_orthonormal_case(self, d):
        assert coherence_constant(d, d) == 0.0

    @pytest.mark.parametrize("d", range(2, 6))
    def test_maximal_etf(self, d):
        assert coherence_constant(d * d, d) == pytest.approx(1.0 / (d + 1))

    def test_domain(self):
        with pytest.raises(ValueError):
            coherence_constant(2, 3)


class TestPovm:
    def test_sic_elements(self, sic):
        povm = povm_from_frame(sic)
        expected = 0.5 * np.einsum("ja,jb->jab", sic.vectors, sic.vectors.conj())
        assert povm.elements == pytest.approx(expected)

    def test_orthonormal_gives_projectors(self):
        povm = povm_from_frame(orthonormal_frame(3))
        assert povm.elements == pytest.approx(
            np.stack([np.diag(row) for row in np.eye(3)]).astype(complex)
        )

    def test_complement_povm_valid(self, sic):
        # Povm construction re-validates PSD and completeness invariants.
        povm_from_frame(complement_etf(sic))

    def test_non_tight_rejected(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            povm_from_frame(Frame(vectors))

    def test_povm_invariants_enforced(self):
        with pytest.raises(ValueError):
            Povm(np.stack([np.eye(2), np.eye(2)]).astype(complex))


class TestOutcomeProbabilities:
    def test_sic_maximally_mixed_uniform(self, sic):
        rho = DensityMatrix(np.eye(2) / 2)
        probs = outcome_probabilities(povm_from_frame(sic), rho)
        assert probs == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_sic_pure_frame_state(self, sic):
        ket = sic.vectors[0]
        rho = DensityMatrix(np.outer(ket, ket.conj()))
        probs = outcome_probabilities(povm_from_frame(sic), rho)
        assert probs == pytest.approx([0.5, 1 / 6, 1 / 6, 1 / 6], abs=1e-12)

    def test_projective_one_hot(self):
        basis = orthonormal_frame(3)
        rho = DensityMatrix(np.diag([0.0, 1.0, 0.0]).astype(complex))
        probs = outcome_probabilities(povm_from_frame(basis), rho)
        assert probs == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)

    def test_dimension_mismatch(self, sic):
        rho = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(ValueError):
            outcome_probabilities(povm_from_frame(sic), rho)

    @settings(deadline=None)
    @given(seed=seeds)
    def test_probabilities_sum_to_one(self, seed, sic):
        rho = random_density_matrix(2, rng_for(seed))
        probs = outcome_probabilities(povm_from_frame(sic), rho)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert probs.min() >= -1e-12


class TestSicQubit:
    def test_certified(self, sic):
        assert is_tight(sic)
        assert is_equiangular(sic) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert frame_operator(sic) == pytest.approx(2.0 * np.eye(2), abs=1e-12)

    def test_bloch_tetrahedron(self, sic):
        pauli = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        bloch = np.array(
            [
                [np.vdot(ket, sigma @ ket).real for sigma in pauli]
                for ket in sic.vectors
            ]
        )
        dots = bloch @ bloch.T
        off = dots[~np.eye(4, dtype=bool)]
        assert off == pytest.approx(np.full(12, -1.0 / 3.0), abs=1e-12)


def all_reports(frame: Frame, spec: str) -> list[dict]:
    rho = io.resolve_state(spec, frame)
    return [
        build_kd_report(frame, rho, spec),
        build_bounds_report(frame, rho, spec, [0.5, 1.0, 2.0, 5.0, np.inf]),
        build_extremality_report(frame, rho, spec, 20, 0, [0.5, 1.0, 2.0, 5.0]),
    ]


class TestComplement:
    def test_sic_complement_parameters(self, sic):
        comp = complement_etf(sic)
        assert (comp.n, comp.d) == (4, 2)
        assert is_tight(comp)
        assert is_equiangular(comp) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_double_complement_round_trip(self, sic):
        comp = complement_etf(complement_etf(sic))
        assert (comp.n, comp.d) == (sic.n, sic.d)

    def test_trine_complement_is_line_frame(self, trine):
        comp = complement_etf(trine)
        assert (comp.n, comp.d) == (3, 1)
        assert is_equiangular(comp) == pytest.approx(1.0, abs=1e-10)

    def test_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            complement_etf(orthonormal_frame(2))

    def test_measured_coherence_matches_formula(self, sic):
        comp = complement_etf(sic)
        assert is_equiangular(comp) == pytest.approx(
            coherence_constant(comp.n, comp.d), abs=1e-10
        )

    @pytest.mark.parametrize("p", [None, 7, 19, 43], ids=["sic2", "paley7", "paley19", "paley43"])
    def test_fixed_up_to_a_unitary(self, p):
        """complement_etf may return any orthonormal basis of the unit eigenspace
        of I - (d/n) G, so only unitary-invariant properties are its contract."""
        frame = sic_qubit() if p is None else paley_frame(p)
        n, d = frame.n, frame.d
        k = n - d
        comp = complement_etf(frame)
        assert (comp.n, comp.d) == (n, k)
        assert is_tight(comp)
        assert is_equiangular(comp) == pytest.approx(coherence_constant(n, k), abs=1e-10)
        target = (n / k) * np.abs(np.eye(n) - (d / n) * gram_matrix(frame))
        assert np.abs(np.abs(gram_matrix(comp)) - target).max() <= 1e-10
        rotated = Frame(comp.vectors @ haar_unitary(k, 5).T)
        for spec in ("maximally-mixed", "frame-state:0"):
            for got, want in zip(all_reports(rotated, spec), all_reports(comp, spec)):
                assert_same(got, want, want["command"])


class TestMixturesAndPurity:
    def test_uniform_mixture_is_maximally_mixed(self, sic):
        rho = frame_mixture(sic, np.full(4, 0.25))
        assert rho.matrix == pytest.approx(np.eye(2) / 2, abs=1e-12)

    def test_one_hot_mixture_is_pure(self, sic):
        rho = frame_mixture(sic, [0.0, 1.0, 0.0, 0.0])
        ket = sic.vectors[1]
        assert rho.matrix == pytest.approx(np.outer(ket, ket.conj()), abs=1e-12)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_two_state_mixture_purity(self, sic):
        # Direct oracle: tr(rho^2) for rho = (P0 + P1)/2 with tr(P0 P1) = 1/3
        # is (1 + 1/3 + 1/3 + 1)/4 = 2/3.
        rho = frame_mixture(sic, [0.5, 0.5, 0.0, 0.0])
        assert purity(rho) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_bad_weights_rejected(self, sic):
        with pytest.raises(ValueError):
            frame_mixture(sic, [0.5, 0.5, 0.5, -0.5])
        with pytest.raises(ValueError):
            frame_mixture(sic, [0.5, 0.5])
        # NaN compares False both ways, so it must not slip past either test
        with pytest.raises(ValueError, match="weights must be non-negative and sum to 1"):
            frame_mixture(sic, [np.nan, 0.0, 0.0, 1.0])

    def test_purity_examples(self):
        assert purity(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.25)
        assert purity(DensityMatrix(np.diag([0.75, 0.25]).astype(complex))) == pytest.approx(
            5.0 / 8.0
        )


class TestRandomStates:
    @settings(deadline=None, max_examples=30)
    @given(seed=seeds, d=st.integers(1, 5))
    def test_valid_density_matrix(self, seed, d):
        rho = random_density_matrix(d, rng_for(seed))
        assert 1.0 / d - 1e-10 <= purity(rho) <= 1.0 + 1e-10

    def test_pure_state_purity(self):
        assert purity(random_density_matrix(4, rng_for(8), rank=1)) == pytest.approx(1.0, abs=1e-10)

    def test_seed_determinism(self):
        a = random_density_matrix(3, 123)
        b = random_density_matrix(3, 123)
        assert np.array_equal(a.matrix, b.matrix)


def test_tight_frame_povm_resolution_of_identity(catalog):
    for _, frame in catalog:
        total = povm_from_frame(frame).elements.sum(axis=0)
        assert total == pytest.approx(np.eye(frame.d), abs=1e-10)


def test_catalog_coherence_matches_formula(catalog):
    for _, frame in catalog:
        measured = is_equiangular(frame)
        assert measured is not None
        assert measured == pytest.approx(coherence_constant(frame.n, frame.d), abs=1e-10)
