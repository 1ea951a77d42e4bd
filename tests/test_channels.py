import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import operator_sum, paley_frame, rng_for
from kdframes.channels import (
    Unraveling,
    frame_gram,
    mixed_probabilities,
    principal_kraus,
    unraveling_gram,
)
from kdframes.frames import (
    DensityMatrix,
    Frame,
    complement_etf,
    orthonormal_frame,
    random_density_matrix,
)
from kdframes.linalg import haar_unitary, hermitian_eigvals
from reference import (
    Povm,
    dout,
    kd_matrix,
    outcome_probabilities,
    povm_from_frame,
    transform_unraveling,
    unraveling_probabilities,
)

seeds = st.integers(0, 2**32 - 1)

S3 = 1.0 / np.sqrt(3.0)
# Gram matrix of the tetrahedron's principal unraveling at the first pure
# frame state: diagonal (1/2, 1/6, 1/6, 1/6), first row/column 1/6, the
# rest of modulus 1/(6 sqrt(3)).
SIC_PURE_GRAM = (
    np.array(
        [
            [3.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1j * S3, -1j * S3],
            [1.0, -1j * S3, 1.0, 1j * S3],
            [1.0, 1j * S3, -1j * S3, 1.0],
        ],
        dtype=complex,
    )
    / 6.0
)


def pure_frame_state(frame: Frame, j: int) -> DensityMatrix:
    ket = frame.vectors[j]
    return DensityMatrix(np.outer(ket, ket.conj()))


def extremal(u: Unraveling, rho: DensityMatrix) -> Unraveling:
    """Re-unraveling of u by the unitary that diagonalizes its Gram matrix at rho,
    outcomes ordered by non-increasing probability."""
    _, vectors = np.linalg.eigh(unraveling_gram(u, rho))
    return transform_unraveling(u, vectors[:, ::-1])


class TestUnraveling:
    def test_trace_preservation_enforced(self):
        with pytest.raises(ValueError):
            Unraveling(np.stack([np.eye(2), np.eye(2)]).astype(complex))

    def test_identity_channel(self):
        u = Unraveling(np.eye(2)[None, :, :].astype(complex))
        assert (u.m, dout(u), u.din) == (1, 2, 2)


class TestPrincipalKraus:
    def test_sic_operators(self, sic):
        kraus = principal_kraus(sic).kraus
        expected = np.sqrt(0.5) * np.einsum("ja,jb->jab", sic.vectors, sic.vectors.conj())
        assert kraus == pytest.approx(expected)

    def test_squares_are_povm_effects(self, sic):
        kraus = principal_kraus(sic).kraus
        effects = povm_from_frame(sic).elements
        squares = np.einsum("jab,jbc->jac", kraus, kraus)
        assert squares == pytest.approx(effects, abs=1e-12)

    def test_trace_preserving_tightly(self, sic):
        kraus = principal_kraus(sic).kraus
        total = np.einsum("mia,mib->ab", kraus.conj(), kraus)
        assert total == pytest.approx(np.eye(2), abs=1e-12)

    def test_orthonormal_gives_dephasing(self):
        basis = orthonormal_frame(2)
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        out = operator_sum(principal_kraus(basis).kraus, rho.matrix)
        assert out == pytest.approx(np.diag([0.5, 0.5]).astype(complex), abs=1e-12)

    def test_non_tight_rejected(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            principal_kraus(Frame(vectors))


class TestPrincipalChannel:
    @settings(deadline=None, max_examples=25)
    @given(seed=seeds)
    def test_sic_channel_output_form(self, seed, sic):
        # The channel rebuilds the state from outcome probabilities:
        # sum_j p_j |phi_j><phi_j|.
        u = principal_kraus(sic)
        rho = random_density_matrix(2, rng_for(seed))
        probs = outcome_probabilities(povm_from_frame(sic), rho)
        expected = np.einsum("j,ja,jb->ab", probs, sic.vectors, sic.vectors.conj())
        assert operator_sum(u.kraus, rho.matrix) == pytest.approx(expected, abs=1e-12)

    def test_sic_fixes_maximally_mixed(self, sic):
        rho = DensityMatrix(np.eye(2) / 2)
        out = operator_sum(principal_kraus(sic).kraus, rho.matrix)
        assert out == pytest.approx(rho.matrix, abs=1e-12)


class TestGram:
    def test_sic_maximally_mixed(self, sic):
        gram = unraveling_gram(principal_kraus(sic), DensityMatrix(np.eye(2) / 2))
        expected = (np.eye(4) * (1 - 1 / 3) + np.full((4, 4), 1 / 3)) / 4
        assert gram == pytest.approx(expected, abs=1e-12)

    def test_sic_pure_frame_state_matches_worked_example(self, sic):
        gram = unraveling_gram(principal_kraus(sic), pure_frame_state(sic, 0))
        assert gram == pytest.approx(SIC_PURE_GRAM, abs=1e-12)

    def test_single_kraus(self):
        u = Unraveling(np.eye(3)[None, :, :].astype(complex))
        gram = unraveling_gram(u, DensityMatrix(np.eye(3) / 3))
        assert gram == pytest.approx(np.array([[1.0]]), abs=1e-12)

    @settings(deadline=None, max_examples=20)
    @given(seed=seeds)
    def test_entries_are_overlaps_of_kraus_sqrt_rho(self, seed, sic):
        # Gram view: entry (i, j) is <A_i sqrt(rho), A_j sqrt(rho)> in the
        # Hilbert-Schmidt product; sqrt(rho) from the eigendecomposition
        # with rounded-negative eigenvalues clamped at zero.
        rho = random_density_matrix(2, rng_for(seed))
        values, vectors = np.linalg.eigh(rho.matrix)
        sqrt_rho = vectors @ np.diag(np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
        kraus = principal_kraus(sic).kraus
        gram = unraveling_gram(principal_kraus(sic), rho)
        for i in range(4):
            for j in range(4):
                overlap = np.vdot(kraus[i] @ sqrt_rho, kraus[j] @ sqrt_rho)
                assert gram[i, j] == pytest.approx(overlap, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_psd_unit_trace(self, seed, sic):
        rng = rng_for(seed)
        u = transform_unraveling(principal_kraus(sic), haar_unitary(4, rng))
        rho = random_density_matrix(2, rng)
        gram = unraveling_gram(u, rho)
        assert np.abs(gram - gram.conj().T).max() <= 1e-12
        assert np.trace(gram).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(gram)[0] >= -1e-10

    def test_zero_padding_gives_zero_rows(self, sic):
        u = principal_kraus(sic)
        padded = transform_unraveling(u, np.eye(6))
        gram = unraveling_gram(padded, DensityMatrix(np.eye(2) / 2))
        assert np.abs(gram[4:, :]).max() <= 1e-15
        assert np.abs(gram[:, 4:]).max() <= 1e-15


class TestTransform:
    def test_identity_mixing_is_noop(self, sic):
        u = principal_kraus(sic)
        assert transform_unraveling(u, np.eye(4)).kraus == pytest.approx(u.kraus)

    def test_non_unitary_rejected(self, sic):
        with pytest.raises(ValueError):
            transform_unraveling(principal_kraus(sic), np.ones((4, 4)))

    def test_too_small_mixing_rejected(self, sic):
        with pytest.raises(ValueError):
            transform_unraveling(principal_kraus(sic), np.eye(3))

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds)
    def test_channel_unchanged(self, seed, sic):
        rng = rng_for(seed)
        u = principal_kraus(sic)
        mixed = transform_unraveling(u, haar_unitary(4, rng))
        for _ in range(3):
            rho = random_density_matrix(2, rng)
            assert operator_sum(mixed.kraus, rho.matrix) == pytest.approx(
                operator_sum(u.kraus, rho.matrix), abs=1e-10
            )

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds)
    def test_gram_spectrum_invariant(self, seed, sic):
        rng = rng_for(seed)
        u = principal_kraus(sic)
        rho = random_density_matrix(2, rng)
        before = hermitian_eigvals(unraveling_gram(u, rho))
        # A larger mixing matrix also exercises the zero-padding path; the
        # nonzero spectrum must survive.
        size = int(rng.integers(4, 7))
        mixed = transform_unraveling(u, haar_unitary(size, rng))
        after = hermitian_eigvals(unraveling_gram(mixed, rho))
        assert after[:4] == pytest.approx(before, abs=1e-10)
        assert np.abs(after[4:]).max(initial=0.0) <= 1e-10


class TestExtremal:
    def test_already_diagonal(self):
        basis = orthonormal_frame(3)
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        probs = unraveling_probabilities(extremal(principal_kraus(basis), rho), rho)
        assert probs == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)

    def test_sic_pure_frame_state(self, sic):
        rho = pure_frame_state(sic, 0)
        probs = unraveling_probabilities(extremal(principal_kraus(sic), rho), rho)
        assert probs == pytest.approx([2 / 3, 1 / 3, 0.0, 0.0], abs=1e-10)

    def test_sic_maximally_mixed(self, sic):
        rho = DensityMatrix(np.eye(2) / 2)
        probs = unraveling_probabilities(extremal(principal_kraus(sic), rho), rho)
        assert probs == pytest.approx([0.5, 1 / 6, 1 / 6, 1 / 6], abs=1e-10)

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds)
    def test_output_gram_is_diagonal(self, seed, sic):
        u = principal_kraus(sic)
        rho = random_density_matrix(2, rng_for(seed))
        gram = unraveling_gram(extremal(u, rho), rho)
        off = gram - np.diag(np.diagonal(gram))
        assert np.abs(off).max() <= 1e-10
        input_spectrum = hermitian_eigvals(unraveling_gram(u, rho))
        assert np.diagonal(gram).real == pytest.approx(input_spectrum, abs=1e-10)


class TestProbabilities:
    def test_matches_povm_statistics(self, sic):
        rho = random_density_matrix(2, rng_for(4))
        via_kraus = unraveling_probabilities(principal_kraus(sic), rho)
        via_povm = outcome_probabilities(povm_from_frame(sic), rho)
        assert via_kraus == pytest.approx(via_povm, abs=1e-12)

    def test_single_kraus(self):
        u = Unraveling(np.eye(2)[None, :, :].astype(complex))
        probs = unraveling_probabilities(u, DensityMatrix(np.eye(2) / 2))
        assert probs == pytest.approx([1.0])

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds)
    def test_unistochastic_mixing_of_extremal(self, seed, sic):
        # p_i(B) = sum_j |w_ij|^2 p_j(extremal) with w the mixing matrix
        # from the extremal to the sampled unraveling.
        rng = rng_for(seed)
        u = principal_kraus(sic)
        rho = random_density_matrix(2, rng)
        values, vectors = np.linalg.eigh(unraveling_gram(u, rho))
        mixing = haar_unitary(4, rng)
        sampled = transform_unraveling(u, mixing)
        w = mixing.conj().T @ vectors
        expected = (np.abs(w) ** 2) @ values
        assert unraveling_probabilities(sampled, rho) == pytest.approx(expected, abs=1e-10)


class TestKdMatrix:
    def test_proportional_to_gram_for_tight_frames(self, catalog):
        for _, frame in catalog:
            povm = povm_from_frame(frame)
            u = principal_kraus(frame)
            for seed in range(5):
                rho = random_density_matrix(frame.d, rng_for(seed))
                kd = kd_matrix(povm, rho)
                gram = unraveling_gram(u, rho)
                assert np.abs(kd - (frame.d / frame.n) * gram).max() <= 1e-12

    def test_projective_diagonal_state(self):
        basis = orthonormal_frame(3)
        rho = DensityMatrix(np.diag([0.6, 0.3, 0.1]).astype(complex))
        kd = kd_matrix(povm_from_frame(basis), rho)
        assert kd == pytest.approx(np.diag([0.6, 0.3, 0.1]).astype(complex), abs=1e-14)

    def test_sic_pure_frame_state_scaled_worked_example(self, sic):
        kd = kd_matrix(povm_from_frame(sic), pure_frame_state(sic, 0))
        assert kd == pytest.approx(0.5 * SIC_PURE_GRAM, abs=1e-12)

    def test_entries_sum_to_one(self, sic):
        kd = kd_matrix(povm_from_frame(sic), random_density_matrix(2, rng_for(9)))
        assert kd.sum() == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_non_uniform_rank_one_weights_break_proportionality(self):
        # Rank-one effects with weights differing from d/n cannot satisfy
        # the proportionality for every pure state.
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        gammas_sq = np.array([0.7, 0.3, 1.0])
        kets = np.array([e0, e0, e1])
        effects = np.einsum("j,ja,jb->jab", gammas_sq, kets, kets.conj())
        povm = Povm(effects)
        kraus = np.einsum("j,ja,jb->jab", np.sqrt(gammas_sq), kets, kets.conj())
        u = Unraveling(kraus)
        scale = 2.0 / 3.0
        worst = 0.0
        for seed in range(20):
            rho = random_density_matrix(2, rng_for(seed), rank=1)
            residual = np.abs(kd_matrix(povm, rho) - scale * unraveling_gram(u, rho)).max()
            worst = max(worst, float(residual))
        assert worst > 1e-6


# (p, whether to take the Naimark complement of the Paley frame)
PALEY = [(7, False), (19, False), (43, False), (199, False), (19, True), (43, True)]
STATES = ["maximally-mixed", "frame-state:0", "random"]


@pytest.fixture(
    scope="module",
    params=PALEY,
    ids=lambda case: f"paley{case[0]}" + ("-complement" if case[1] else ""),
)
def etf(request):
    p, complement = request.param
    return complement_etf(paley_frame(p)) if complement else paley_frame(p)


def state_of(frame: Frame, spec: str) -> DensityMatrix:
    if spec == "maximally-mixed":
        return DensityMatrix(np.eye(frame.d) / frame.d)
    if spec == "frame-state:0":
        return pure_frame_state(frame, 0)
    return random_density_matrix(frame.d, rng_for(frame.n))


class TestGramPath:
    """The rank-one closed forms against the general Kraus kernels."""

    @pytest.mark.parametrize("spec", STATES)
    def test_frame_gram_matches_unraveling_gram(self, etf, spec):
        rho = state_of(etf, spec)
        expected = unraveling_gram(principal_kraus(etf), rho)
        assert np.abs(frame_gram(etf, rho) - expected).max() <= 1e-12

    @pytest.mark.parametrize("spec", STATES)
    def test_mixed_probabilities_match_transformed_unraveling(self, etf, spec):
        rho = state_of(etf, spec)
        u = principal_kraus(etf)
        gram = frame_gram(etf, rho)
        for seed in range(2):
            v = haar_unitary(etf.n, rng_for(seed))
            expected = unraveling_probabilities(transform_unraveling(u, v), rho)
            assert np.abs(mixed_probabilities(gram, v) - expected).max() <= 1e-12

    def test_stacked_mixed_probabilities_match_row_by_row(self, etf):
        gram = frame_gram(etf, state_of(etf, "random"))
        stack = haar_unitary(etf.n, [rng_for(seed) for seed in range(3)])
        got = mixed_probabilities(gram, stack)
        assert got.shape == (3, etf.n)
        for row, v in zip(got, stack):
            assert np.array_equal(row, mixed_probabilities(gram, v))

    def test_stack_with_one_non_unitary_member_rejected(self, sic):
        gram = frame_gram(sic, DensityMatrix(np.eye(2) / 2))
        stack = np.array([np.eye(4), np.ones((4, 4)), np.eye(4)])
        message = "v\\^dag v must be the identity"
        with pytest.raises(ValueError, match=message) as stack_error:
            mixed_probabilities(gram, stack)
        with pytest.raises(ValueError, match=message) as single_error:
            mixed_probabilities(gram, np.ones((4, 4)))
        assert str(stack_error.value) == str(single_error.value)

    @pytest.mark.parametrize(
        "vectors",
        [
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex),
            np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]]),
        ],
        ids=["repeated-vector", "e0-e1-diagonal"],
    )
    def test_non_tight_frame_rejected_by_both_paths(self, vectors):
        # the Kraus path checks completeness entrywise, frame_gram checks tightness
        frame = Frame(vectors)
        with pytest.raises(ValueError) as kraus_error:
            principal_kraus(frame)
        with pytest.raises(ValueError) as gram_error:
            frame_gram(frame, DensityMatrix(np.eye(2) / 2))
        kraus_message = "sum A^dag A must be the identity, max |sum A^dag A - I| = 3.333e-01"
        assert str(kraus_error.value) == kraus_message
        assert str(gram_error.value) == "frame is not tight, it induces no POVM"

    def test_dimension_mismatch_rejected(self, sic):
        with pytest.raises(ValueError) as error:
            frame_gram(sic, DensityMatrix(np.eye(3) / 3))
        assert str(error.value) == "dimension mismatch: frame in C^2, state on C^3"

    def test_non_unitary_mixing_rejected_as_by_transform(self, sic):
        gram = frame_gram(sic, DensityMatrix(np.eye(2) / 2))
        message = "v\\^dag v must be the identity"
        with pytest.raises(ValueError, match=message) as transform_error:
            transform_unraveling(principal_kraus(sic), np.ones((4, 4)))
        with pytest.raises(ValueError, match=message) as gram_error:
            mixed_probabilities(gram, np.ones((4, 4)))
        assert str(gram_error.value) == str(transform_error.value)

    def test_too_small_mixing_rejected(self, sic):
        gram = frame_gram(sic, DensityMatrix(np.eye(2) / 2))
        with pytest.raises(ValueError, match="size exactly 4, one row per operator; got 3"):
            mixed_probabilities(gram, np.eye(3))

    def test_larger_mixing_rejected(self, sic):
        # a larger unitary would pad the unraveling with zero operators
        gram = frame_gram(sic, DensityMatrix(np.eye(2) / 2))
        with pytest.raises(ValueError, match="size exactly 4, one row per operator; got 6"):
            mixed_probabilities(gram, haar_unitary(6, rng_for(4)))


def kraus_and_state(shape: tuple[int, int, int]) -> tuple[np.ndarray, DensityMatrix]:
    """Trace-preserving (m, dout, din) stack, a random isometry C^din -> C^(m dout),
    and a random state on C^din."""
    m, dout, din = shape
    rng = rng_for(0)
    z = rng.standard_normal((m * dout, din)) + 1j * rng.standard_normal((m * dout, din))
    isometry, _ = np.linalg.qr(z)
    return isometry.reshape(m, dout, din), random_density_matrix(din, rng)


# (m, dout, din): m != d, dout != din both ways, and a single operator.
KRAUS_SHAPES = [(5, 3, 2), (3, 2, 4), (7, 2, 5), (1, 4, 3), (1, 3, 3)]


@pytest.mark.parametrize("shape", KRAUS_SHAPES)
class TestKernelsMatchEinsumDefinitions:
    """Each channel kernel against its index formula, written out with einsum."""

    def test_gram(self, shape):
        kraus, rho = kraus_and_state(shape)
        expected = np.einsum("iba,jbc,ca->ij", kraus.conj(), kraus, rho.matrix)
        assert np.abs(unraveling_gram(Unraveling(kraus), rho) - expected).max() <= 1e-12

    def test_probabilities(self, shape):
        kraus, rho = kraus_and_state(shape)
        expected = np.einsum("jba,jbc,ca->j", kraus.conj(), kraus, rho.matrix).real
        got = unraveling_probabilities(Unraveling(kraus), rho)
        assert np.abs(got - expected).max() <= 1e-12

    def test_kd_matrix(self, shape):
        # Effects A_j^dagger A_j on C^din: n = m effects that sum to the identity.
        kraus, rho = kraus_and_state(shape)
        effects = np.einsum("jba,jbc->jac", kraus.conj(), kraus)
        expected = np.einsum("iab,jbc,ca->ij", effects, effects, rho.matrix)
        assert np.abs(kd_matrix(Povm(effects), rho) - expected).max() <= 1e-12

    def test_transform_with_zero_padding(self, shape):
        kraus, rho = kraus_and_state(shape)
        m, dout, din = shape
        size = m + 2
        v = haar_unitary(size, rng_for(7))
        padded = np.concatenate([kraus, np.zeros((2, dout, din), dtype=complex)])
        expected = np.einsum("ji,jab->iab", v, padded)
        mixed = transform_unraveling(Unraveling(kraus), v)
        assert mixed.kraus.shape == (size, dout, din)
        assert np.abs(mixed.kraus - expected).max() <= 1e-12

    def test_completeness_check(self, shape):
        kraus, _ = kraus_and_state(shape)
        assert np.abs(
            np.einsum("mia,mib->ab", kraus.conj(), kraus) - np.eye(shape[2])
        ).max() <= 1e-12
        Unraveling(kraus)
        # Stretching one input direction breaks sum A^dag A = I in one diagonal entry.
        stretched = kraus.copy()
        stretched[:, :, -1] *= 1.001
        with pytest.raises(ValueError, match="sum A\\^dag A"):
            Unraveling(stretched)
