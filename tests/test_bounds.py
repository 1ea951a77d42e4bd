import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    extremal_probabilities,
    random_complex_matrix,
    random_hermitian,
    rng_for,
    spectrum_with_equal_tail,
)
from kdframes.bounds import (
    Interval,
    eigen_interval,
    etf_eigen_interval,
    etf_spectral_bound,
    gershgorin_disks,
    gershgorin_union,
    gram_frobenius_sq,
    ic_upper_bound,
    kd_frobenius_norm,
    pure_state_margin,
    renyi_uncertainty_bound,
    singular_interval,
    tsallis_uncertainty_bound,
)
from kdframes.channels import principal_kraus, unraveling_gram
from kdframes.entropy import alpha_log, index_of_coincidence, renyi_entropy, tsallis_entropy
from kdframes.frames import (
    DensityMatrix,
    coherence_constant,
    frame_mixture,
    purity,
    random_density_matrix,
)
from kdframes.linalg import haar_unitary, hermitian_eigvals
from reference import (
    kd_matrix,
    outcome_probabilities,
    povm_from_frame,
    transform_unraveling,
    unraveling_probabilities,
)

seeds = st.integers(0, 2**32 - 1)

# ETF sizes for the written-out closed forms: the qubit SIC, two unrealized
# parameter pairs, and the Paley ETFs (7, 3), (19, 9), (43, 21) with their
# Naimark complements.
CLOSED_FORM_SIZES = [(4, 2), (9, 3), (6, 3), (7, 3), (7, 4), (19, 9), (19, 10), (43, 21), (43, 22)]



def sic_pure_gram(sic):
    ket = sic.vectors[0]
    rho = DensityMatrix(np.outer(ket, ket.conj()))
    return unraveling_gram(principal_kraus(sic), rho)


class TestIcUpperBound:
    def test_sic_pure(self):
        assert ic_upper_bound(4, 2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_sic_maximally_mixed(self):
        assert ic_upper_bound(4, 2, 0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize("p", [0.4, 0.65, 1.0])
    def test_orthonormal_reduces_to_purity(self, p):
        assert ic_upper_bound(3, 3, p) == pytest.approx(p)

    def test_purity_domain(self):
        with pytest.raises(ValueError):
            ic_upper_bound(4, 2, 0.2)
        with pytest.raises(ValueError):
            ic_upper_bound(4, 2, 1.2)

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_holds_and_saturates_for_mixtures(self, seed, trine):
        # The bound holds for arbitrary states and becomes an equality on
        # convex mixtures of the frame states.
        rng = rng_for(seed)
        povm = povm_from_frame(trine)
        rho = random_density_matrix(2, rng)
        ic = index_of_coincidence(outcome_probabilities(povm, rho))
        assert ic <= ic_upper_bound(trine.n, trine.d, purity(rho)) + 1e-10
        mixture = frame_mixture(trine, rng.dirichlet(np.ones(3)))
        ic = index_of_coincidence(outcome_probabilities(povm, mixture))
        assert ic == pytest.approx(ic_upper_bound(trine.n, trine.d, purity(mixture)), abs=1e-10)


class TestGramFrobenius:
    def test_sic_maximally_mixed_value(self):
        assert gram_frobenius_sq(4, 2, 0.25, 0.5) == pytest.approx(1.0 / 3.0)

    def test_sic_pure_value(self):
        value = gram_frobenius_sq(4, 2, 1.0 / 3.0, 1.0)
        assert value == pytest.approx(5.0 / 9.0)
        assert value == pytest.approx((2 / 3) ** 2 + (1 / 3) ** 2)

    def test_coherence_zero_reduces_to_ic(self):
        assert gram_frobenius_sq(4, 4, 0.37, 0.8) == pytest.approx(0.37)

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_matches_actual_matrix(self, seed, sic):
        rho = random_density_matrix(2, rng_for(seed))
        u = principal_kraus(sic)
        gram = unraveling_gram(u, rho)
        ic = index_of_coincidence(unraveling_probabilities(u, rho))
        closed = gram_frobenius_sq(4, 2, ic, purity(rho))
        assert np.linalg.norm(gram) ** 2 == pytest.approx(closed, abs=1e-10)


class TestKdFrobenius:
    def test_sic_values(self):
        assert kd_frobenius_norm(4, 2, 0.25, 0.5) == pytest.approx(0.5 * np.sqrt(1 / 3))
        assert kd_frobenius_norm(4, 2, 1 / 3, 1.0) == pytest.approx(0.5 * np.sqrt(5 / 9))

    def test_projective_basis_state(self):
        assert kd_frobenius_norm(2, 2, 1.0, 1.0) == pytest.approx(1.0)

    def test_matches_actual_kd_matrix(self, sic):
        rho = random_density_matrix(2, rng_for(21))
        u = principal_kraus(sic)
        ic = index_of_coincidence(unraveling_probabilities(u, rho))
        closed = kd_frobenius_norm(4, 2, ic, purity(rho))
        actual = np.linalg.norm(kd_matrix(povm_from_frame(sic), rho))
        assert actual == pytest.approx(closed, abs=1e-10)


class TestEigenInterval:
    def test_equal_tail_spectrum_sits_on_boundary(self):
        m = spectrum_with_equal_tail(2.0, 0.5, 5, rng_for(3))
        interval = eigen_interval(m)
        assert interval.upper == pytest.approx(2.0, abs=1e-10)

    def test_generic_spectrum_strictly_inside(self):
        m = np.diag([3.0, 2.0, 1.0]).astype(complex)
        interval = eigen_interval(m)
        assert interval.upper > 3.0 + 1e-6
        assert interval.lower < 1.0 - 1e-6

    def test_sic_pure_gram_interval(self, sic):
        interval = eigen_interval(sic_pure_gram(sic))
        assert interval.lower + interval.radius == pytest.approx(0.25, abs=1e-12)
        assert interval.radius == pytest.approx(np.sqrt(11.0 / 3.0) / 4.0, abs=1e-12)

    def test_scalar_matrix_degenerate(self):
        interval = eigen_interval(np.array([[2.5]], dtype=complex))
        assert (interval.lower, interval.upper) == (pytest.approx(2.5), pytest.approx(2.5))

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(2, 8))
    def test_containment(self, seed, n):
        m = random_hermitian(n, rng_for(seed))
        interval = eigen_interval(m)
        for value in hermitian_eigvals(m):
            assert interval.slack(float(value)) >= -1e-10


class TestSingularInterval:
    def test_unitary_zero_radius(self):
        u = haar_unitary(4, 17)
        interval = singular_interval(u)
        assert interval.radius == pytest.approx(0.0, abs=1e-7)
        assert interval.lower + interval.radius == pytest.approx(1.0, abs=1e-10)

    def test_equal_tail_boundary(self):
        interval = singular_interval(np.diag([2.0, 1.0, 1.0]).astype(complex))
        assert interval.upper == pytest.approx(2.0, abs=1e-10)

    @settings(deadline=None)
    @given(seed=seeds, rows=st.integers(2, 6), cols=st.integers(2, 6))
    def test_containment(self, seed, rows, cols):
        x = random_complex_matrix(rows, cols, rng_for(seed))
        interval = singular_interval(x)
        for value in np.linalg.svd(x, compute_uv=False):
            assert interval.slack(float(value)) >= -1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="x contains non-finite entries"):
            singular_interval(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestMaxEigUpperBound:
    def test_identity(self):
        assert eigen_interval(np.eye(3)).upper == pytest.approx(1.0)

    def test_equal_tail_saturation(self):
        m = spectrum_with_equal_tail(3.0, 1.0, 6, rng_for(5))
        assert eigen_interval(m).upper == pytest.approx(3.0, abs=1e-10)

    def test_sic_pure_gram_value(self, sic):
        bound = eigen_interval(sic_pure_gram(sic)).upper
        assert bound == pytest.approx((1.0 + np.sqrt(11.0 / 3.0)) / 4.0, abs=1e-12)
        assert 2.0 / 3.0 <= bound < 0.729

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(2, 7))
    def test_dominates_true_maximum(self, seed, n):
        rng = rng_for(seed)
        g = random_complex_matrix(n, n, rng)
        m = g @ g.conj().T
        assert eigen_interval(m).upper >= float(np.linalg.eigvalsh(m)[-1]) - 1e-10


class TestGershgorin:
    def test_etf_maximally_mixed_disks(self, catalog):
        for _, frame in catalog:
            rho = DensityMatrix(np.eye(frame.d) / frame.d)
            gram = unraveling_gram(principal_kraus(frame), rho)
            expected_radius = (frame.n - 1) * coherence_constant(frame.n, frame.d) / frame.n
            for center, radius in zip(*gershgorin_disks(gram)):
                assert center.real == pytest.approx(1.0 / frame.n, abs=1e-12)
                assert radius == pytest.approx(expected_radius, abs=1e-12)

    def test_diagonal_matrix_zero_radii(self):
        for radius in gershgorin_disks(np.diag([1.0, 2.0, 3.0]).astype(complex))[1]:
            assert radius == 0.0

    def test_sic_pure_union_is_unit_interval(self, sic):
        union = gershgorin_union(*gershgorin_disks(sic_pure_gram(sic)))
        assert union.upper == pytest.approx(1.0, abs=1e-12)
        assert union.lower == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_union_holds_psd_spectrum_above_zero(self, seed):
        a = random_complex_matrix(4, 4, rng_for(seed))
        m = a @ a.conj().T
        union = gershgorin_union(*gershgorin_disks(m))
        spectrum = np.linalg.eigvalsh(m)
        assert union.lower >= 0.0
        assert union.lower - 1e-9 <= spectrum[0] and spectrum[-1] <= union.upper + 1e-9
        disks = zip(*gershgorin_disks(m))
        assert union.upper == max(center.real + radius for center, radius in disks)

    def test_disks_are_a_center_and_a_radius_array(self):
        a = random_complex_matrix(5, 5, rng_for(8))
        m = a @ a.conj().T + 20.0 * np.eye(5)
        centers, radii = gershgorin_disks(m)
        assert centers.dtype == np.complex128 and centers.shape == (5,)
        assert radii.dtype == np.float64 and radii.shape == (5,)
        assert np.array_equal(centers, np.diagonal(m))
        assert np.allclose(radii, np.abs(m).sum(axis=1) - np.abs(np.diagonal(m)))
        union = gershgorin_union(*gershgorin_disks(m))
        assert union.lower == (centers.real - radii).min() > 0.0
        assert union.upper == (centers.real + radii).max()

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(2, 7))
    def test_eigenvalue_containment(self, seed, n):
        m = random_complex_matrix(n, n, rng_for(seed))
        disks = list(zip(*gershgorin_disks(m)))
        for value in np.linalg.eigvals(m):
            assert min(abs(value - center) - radius for center, radius in disks) <= 1e-9


class TestEtfInterval:
    def test_sic_pure_radius(self):
        interval = etf_eigen_interval(4, 2, 1.0)
        assert interval.lower + interval.radius == pytest.approx(0.25)
        assert interval.radius == pytest.approx(np.sqrt(11.0 / 3.0) / 4.0, abs=1e-12)

    def test_maximally_mixed_matches_gershgorin_radius(self, catalog):
        for _, frame in catalog:
            interval = etf_eigen_interval(frame.n, frame.d, 1.0 / frame.d)
            expected = (frame.n - frame.d) / (frame.n * frame.d)
            assert interval.radius == pytest.approx(expected, abs=1e-10)

    def test_orthonormal_formula(self):
        interval = etf_eigen_interval(3, 3, 1.0)
        assert interval.radius == pytest.approx(np.sqrt(2.0) / 3.0 * np.sqrt(2.0))

    @pytest.mark.parametrize("n,d", CLOSED_FORM_SIZES)
    def test_matches_written_out_radicand(self, n, d):
        c = coherence_constant(n, d)
        s = n / d
        for state_purity in np.linspace(1.0 / d, 1.0, 7):
            radicand = ((1 - c) ** 2 / s**2 + c) * n * state_purity + (1 - c) * c * d - 1.0
            interval = etf_eigen_interval(n, d, state_purity)
            assert interval.lower + interval.radius == pytest.approx(1.0 / n, abs=1e-12)
            assert interval.radius == pytest.approx(
                np.sqrt(n - 1.0) / n * np.sqrt(radicand), abs=1e-12
            )

    @settings(deadline=None, max_examples=30)
    @given(seed=seeds)
    def test_contains_gram_spectrum_of_any_unraveling(self, seed, sic):
        rng = rng_for(seed)
        rho = random_density_matrix(2, rng)
        u = transform_unraveling(principal_kraus(sic), haar_unitary(4, rng))
        interval = etf_eigen_interval(4, 2, purity(rho))
        for value in hermitian_eigvals(unraveling_gram(u, rho)):
            assert interval.slack(float(value)) >= -1e-10


class TestEtfSpectralBound:
    def test_sic_pure_stays_below_0729(self):
        assert etf_spectral_bound(4, 2, 1.0) < 0.729

    def test_sic_maximally_mixed_achieved_exactly(self, sic):
        bound = etf_spectral_bound(4, 2, 0.5)
        assert bound == pytest.approx(0.5, abs=1e-12)
        rho = DensityMatrix(np.eye(2) / 2)
        top = hermitian_eigvals(unraveling_gram(principal_kraus(sic), rho))[0]
        assert top == pytest.approx(bound, abs=1e-10)

    def test_below_one_for_pure_frame_states(self, catalog):
        for _, frame in catalog:
            if frame.n == frame.d:
                continue
            assert etf_spectral_bound(frame.n, frame.d, 1.0) < 1.0

    @settings(deadline=None, max_examples=30)
    @given(seed=seeds)
    def test_dominates_sampled_spectral_norms(self, seed, sic):
        rng = rng_for(seed)
        rho = random_density_matrix(2, rng)
        u = transform_unraveling(principal_kraus(sic), haar_unitary(4, rng))
        achieved = np.linalg.norm(unraveling_gram(u, rho), 2)
        assert etf_spectral_bound(4, 2, purity(rho)) >= achieved - 1e-10


def direct_renyi_bound(n: int, d: int, state_purity: float, alpha: float) -> float:
    """Single-expression transcription of the interpolated bound."""
    c = coherence_constant(n, d)
    s = n / d
    first = (
        alpha * np.log(n)
        - 2.0 * np.log(d)
        - np.log((1 - c) * c * s + ((1 - c) ** 2 + c * s * s) * state_purity)
    ) / (alpha - 1.0)
    radicand = ((1 - c) ** 2 / s**2 + c) * n * state_purity + (1 - c) * c * d - 1.0
    second = (alpha - 2.0) / (alpha - 1.0) * np.log(1.0 + np.sqrt(n - 1.0) * np.sqrt(radicand))
    return first - second


class TestRenyiUncertaintyBound:
    def test_infinite_order_collapses_to_spectral_term(self):
        bound = renyi_uncertainty_bound(4, 2, 0.8, np.inf)
        assert bound == pytest.approx(-np.log(etf_spectral_bound(4, 2, 0.8)))

    def test_order_two_sic_pure(self):
        assert renyi_uncertainty_bound(4, 2, 1.0, 2.0) == pytest.approx(
            -np.log(5.0 / 9.0), abs=1e-12
        )

    def test_domain(self):
        # every order alpha > 0 has a bound, inf included; alpha <= 0 and NaN are named
        for alpha in (0.0, -1.0, -np.inf, np.nan):
            with pytest.raises(ValueError, match="entropy order must be positive"):
                renyi_uncertainty_bound(4, 2, 1.0, alpha)
        assert renyi_uncertainty_bound(4, 2, 1.0, 1e-300) > 0.0

    @pytest.mark.parametrize("n,d", CLOSED_FORM_SIZES)
    @pytest.mark.parametrize("alpha", [1e-9, 0.25, 0.5, 1.0, 1.5])
    def test_collision_bound_below_order_two(self, n, d, alpha):
        # H_alpha >= H_2 for alpha <= 2, so the order-2 bound serves there
        for state_purity in np.linspace(1.0 / d, 1.0, 7):
            assert renyi_uncertainty_bound(n, d, state_purity, alpha) == (
                renyi_uncertainty_bound(n, d, state_purity, 2.0)
            )

    @pytest.mark.parametrize("n,d", CLOSED_FORM_SIZES)
    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 7.0, 50.0])
    def test_matches_single_expression_form(self, n, d, alpha):
        for state_purity in np.linspace(1.0 / d, 1.0, 7):
            assert renyi_uncertainty_bound(n, d, state_purity, alpha) == pytest.approx(
                direct_renyi_bound(n, d, state_purity, alpha), abs=1e-12
            )

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds, alpha=st.floats(0.05, 30.0))
    def test_sampled_unravelings_respect_bound(self, seed, alpha, sic):
        rng = rng_for(seed)
        rho = random_density_matrix(2, rng)
        u = transform_unraveling(principal_kraus(sic), haar_unitary(4, rng))
        achieved = renyi_entropy(unraveling_probabilities(u, rho), alpha)
        assert achieved >= renyi_uncertainty_bound(4, 2, purity(rho), alpha) - 1e-10


class TestTsallisUncertaintyBound:
    def test_order_two_sic_pure(self):
        assert tsallis_uncertainty_bound(4, 2, 1.0, 2.0) == pytest.approx(
            4.0 / 9.0, abs=1e-12
        )

    def test_order_one_is_plain_log(self):
        s, c = 2.0, 1.0 / 3.0
        arg = s * s / ((1 - c) * c * s + ((1 - c) ** 2 + c * s * s) * 0.7)
        assert tsallis_uncertainty_bound(4, 2, 0.7, 1.0) == pytest.approx(np.log(arg))

    @pytest.mark.parametrize("p", [0.4, 0.7, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_orthonormal_reduces_to_alpha_log_of_inverse_purity(self, p, alpha):
        assert tsallis_uncertainty_bound(3, 3, p, alpha) == pytest.approx(
            alpha_log(1.0 / p, alpha)
        )

    @pytest.mark.parametrize("n,d", CLOSED_FORM_SIZES)
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_matches_written_out_expression(self, n, d, alpha):
        c = coherence_constant(n, d)
        s = n / d
        for state_purity in np.linspace(1.0 / d, 1.0, 7):
            arg = s * s / ((1 - c) * c * s + ((1 - c) ** 2 + c * s * s) * state_purity)
            bound = tsallis_uncertainty_bound(n, d, state_purity, alpha)
            assert bound == pytest.approx(alpha_log(arg, alpha), abs=1e-12)

    def test_domain(self):
        # every finite order alpha > 0 has a bound; alpha <= 0 and NaN are
        # named, and the Tsallis family has no order inf
        for alpha in (0.0, -1.0, -np.inf, np.nan):
            with pytest.raises(ValueError, match="entropy order must be positive"):
                tsallis_uncertainty_bound(4, 2, 1.0, alpha)
        with pytest.raises(ValueError, match="alpha = inf"):
            tsallis_uncertainty_bound(4, 2, 1.0, np.inf)
        assert tsallis_uncertainty_bound(4, 2, 1.0, 50.0) > 0.0

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds, alpha=st.floats(0.05, 30.0))
    def test_sampled_unravelings_respect_bound(self, seed, alpha, sic):
        rng = rng_for(seed)
        rho = random_density_matrix(2, rng)
        u = transform_unraveling(principal_kraus(sic), haar_unitary(4, rng))
        achieved = tsallis_entropy(unraveling_probabilities(u, rho), alpha)
        assert achieved >= tsallis_uncertainty_bound(4, 2, purity(rho), alpha) - 1e-10

    def test_saturated_by_extremal_at_order_two(self, sic):
        # With the coincidence bound saturated (frame mixtures), the order-2
        # bound equals 1 - sum of squared Gram eigenvalues, which is the
        # Tsallis entropy of the extremal distribution.
        for rho in (DensityMatrix(np.eye(2) / 2), frame_mixture(sic, [1, 0, 0, 0])):
            probs = extremal_probabilities(principal_kraus(sic), rho)
            achieved = tsallis_entropy(probs, 2.0)
            bound = tsallis_uncertainty_bound(4, 2, purity(rho), 2.0)
            assert achieved == pytest.approx(bound, abs=1e-8)


# Each closed form of the ETF channel at frame size (n, d), with valid
# remaining arguments for every possible d.
CLOSED_FORMS = {
    "ic_upper_bound": lambda n, d: ic_upper_bound(n, d, 1.0),
    "gram_frobenius_sq": lambda n, d: gram_frobenius_sq(n, d, 0.5, 1.0),
    "kd_frobenius_norm": lambda n, d: kd_frobenius_norm(n, d, 0.5, 1.0),
    "etf_eigen_interval": lambda n, d: etf_eigen_interval(n, d, 1.0),
    "etf_spectral_bound": lambda n, d: etf_spectral_bound(n, d, 1.0),
    "renyi_uncertainty_bound": lambda n, d: renyi_uncertainty_bound(n, d, 1.0, 2.0),
    "tsallis_uncertainty_bound": lambda n, d: tsallis_uncertainty_bound(n, d, 1.0, 1.0),
}


class TestImpossibleSizes:
    @pytest.mark.parametrize(
        "n,d,named", [(2, 0, "d=0"), (0, 0, "d=0"), (2, 3, "n=2 < d=3"), (0, 1, "n=0 < d=1")]
    )
    @pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
    def test_named_value_error(self, form, n, d, named):
        # a ZeroDivisionError from 1/d or d/n would escape pytest.raises
        with pytest.raises(ValueError, match=re.escape(named)):
            CLOSED_FORMS[form](n, d)


class TestPureStateMargin:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_zero_at_n_equals_d(self, d):
        assert pure_state_margin(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_example_value(self):
        assert pure_state_margin(4, 2) == pytest.approx(4.0)

    def test_positive_beyond_d(self):
        for d in range(2, 13):
            for n in range(d + 1, d * d + 1):
                assert pure_state_margin(n, d) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            pure_state_margin(3, 1)

    def test_equals_the_exact_rational_rounded_once(self):
        """Bit for bit the float of the exact rational margin, root at n = d included."""
        for d in range(2, 60):
            for n in [*range(d, d + 60), d * d, d * d + 1, 10**6 + d]:
                exact = Fraction((d - 1) * n * n, d) - n - d * d + 2 * d
                assert pure_state_margin(n, d) == float(exact), (n, d)


class TestReportTypes:
    def test_interval_orientation_enforced(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_interval_slack_elementwise(self):
        interval = Interval(-0.5, 2.0)
        values = np.array([-1.0, -0.5, 0.25, 1.5, 2.0, 3.0])
        slacks = interval.slack(values)
        assert slacks.shape == values.shape
        assert slacks.tolist() == [interval.slack(float(v)) for v in values]
