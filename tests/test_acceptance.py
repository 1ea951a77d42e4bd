"""End-to-end verification suite.

One test per acceptance criterion: each runs the full computation, asserts
the stated tolerance and runtime budget, and prints a one-line verdict
(visible with ``pytest -v -s``).
"""

import time

import numpy as np
import pytest

from helpers import (
    extremal_probabilities,
    random_complex_matrix,
    random_hermitian,
    spectrum_with_equal_tail,
)
from kdframes.bounds import (
    eigen_interval,
    gershgorin_disks,
    gershgorin_union,
    gram_frobenius_sq,
    ic_upper_bound,
    pure_state_margin,
    renyi_uncertainty_bound,
    singular_interval,
    tsallis_uncertainty_bound,
)
from kdframes.channels import principal_kraus, unraveling_gram
from kdframes.entropy import index_of_coincidence, renyi_entropy, tsallis_entropy
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


def verdict(number: int, detail: str, elapsed: float, budget: float) -> None:
    print(f"criterion {number}: PASS ({detail}; {elapsed:.2f}s < {budget:.0f}s)")


def pure_frame_state(frame, j=0) -> DensityMatrix:
    ket = frame.vectors[j]
    return DensityMatrix(np.outer(ket, ket.conj()))


def state_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def test_criterion_1_qubit_sic_spectrum(sic):
    budget = 1.0
    start = time.perf_counter()
    gram = unraveling_gram(principal_kraus(sic), pure_frame_state(sic))
    spectrum = hermitian_eigvals(gram)
    deviation = float(np.abs(spectrum - np.array([2 / 3, 1 / 3, 0.0, 0.0])).max())
    elapsed = time.perf_counter() - start
    assert deviation <= 1e-10
    assert elapsed < budget
    verdict(1, f"spectrum off (2/3, 1/3, 0, 0) by {deviation:.1e}", elapsed, budget)


def test_criterion_2_spectral_bound_comparison(sic):
    budget = 1.0
    start = time.perf_counter()
    gram = unraveling_gram(principal_kraus(sic), pure_frame_state(sic))
    true_max = float(hermitian_eigvals(gram)[0])

    bound = eigen_interval(gram).upper
    closed_form = (1.0 + np.sqrt(11.0 / 3.0)) / 4.0
    assert abs(bound - closed_form) <= 1e-12
    assert bound < 0.729
    relative = (bound - true_max) / true_max
    assert abs(relative - 0.093) <= 1e-3

    union_upper = gershgorin_union(*gershgorin_disks(gram)).upper
    assert abs(union_upper - 1.0) <= 1e-10
    gershgorin_relative = (union_upper - true_max) / true_max
    assert abs(gershgorin_relative - 0.5) <= 1e-3

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    verdict(
        2,
        f"bound {bound:.4f} (error {relative:.2%}) vs gershgorin 1.0 (error {gershgorin_relative:.0%})",
        elapsed,
        budget,
    )


def test_criterion_3_frobenius_norm_identity(catalog):
    budget = 10.0
    start = time.perf_counter()
    worst = 0.0
    for index, (_, frame) in enumerate(catalog):
        unraveling = principal_kraus(frame)
        for k in range(100):
            rho = random_density_matrix(frame.d, state_rng(3, index, k))
            gram = unraveling_gram(unraveling, rho)
            ic = index_of_coincidence(unraveling_probabilities(unraveling, rho))
            closed = gram_frobenius_sq(frame.n, frame.d, ic, purity(rho))
            worst = max(worst, abs(np.linalg.norm(gram) ** 2 - closed))
        # the two closed forms for the maximally mixed state
        n, d = frame.n, frame.d
        c = coherence_constant(n, d)
        form_a = (d * d - 2 * d + n) / ((n - 1) * d * d)
        form_b = (1.0 + (n - 1) * c * c) / n
        assert abs(form_a - form_b) <= 1e-12
        rho_star = DensityMatrix(np.eye(d) / d)
        actual = np.linalg.norm(unraveling_gram(unraveling, rho_star)) ** 2
        assert abs(actual - form_a) <= 1e-10
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < budget
    verdict(3, f"norm identity residual {worst:.1e} over {len(catalog)}x100 states", elapsed, budget)


def test_criterion_4_ic_bound_and_saturation(catalog):
    budget = 30.0
    start = time.perf_counter()
    worst_slack = np.inf
    worst_equality = 0.0
    worst_sic_equality = 0.0
    for index, (_, frame) in enumerate(catalog):
        povm = povm_from_frame(frame)
        is_maximal = frame.n == frame.d * frame.d
        for k in range(1000):
            rho = random_density_matrix(frame.d, state_rng(4, index, k))
            ic = index_of_coincidence(outcome_probabilities(povm, rho))
            gap = ic_upper_bound(frame.n, frame.d, purity(rho)) - ic
            worst_slack = min(worst_slack, gap)
            if is_maximal:
                worst_sic_equality = max(worst_sic_equality, abs(gap))
        for k in range(100):
            weights = state_rng(40, index, k).dirichlet(np.ones(frame.n))
            rho = frame_mixture(frame, weights)
            ic = index_of_coincidence(outcome_probabilities(povm, rho))
            gap = abs(ic_upper_bound(frame.n, frame.d, purity(rho)) - ic)
            worst_equality = max(worst_equality, gap)
        rho_star = DensityMatrix(np.eye(frame.d) / frame.d)
        ic = index_of_coincidence(outcome_probabilities(povm, rho_star))
        gap = abs(ic_upper_bound(frame.n, frame.d, 1.0 / frame.d) - ic)
        worst_equality = max(worst_equality, gap)
    elapsed = time.perf_counter() - start
    assert worst_slack >= -1e-10
    assert worst_equality <= 1e-10
    assert worst_sic_equality <= 1e-10
    assert elapsed < budget
    verdict(
        4,
        f"min slack {worst_slack:.1e}, mixture equality gap {worst_equality:.1e}, "
        f"maximal-frame equality gap {worst_sic_equality:.1e}",
        elapsed,
        budget,
    )


TSALLIS_MC_ALPHAS = (0.5, 1.0, 2.0, 5.0)
RENYI_MC_ALPHAS = (0.5, 1.0, 2.0, np.inf)


def sampled_distributions(sic, n_states=20, n_unitaries=200):
    """Outcome distributions of Haar re-unravelings, grouped per state."""
    unraveling = principal_kraus(sic)
    unitaries = [haar_unitary(4, state_rng(5, i)) for i in range(n_unitaries)]
    population = []
    for j in range(n_states):
        rho = random_density_matrix(2, state_rng(50, j))
        extremal_probs = extremal_probabilities(unraveling, rho)
        sampled = [
            unraveling_probabilities(transform_unraveling(unraveling, u), rho)
            for u in unitaries
        ]
        population.append((rho, extremal_probs, sampled))
    return population


@pytest.fixture(scope="module")
def mc_population(sic):
    return sampled_distributions(sic)


def test_criterion_5_extremality_monte_carlo(mc_population):
    budget = 60.0
    start = time.perf_counter()
    worst = np.inf
    for _, extremal_probs, sampled in mc_population:
        tsallis_base = {a: tsallis_entropy(extremal_probs, a) for a in TSALLIS_MC_ALPHAS}
        renyi_base = {a: renyi_entropy(extremal_probs, a) for a in RENYI_MC_ALPHAS}
        for probs in sampled:
            for a in TSALLIS_MC_ALPHAS:
                worst = min(worst, tsallis_entropy(probs, a) - tsallis_base[a])
            for a in RENYI_MC_ALPHAS:
                worst = min(worst, renyi_entropy(probs, a) - renyi_base[a])
    elapsed = time.perf_counter() - start
    assert worst >= -1e-10
    assert elapsed < budget
    verdict(5, f"min entropy slack {worst:.1e} over 200x20 re-unravelings", elapsed, budget)


def test_criterion_6_uncertainty_bounds(sic, mc_population):
    budget = 60.0
    start = time.perf_counter()
    # both bounds hold at every order: Renyi at each, Tsallis at each finite one
    renyi_grid = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0, np.inf)
    tsallis_grid = renyi_grid[:-1]
    worst = np.inf
    for rho, extremal_probs, sampled in mc_population:
        state_purity = purity(rho)
        renyi_bounds = {
            a: renyi_uncertainty_bound(sic.n, sic.d, state_purity, a) for a in renyi_grid
        }
        tsallis_bounds = {
            a: tsallis_uncertainty_bound(sic.n, sic.d, state_purity, a) for a in tsallis_grid
        }
        for probs in list(sampled) + [extremal_probs]:
            for a in renyi_grid:
                worst = min(worst, renyi_entropy(probs, a) - renyi_bounds[a])
            for a in tsallis_grid:
                worst = min(worst, tsallis_entropy(probs, a) - tsallis_bounds[a])
    assert worst >= -1e-10

    # At order 2 the Tsallis bound is saturated once the coincidence bound
    # saturates the Frobenius chain: maximally mixed state, extremal
    # unraveling of the principal channel.
    rho_star = DensityMatrix(np.eye(2) / 2)
    extremal_probs = extremal_probabilities(principal_kraus(sic), rho_star)
    achieved = tsallis_entropy(extremal_probs, 2.0)
    bound = tsallis_uncertainty_bound(sic.n, sic.d, 0.5, 2.0)
    saturation_gap = abs(achieved - bound)
    assert saturation_gap <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    verdict(
        6,
        f"min bound slack {worst:.1e}, order-2 saturation gap {saturation_gap:.1e}",
        elapsed,
        budget,
    )


def test_criterion_7_eigenvalue_location():
    budget = 30.0
    start = time.perf_counter()
    worst_eig = np.inf
    worst_singular = np.inf
    worst_max = np.inf
    for i in range(10_000):
        n = 2 + i % 7
        rng = state_rng(7, i)
        hermitian = random_hermitian(n, rng)
        interval = eigen_interval(hermitian)
        for value in np.linalg.eigvalsh(hermitian):
            worst_eig = min(worst_eig, interval.slack(float(value)))
        general = random_complex_matrix(n, n, rng)
        sinterval = singular_interval(general)
        for value in np.linalg.svd(general, compute_uv=False):
            worst_singular = min(worst_singular, sinterval.slack(float(value)))
        psd = general @ general.conj().T
        worst_max = min(
            worst_max, eigen_interval(psd).upper - float(np.linalg.eigvalsh(psd)[-1])
        )
    assert worst_eig >= -1e-10
    assert worst_singular >= -1e-10
    assert worst_max >= -1e-10

    # equal-tail spectra saturate the boundaries
    worst_saturation = 0.0
    for n in range(2, 9):
        rng = state_rng(70, n)
        m = spectrum_with_equal_tail(2.0, 0.5, n, rng)
        worst_saturation = max(worst_saturation, abs(eigen_interval(m).upper - 2.0))
        x = np.diag([3.0] + [1.0] * (n - 1)).astype(complex)
        worst_saturation = max(worst_saturation, abs(singular_interval(x).upper - 3.0))
    assert worst_saturation <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    verdict(
        7,
        f"containment slacks >= {min(worst_eig, worst_singular, worst_max):.1e}, "
        f"saturation gap {worst_saturation:.1e}",
        elapsed,
        budget,
    )


def test_criterion_8_margin_positivity():
    budget = 1.0
    start = time.perf_counter()
    for d in range(2, 13):
        assert pure_state_margin(d, d) == 0.0
        for n in range(d + 1, d * d + 1):
            assert pure_state_margin(n, d) > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    verdict(8, "margin zero at n=d, positive on (d, d^2], d in 2..12", elapsed, budget)


def test_criterion_9_kd_proportionality(catalog):
    budget = 5.0
    start = time.perf_counter()
    worst = 0.0
    for index, (_, frame) in enumerate(catalog):
        povm = povm_from_frame(frame)
        unraveling = principal_kraus(frame)
        scale = frame.d / frame.n
        for k in range(100):
            rho = random_density_matrix(frame.d, state_rng(9, index, k))
            residual = np.abs(
                kd_matrix(povm, rho) - scale * unraveling_gram(unraveling, rho)
            ).max()
            worst = max(worst, float(residual))
    assert worst <= 1e-12

    # negative control: rank-one effects with non-uniform weights violate
    # the proportionality on some pure state
    from kdframes.channels import Unraveling
    from reference import Povm

    kets = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
    gammas_sq = np.array([0.7, 0.3, 1.0])
    povm = Povm(np.einsum("j,ja,jb->jab", gammas_sq, kets, kets.conj()))
    unraveling = Unraveling(np.einsum("j,ja,jb->jab", np.sqrt(gammas_sq), kets, kets.conj()))
    pure_states = [random_density_matrix(2, state_rng(90, k), rank=1) for k in range(20)]
    violation = max(
        float(np.abs(kd_matrix(povm, rho) - (2.0 / 3.0) * unraveling_gram(unraveling, rho)).max())
        for rho in pure_states
    )
    assert violation > 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    verdict(
        9,
        f"proportionality residual {worst:.1e}; negative control deviates by {violation:.2f}",
        elapsed,
        budget,
    )
