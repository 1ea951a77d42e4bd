import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdframes.entropy import (
    alpha_log,
    clean_probabilities,
    index_of_coincidence,
    renyi_entropy,
    renyi_interpolation_bound,
    tsallis_entropy,
)

seeds = st.integers(0, 2**32 - 1)


def random_distribution(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.ones(size))


class TestAlphaLog:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0, 7.5])
    def test_unit_argument(self, alpha):
        assert alpha_log(1.0, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_natural_log_branch(self):
        assert alpha_log(np.e, 1.0) == pytest.approx(1.0)

    def test_order_two(self):
        assert alpha_log(4.0, 2.0) == pytest.approx(0.75)

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_log(0.0, 2.0)
        with pytest.raises(ValueError):
            alpha_log(2.0, -1.0)
        with pytest.raises(ValueError):
            alpha_log(2.0, np.inf)

    @settings(deadline=None)
    @given(x=st.floats(0.1, 10.0))
    def test_continuity_at_one(self, x):
        assert alpha_log(x, 1.0 + 1e-8) == pytest.approx(np.log(x), abs=1e-6)


class TestRenyi:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, np.inf])
    def test_uniform(self, alpha):
        p = np.full(6, 1 / 6)
        assert renyi_entropy(p, alpha) == pytest.approx(np.log(6), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, np.inf])
    def test_one_hot(self, alpha):
        assert renyi_entropy([1.0, 0.0, 0.0], alpha) == pytest.approx(0.0, abs=1e-12)

    def test_collision_entropy_example(self):
        p = [0.5, 1 / 6, 1 / 6, 1 / 6]
        assert renyi_entropy(p, 2.0) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_min_entropy(self):
        assert renyi_entropy([0.5, 0.3, 0.2], np.inf) == pytest.approx(-np.log(0.5))

    @settings(deadline=None)
    @given(seed=seeds, size=st.integers(2, 8))
    def test_non_increasing_in_alpha(self, seed, size):
        p = random_distribution(seed, size)
        values = [renyi_entropy(p, a) for a in (0.3, 0.7, 1.0, 1.5, 2.0, 4.0, 10.0, np.inf)]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))

    @settings(deadline=None)
    @given(seed=seeds, size=st.integers(2, 8))
    def test_alpha_one_limit(self, seed, size):
        p = random_distribution(seed, size)
        shannon = renyi_entropy(p, 1.0)
        assert abs(renyi_entropy(p, 1.0 + 1e-8) - shannon) <= 1e-6
        assert abs(renyi_entropy(p, 1.0 - 1e-8) - shannon) <= 1e-6


class TestTsallis:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    def test_one_hot(self, alpha):
        assert tsallis_entropy([0.0, 1.0], alpha) == pytest.approx(0.0, abs=1e-12)

    def test_order_two_example(self):
        p = [0.5, 1 / 6, 1 / 6, 1 / 6]
        assert tsallis_entropy(p, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_uniform_order_two(self, n):
        assert tsallis_entropy(np.full(n, 1 / n), 2.0) == pytest.approx(1 - 1 / n)

    def test_infinite_order_rejected(self):
        with pytest.raises(ValueError):
            tsallis_entropy([0.5, 0.5], np.inf)

    @settings(deadline=None)
    @given(seed=seeds, size=st.integers(2, 8))
    def test_alpha_one_limit_is_shannon(self, seed, size):
        p = random_distribution(seed, size)
        shannon = renyi_entropy(p, 1.0)
        assert abs(tsallis_entropy(p, 1.0 + 1e-8) - shannon) <= 1e-6
        assert abs(tsallis_entropy(p, 1.0 - 1e-8) - shannon) <= 1e-6


class TestIndexOfCoincidence:
    def test_sic_pure_frame_state_distribution(self):
        assert index_of_coincidence([0.5, 1 / 6, 1 / 6, 1 / 6]) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_uniform(self, n):
        assert index_of_coincidence(np.full(n, 1 / n)) == pytest.approx(1 / n)

    def test_one_hot(self):
        assert index_of_coincidence([0.0, 1.0, 0.0]) == pytest.approx(1.0)


class TestInterpolationBound:
    def test_collapses_at_two(self):
        assert renyi_interpolation_bound(1.3, 0.4, 2.0) == pytest.approx(1.3)

    def test_collapses_at_infinity(self):
        assert renyi_interpolation_bound(1.3, 0.4, np.inf) == pytest.approx(0.4)

    def test_order_three_example(self):
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(3.0)
        assert renyi_interpolation_bound(np.log(3.0), np.log(2.0), 3.0) == pytest.approx(expected)

    def test_domain(self):
        with pytest.raises(ValueError):
            renyi_interpolation_bound(1.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            renyi_interpolation_bound(0.2, 0.5, 3.0)

    @settings(deadline=None)
    @given(seed=seeds, size=st.integers(2, 8), alpha=st.floats(2.0, 40.0))
    def test_lower_bounds_renyi(self, seed, size, alpha):
        p = random_distribution(seed, size)
        bound = renyi_interpolation_bound(
            renyi_entropy(p, 2.0), renyi_entropy(p, np.inf), alpha
        )
        assert renyi_entropy(p, alpha) >= bound - 1e-12


class TestCleaning:
    def test_small_negative_clamped(self):
        p = clean_probabilities([1.0 + 5e-13, -5e-13])
        assert p[1] == 0.0

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            clean_probabilities([1.0, -1e-6])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            clean_probabilities([0.5, 0.4])

    def test_zero_probabilities_dropped_from_entropies(self):
        with_zeros = [0.5, 0.5, 0.0, 0.0]
        without = [0.5, 0.5]
        for alpha in (0.5, 1.0, 2.0):
            assert tsallis_entropy(with_zeros, alpha) == pytest.approx(
                tsallis_entropy(without, alpha)
            )
        assert renyi_entropy(with_zeros, 0.5) == pytest.approx(renyi_entropy(without, 0.5))


def scalar_renyi(p, alpha: float) -> float:
    """Written-out reference on the nonzero entries of one distribution."""
    nz = np.asarray(p, dtype=float)
    nz = nz[nz > 0.0]
    if np.isinf(alpha):
        return float(-np.log(nz.max()))
    if abs(alpha - 1.0) < 1e-6:
        return float(-(nz * np.log(nz)).sum())
    top = nz.max()
    return float((alpha * np.log(top) + np.log(np.sum((nz / top) ** alpha))) / (1.0 - alpha))


def scalar_tsallis(p, alpha: float) -> float:
    nz = np.asarray(p, dtype=float)
    nz = nz[nz > 0.0]
    if abs(alpha - 1.0) < 1e-6:
        return float(-(nz * np.log(nz)).sum())
    return float((np.sum(nz**alpha) - 1.0) / (1.0 - alpha))


STACK_ORDERS = [0.5, 1.0, 1.0 + 1e-7, 1.0 - 1e-7, 2.0, 5.0, 50.0, np.inf]


def distribution_stack() -> np.ndarray:
    """Eight rows of twelve outcomes: random, with zeros, one-hot, uniform."""
    rng = np.random.default_rng(11)
    rows = [rng.dirichlet(np.ones(12)) for _ in range(4)]
    sparse = rng.dirichlet(np.ones(5))
    rows.append(np.concatenate([sparse, np.zeros(7)]))
    rows.append(np.concatenate([np.zeros(7), sparse])[::-1])
    rows.append(np.eye(12)[3])
    rows.append(np.full(12, 1 / 12))
    return np.array(rows)


class TestStacks:
    """A stack of distributions is reduced along its last axis, row by row."""

    @pytest.mark.parametrize("alpha", STACK_ORDERS)
    def test_renyi_rows_match_single_distributions(self, alpha):
        stack = distribution_stack()
        values = renyi_entropy(stack, alpha)
        assert values.shape == (len(stack),)
        for row, value in zip(stack, values):
            assert abs(value - renyi_entropy(row, alpha)) <= 1e-14
            assert abs(value - scalar_renyi(row, alpha)) <= 1e-14

    @pytest.mark.parametrize("alpha", [a for a in STACK_ORDERS if np.isfinite(a)])
    def test_tsallis_rows_match_single_distributions(self, alpha):
        stack = distribution_stack()
        values = tsallis_entropy(stack, alpha)
        assert values.shape == (len(stack),)
        for row, value in zip(stack, values):
            assert abs(value - tsallis_entropy(row, alpha)) <= 1e-14
            assert abs(value - scalar_tsallis(row, alpha)) <= 1e-14

    def test_three_dimensional_stack(self):
        stack = distribution_stack().reshape(2, 4, 12)
        assert renyi_entropy(stack, 2.0).shape == (2, 4)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, np.inf])
    def test_single_distribution_gives_a_float(self, alpha):
        assert type(renyi_entropy([0.25, 0.75], alpha)) is float
        if np.isfinite(alpha):
            assert type(tsallis_entropy([0.25, 0.75], alpha)) is float

    def test_rounded_negatives_clamped_per_row(self):
        stack = np.array([[0.5, 0.5, 0.0], [1.0 + 5e-13, -5e-13, 0.0]])
        assert clean_probabilities(stack)[1, 1] == 0.0

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ([1.0 + 1e-6, -1e-6, 0.0], "negative probability -1.000e-06"),
            ([0.5, 0.4, 0.0], "probabilities must sum to 1, got 0.9"),
            ([0.0, 0.0, 0.0], "probabilities must sum to 1, got 0.0"),
            ([0.5, np.nan, 0.5], "probability vector contains non-finite entries"),
            ([0.5, np.inf, 0.5], "probability vector contains non-finite entries"),
        ],
    )
    def test_bad_row_rejected_with_the_single_distribution_message(self, bad_row, message):
        with pytest.raises(ValueError) as single:
            clean_probabilities(bad_row)
        assert str(single.value) == message
        stack = np.array([[0.2, 0.3, 0.5], bad_row, [1.0, 0.0, 0.0]])
        for entropy in (renyi_entropy, tsallis_entropy):
            with pytest.raises(ValueError) as stacked:
                entropy(stack, 2.0)
            assert str(stacked.value) == message

    def test_first_bad_row_is_named(self):
        stack = np.array([[0.5, 0.5], [0.5, 0.4], [0.3, 0.3]])
        with pytest.raises(ValueError, match="got 0.9"):
            clean_probabilities(stack)
