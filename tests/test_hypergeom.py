import math
from fractions import Fraction

import numpy as np
import pytest

from august import (
    DepthOutOfRange,
    SampleTooSmall,
    SubsampleConfig,
    augmented_cdf,
)
from august.hypergeom import binomial_row, cell_probabilities_for_counts
from oracles import (
    TooManyCombinations,
    bootstrap_augmented_cdf,
    exhaustive_subsample_cdf,
    log_augmented_cdf,
    log_binomial,
)


def exact_cells(count, n, cfg):
    """Cell probabilities for ``count`` of ``n``, in exact rational arithmetic."""
    width = cfg.counts_per_cell
    terms = [
        math.comb(count, j) * math.comb(n - count, cfg.r - j)
        for j in range(cfg.r + 1)
    ]
    total = math.comb(n, cfg.r)
    return [
        float(Fraction(sum(terms[cell * width:(cell + 1) * width]), total))
        for cell in range(cfg.cells)
    ]


class TestBinomialRow:
    @pytest.mark.parametrize("r", [2, 3, 1022, 1023])
    def test_row_is_the_binomial_coefficients(self, r):
        row = binomial_row(r)
        assert row.tolist() == [float(math.comb(r, j)) for j in range(r + 1)]

    def test_row_is_cached_and_read_only(self):
        assert binomial_row(7) is binomial_row(7)
        with pytest.raises(ValueError):
            binomial_row(7)[0] = 2.0


class TestLogBinomial:
    def test_direct_factorial_value(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10), abs=1e-13)

    def test_choose_zero_is_one(self):
        for n in (0, 1, 7, 100, 12345):
            assert log_binomial(n, 0) == 0.0

    def test_out_of_range_is_minus_inf(self):
        assert log_binomial(10, 11) == -np.inf
        assert log_binomial(10, -1) == -np.inf

    def test_matches_exact_for_moderate_n(self):
        for n in (3, 17, 60, 170, 500):
            for k in (0, 1, n // 3, n // 2, n):
                exact = math.log(math.comb(n, k))
                assert log_binomial(n, k) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_vector_argument(self):
        out = log_binomial(6, np.array([-2, 0, 3, 6, 7]))
        assert out[0] == -np.inf
        assert out[-1] == -np.inf
        assert out[2] == pytest.approx(math.log(20))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            log_binomial(-1, 0)


class TestSubsampleConfig:
    def test_default_q_is_depth_plus_one(self):
        cfg = SubsampleConfig(3)
        assert cfg.r == 15
        assert cfg.counts_per_cell == 2

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            SubsampleConfig(0)

    def test_depth_must_be_an_integer(self):
        for depth in (3.0, 2.5, np.float64(3), True, np.bool_(True), "3"):
            with pytest.raises(DepthOutOfRange, match="integer"):
                SubsampleConfig(depth)
        assert SubsampleConfig(np.int64(3)).r == SubsampleConfig(np.uint8(3)).r == 15

    def test_subsample_size_is_capped(self):
        # C(r, j) must fit a float: r = 2**(depth+1) - 1 <= 1023.
        assert SubsampleConfig(9).r == 1023
        with pytest.raises(DepthOutOfRange):
            SubsampleConfig(10)


class TestAugmentedCdf:
    def test_point_below_sample_hits_first_cell(self):
        y = np.arange(1.0, 40.0)
        for depth in (1, 2, 3):
            probs = augmented_cdf(0.0, y, SubsampleConfig(depth))
            expected = np.zeros(1 << depth)
            expected[0] = 1.0
            assert np.array_equal(probs, expected)

    def test_point_above_sample_hits_last_cell(self):
        y = np.arange(1.0, 40.0)
        for depth in (1, 2, 3):
            probs = augmented_cdf(99.0, y, SubsampleConfig(depth))
            expected = np.zeros(1 << depth)
            expected[-1] = 1.0
            assert np.array_equal(probs, expected)

    def test_seven_point_worked_case(self):
        # Y = 1..7, x = 3.5, r = 3: P(<=1 success) = (C(3,0)C(4,3) + C(3,1)C(4,2)) / C(7,3)
        probs = augmented_cdf(3.5, np.arange(1.0, 8.0), SubsampleConfig(1))
        assert probs == pytest.approx([22 / 35, 13 / 35], abs=1e-14)

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            augmented_cdf(0.5, np.arange(6.0), SubsampleConfig(2))  # r = 7 > 6

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_returns_the_kernel_row(self, depth):
        cfg = SubsampleConfig(depth)
        y = np.random.default_rng(depth).normal(size=50)
        probs = augmented_cdf(0.3, y, cfg)
        assert isinstance(probs, np.ndarray) and probs.dtype == np.float64
        assert probs.shape == (1 << depth,)
        count = int(np.count_nonzero(y <= 0.3))
        assert np.array_equal(probs, cell_probabilities_for_counts([count], 50, cfg)[0])

    def test_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            depth = int(rng.integers(1, 4))
            cfg = SubsampleConfig(depth)
            n = int(rng.integers(cfg.r, 60))
            y = rng.normal(size=n)
            x = rng.normal()
            probs = augmented_cdf(x, y, cfg)
            assert probs.min() >= 0.0
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_depends_only_on_below_count(self):
        # Any two evaluation points with the same #{y <= x} give identical output.
        y = np.array([0.0, 1.0, 2.0, 5.0, 9.0, 11.0, 30.0])
        cfg = SubsampleConfig(1)
        a = augmented_cdf(2.5, y, cfg)
        b = augmented_cdf(4.999, y, cfg)
        assert np.array_equal(a, b)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=25)
        x = 0.3
        cfg = SubsampleConfig(2)
        plain = augmented_cdf(x, y, cfg)
        mapped = augmented_cdf(np.exp(x), np.exp(y), cfg)
        assert np.array_equal(plain, mapped)

    @pytest.mark.parametrize("n", [60, 1000, 100_000])
    def test_matches_exact_rational_arithmetic_at_every_depth(self, n):
        # Absolute error only: from depth 7 tail cells underflow to zero.
        y = np.arange(n, dtype=np.float64)
        for depth in range(1, 10):
            cfg = SubsampleConfig(depth)
            if n < cfg.r:
                continue
            for count in (5, n // 4, n // 2, n - n // 4, n - 5):
                probs = augmented_cdf(count - 0.5, y, cfg)
                expected = exact_cells(count, n, cfg)
                assert np.abs(probs - expected).max() <= 1e-13, (depth, count)


class TestExhaustiveOracle:
    def test_single_subsample_is_indicator(self):
        cfg = SubsampleConfig(1)  # r = 3
        y = np.array([1.0, 2.0, 3.0])
        probs = exhaustive_subsample_cdf(2.5, y, cfg)
        # The one subsample has 2 successes -> second cell
        assert np.array_equal(probs, [0.0, 1.0])

    def test_seven_point_worked_case(self):
        probs = exhaustive_subsample_cdf(3.5, np.arange(1.0, 8.0), SubsampleConfig(1))
        assert probs == pytest.approx([22 / 35, 13 / 35], abs=1e-15)

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            depth = int(rng.integers(1, 3))
            cfg = SubsampleConfig(depth)
            n = int(rng.integers(cfg.r, 13))
            y = rng.normal(size=n)
            x = float(rng.normal())
            exact = augmented_cdf(x, y, cfg)
            enumerated = exhaustive_subsample_cdf(x, y, cfg)
            assert np.abs(exact - enumerated).max() <= 1e-12

    def test_combination_budget_guard(self):
        with pytest.raises(TooManyCombinations):
            exhaustive_subsample_cdf(0.5, np.arange(40.0), SubsampleConfig(2))


class TestBootstrapOracle:
    def test_point_below_sample_is_exact(self):
        probs = bootstrap_augmented_cdf(
            -1.0, np.arange(1.0, 20.0), SubsampleConfig(2), replicates=50, seed=0
        )
        expected = np.zeros(4)
        expected[0] = 1.0
        assert np.array_equal(probs, expected)

    def test_converges_to_exact_values(self):
        cfg = SubsampleConfig(1)
        y = np.arange(1.0, 8.0)
        probs = bootstrap_augmented_cdf(3.5, y, cfg, replicates=100_000, seed=3)
        assert np.abs(probs - [22 / 35, 13 / 35]).max() < 0.01

    def test_deterministic_given_seed(self):
        cfg = SubsampleConfig(2)
        y = np.random.default_rng(0).normal(size=30)
        a = bootstrap_augmented_cdf(0.1, y, cfg, replicates=5000, seed=12)
        b = bootstrap_augmented_cdf(0.1, y, cfg, replicates=5000, seed=12)
        assert np.array_equal(a, b)

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            bootstrap_augmented_cdf(0.0, np.arange(3.0), SubsampleConfig(2), 10, 0)

    def test_monte_carlo_rate(self):
        # Max-norm error should decay like replicates**-0.5.
        cfg = SubsampleConfig(1)
        y = np.arange(1.0, 15.0)
        exact = augmented_cdf(6.5, y, cfg)
        sizes = (400, 1600, 6400, 25600)
        errors = []
        for replicates in sizes:
            errs = [
                np.abs(
                    bootstrap_augmented_cdf(6.5, y, cfg, replicates, seed) - exact
                ).max()
                for seed in range(12)
            ]
            errors.append(np.mean(errs))
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestCellProbabilitiesForCounts:
    def test_matches_augmented_cdf_for_every_count(self):
        # Reference: the log-factorial route, exact enough at n <= 60.
        for cfg in [SubsampleConfig(depth) for depth in (1, 2, 3, 4)]:
            for n in sorted({cfg.r, cfg.r + 1, 40, 60}):
                y = np.arange(n, dtype=np.float64)
                rows = cell_probabilities_for_counts(np.arange(n + 1), n, cfg)
                for count in range(n + 1):
                    # count - 0.5 has exactly `count` points of y at or below it
                    expected = log_augmented_cdf(count - 0.5, y, cfg)
                    assert np.abs(rows[count] - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [200, 109_200, 480_127])
    @pytest.mark.parametrize("depth", [3, 6])
    def test_matches_exact_rational_arithmetic(self, n, depth):
        cfg = SubsampleConfig(depth)
        counts = np.unique(np.linspace(0, n, 50).round().astype(np.int64))
        rows = cell_probabilities_for_counts(counts, n, cfg)
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-13
        for row, count in zip(rows, counts.tolist()):
            exact = np.array(exact_cells(count, n, cfg))
            assert (np.abs(row - exact) <= 1e-13 * exact).all()

    def test_extreme_counts_are_exactly_one_hot(self):
        for depth in (1, 3, 6):
            cfg = SubsampleConfig(depth)
            rows = cell_probabilities_for_counts(np.array([0, 5000]), 5000, cfg)
            expected = np.zeros((2, cfg.cells))
            expected[0, 0] = expected[1, -1] = 1.0
            assert np.array_equal(rows, expected)

    def test_blocks_join_seamlessly(self):
        # More counts than one block, in an order that is not sorted.
        cfg = SubsampleConfig(3)
        counts = np.random.default_rng(5).integers(0, 10_001, size=5000)
        rows = cell_probabilities_for_counts(counts, 10_000, cfg)
        distinct, first = np.unique(counts, return_index=True)
        single = np.vstack(
            [cell_probabilities_for_counts([c], 10_000, cfg) for c in distinct]
        )
        assert np.array_equal(rows[first], single)
        assert rows.min() >= 0.0 and not np.signbit(rows).any()
        assert cell_probabilities_for_counts([], 10_000, cfg).shape == (0, 8)

    def test_reference_too_small(self):
        with pytest.raises(SampleTooSmall):
            cell_probabilities_for_counts([0, 1], 6, SubsampleConfig(2))
