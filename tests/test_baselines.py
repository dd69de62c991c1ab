import tracemalloc

import numpy as np
import pytest

import oracles
from august import (
    EmptySample,
    NonFiniteInput,
    _seeds,
    baseline_permutation_test,
    baselines,
    energy_statistic,
    ks_statistic,
)

ORACLE_SIZES = [(5, 7), (128, 128), (300, 200)]


def oracle_sample(m, n, ties):
    """Normal x and shifted-normal y; with ties, both rounded to 0.1."""
    rng = np.random.default_rng(1000 * m + n)
    x, y = rng.normal(size=m), rng.normal(0.5, 1.0, size=n)
    return (x.round(1), y.round(1)) if ties else (x, y)


def brute_energy(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    cross = np.abs(x[:, None] - y[None, :]).mean()
    within_x = np.abs(x[:, None] - x[None, :]).mean()
    within_y = np.abs(y[:, None] - y[None, :]).mean()
    return 2 * cross - within_x - within_y


class TestKsStatistic:
    def test_identical_multisets_give_zero(self):
        x = np.array([3.0, 1.0, 2.0, 2.0])
        assert ks_statistic(x, x[::-1]) == 0.0

    def test_disjoint_supports_give_one(self):
        assert ks_statistic([1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_interleaved_half(self):
        assert ks_statistic([1.0, 3.0], [2.0, 4.0]) == 0.5

    def test_swap_invariance(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=40), rng.normal(size=55)
        assert ks_statistic(x, y) == ks_statistic(y, x)

    def test_monotone_invariance_exact(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=30), rng.normal(size=35)
        assert ks_statistic(np.exp(x), np.exp(y)) == ks_statistic(x, y)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_statistic([], [1.0])


class TestEnergyStatistic:
    def test_identical_multisets_give_zero(self):
        x = np.array([1.0, 5.0, 5.0, 9.0])
        assert energy_statistic(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_single_pair(self):
        assert energy_statistic([0.0], [1.0]) == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.normal(size=int(rng.integers(2, 40)))
            y = rng.normal(size=int(rng.integers(2, 40)))
            assert energy_statistic(x, y) == pytest.approx(
                brute_energy(x, y), rel=1e-10, abs=1e-12
            )

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.normal(size=int(rng.integers(2, 25)))
            y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2),
                           size=int(rng.integers(2, 25)))
            assert energy_statistic(x, y) >= -1e-12

    def test_swap_invariance(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=30), rng.normal(size=45)
        assert energy_statistic(x, y) == pytest.approx(energy_statistic(y, x), abs=1e-12)

    def test_scale_dependence(self):
        # Unlike KS, energy distance is not rank-invariant.
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([10.0, 11.0, 12.0])
        assert energy_statistic(2 * x, 2 * y) != pytest.approx(energy_statistic(x, y))


class TestBaselinePermutationTest:
    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=30), rng.normal(size=30)
        a = baseline_permutation_test("ks", x, y, permutations=150, seed=9)
        b = baseline_permutation_test("ks", x, y, permutations=150, seed=9)
        assert a == b

    def test_strong_shift_hits_floor(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=40)
        y = rng.normal(size=40) + 20.0
        for name in ("ks", "energy"):
            outcome = baseline_permutation_test(name, x, y, permutations=120, seed=2)
            assert outcome.p_value == 1 / 121
            assert outcome.name == name

    def test_null_calibration_smoke(self):
        rejected = 0
        trials = 250
        for trial in range(trials):
            rng = np.random.default_rng(40_000 + trial)
            x, y = rng.normal(size=25), rng.normal(size=25)
            outcome = baseline_permutation_test("energy", x, y, 119, seed=trial)
            if outcome.p_value <= 0.05:
                rejected += 1
        assert abs(rejected / trials - 0.05) <= 0.04

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            baseline_permutation_test("wasserstein", [1.0], [2.0], 100, 0)

    def test_permutations_floor(self):
        with pytest.raises(ValueError):
            baseline_permutation_test("ks", [1.0], [2.0], 99, 0)


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("m, n", ORACLE_SIZES)
class TestKernelAgainstOracles:
    def test_ks_is_the_per_sample_oracle_bit_for_bit(self, m, n, ties):
        x, y = oracle_sample(m, n, ties)
        assert ks_statistic(x, y) == oracles.ks_statistic(x, y)

    def test_energy_is_exact_arithmetic_within_1e_12(self, m, n, ties):
        x, y = oracle_sample(m, n, ties)
        exact = float(oracles.exact_energy_statistic(x, y))
        assert abs(energy_statistic(x, y) - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("m, n", [(128, 128), (2000, 1500)])
def test_energy_keeps_its_relative_accuracy_far_from_zero(m, n):
    # No shift between the samples: the statistic is small next to the
    # common offset of 100 that every value carries.
    rng = np.random.default_rng(m + n)
    x, y = 100.0 + rng.normal(size=m), 100.0 + rng.normal(size=n)
    exact = float(oracles.exact_energy_statistic(x, y))
    assert abs(energy_statistic(x, y) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("name", ["ks", "energy"])
@pytest.mark.parametrize("m, n", [(4, 4), (60, 90)])
def test_p_value_is_the_oracle_count_over_the_same_relabellings(name, m, n):
    rng = np.random.default_rng(m + n)
    x, y = rng.normal(size=m), rng.normal(0.5, 1.0, size=n)
    oracle = getattr(oracles, f"{name}_statistic")
    pooled = np.concatenate([x, y])
    observed = oracle(x, y)
    perm_stats = [
        oracle(pooled[~is_y], pooled[is_y])
        for _, masks in _seeds.relabellings(23, _seeds.BASELINE, 150, m, n)
        for is_y in masks
    ]
    # Statistics equal to the observed one count as at or above it; at
    # m = n the oracle's energy of the swapped split may differ by rounding.
    at_or_above = sum(t >= observed - 1e-12 * abs(observed) for t in perm_stats)
    outcome = baseline_permutation_test(name, x, y, 150, seed=23)
    assert outcome.p_value == (1 + at_or_above) / 151
    assert outcome.statistic == pytest.approx(observed, rel=1e-12)


@pytest.mark.parametrize("name", ["ks", "energy"])
def test_repeated_and_swapped_splits_give_the_observed_float(name):
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=50), rng.normal(size=50) * 1.7
    pool = baselines._SortedPool(x, y)
    identity = np.arange(100)
    is_y = np.stack([rng.permutation(100) >= 50, identity >= 50, identity < 50])
    stats = getattr(pool, name)(pool.labels(is_y))
    observed = (ks_statistic if name == "ks" else energy_statistic)(x, y)
    assert stats[1] == observed
    assert stats[2] == observed  # x and y swapped, m == n


@pytest.mark.parametrize("name", ["ks", "energy"])
def test_permutation_memory_is_bounded_by_a_chunk(name):
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=100_000), rng.normal(size=100_000)
    tracemalloc.start()
    try:
        baseline_permutation_test(name, x, y, 100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("entry", [
    ks_statistic,
    energy_statistic,
    lambda x, y: baseline_permutation_test("ks", x, y, 100, seed=0),
    lambda x, y: baseline_permutation_test("energy", x, y, 100, seed=0),
], ids=["ks_statistic", "energy_statistic", "permutation_ks", "permutation_energy"])
def test_non_finite_input_raises(entry, side, bad):
    x, y = [0.1, 1.0, 2.0], [0.0, 1.5]
    if side == "x":
        x[1] = bad
    else:
        y[0] = bad
    with pytest.raises(NonFiniteInput):
        entry(x, y)
