import numpy as np
import pytest

from august import (
    DimensionMismatch,
    MahalanobisModel,
    SingularCovariance,
    fit_mahalanobis,
    multivariate_statistic,
    multivariate_test,
    permutation_p_value,
    transform,
)
from august import _seeds
from august import multivariate as mv


class TestFitMahalanobis:
    def test_identical_rows_singular(self):
        z = np.ones((30, 2))
        with pytest.raises(SingularCovariance):
            fit_mahalanobis(z)

    def test_more_dimensions_than_points_singular(self):
        z = np.random.default_rng(0).normal(size=(3, 5))
        with pytest.raises(SingularCovariance):
            fit_mahalanobis(z)

    def test_ridge_rescues_degenerate_direction(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(40, 1))
        z = np.hstack([base, base])  # perfectly collinear columns
        with pytest.raises(SingularCovariance):
            fit_mahalanobis(z)
        model = fit_mahalanobis(z, ridge=0.05)
        assert np.all(np.isfinite(model.inverse_factor))

    def test_large_sample_recovers_moments(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((20_000, 2))
        model = fit_mahalanobis(z)
        stderr = 1.0 / np.sqrt(20_000)
        assert np.abs(model.mean).max() < 3 * stderr
        assert np.abs(model.covariance - np.eye(2)).max() < 5 * stderr

    def test_distance_of_mean_is_zero(self):
        rng = np.random.default_rng(3)
        model = fit_mahalanobis(rng.normal(size=(50, 3)))
        assert transform(model.mean[None, :], model)[0] == pytest.approx(0.0, abs=1e-12)


class TestTransform:
    def test_identity_model_reduces_to_euclidean(self):
        model = MahalanobisModel(np.zeros(2), np.eye(2), np.eye(2))
        assert transform(np.array([[3.0, 4.0]]), model)[0] == pytest.approx(5.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        model = fit_mahalanobis(rng.normal(size=(60, 2)))
        assert transform(rng.normal(size=(100, 2)), model).min() >= 0.0

    def test_dimension_mismatch(self):
        model = MahalanobisModel(np.zeros(2), np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            transform(np.zeros((5, 3)), model)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((80, 2))
        points = rng.standard_normal((40, 2))
        matrix = np.array([[2.0, 0.3], [-0.4, 1.5]])
        offset = np.array([5.0, -2.0])
        plain = transform(points, fit_mahalanobis(z))
        mapped = transform(points @ matrix.T + offset,
                           fit_mahalanobis(z @ matrix.T + offset))
        assert np.abs(plain - mapped).max() <= 1e-8


class TestMultivariateStatistic:
    def test_swap_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((70, 2))
        y = rng.standard_normal((80, 2))
        assert multivariate_statistic(x, y, 2) == multivariate_statistic(y, x, 2)

    def test_joint_affine_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((90, 2))
        y = rng.standard_normal((85, 2)) * 1.4
        matrix = np.array([[1.2, -0.7], [0.5, 2.0]])
        offset = np.array([3.0, 4.0])
        plain = multivariate_statistic(x, y, 2)
        mapped = multivariate_statistic(x @ matrix.T + offset, y @ matrix.T + offset, 2)
        assert abs(plain - mapped) <= 1e-8

    def test_univariate_input_accepted(self):
        rng = np.random.default_rng(8)
        stat = multivariate_statistic(rng.normal(size=40), rng.normal(size=45), 2)
        assert np.isfinite(stat)


class TestPermutationPValue:
    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal((45, 2))
        a = permutation_p_value(x, y, 2, permutations=120, seed=5)
        b = permutation_p_value(x, y, 2, permutations=120, seed=5)
        assert a == b

    def test_strong_shift_hits_floor(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((60, 2))
        y = rng.standard_normal((60, 2)) + 10.0
        pval = permutation_p_value(x, y, 2, permutations=150, seed=1)
        assert pval == 1 / 151

    def test_permutations_floor(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 2))
        with pytest.raises(ValueError):
            permutation_p_value(x, x + 1.0, 2, permutations=50, seed=0)

    def test_batched_path_matches_direct_recomputation(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((35, 2))
        y = rng.standard_normal((40, 2))
        pooled = np.vstack([x, y])
        batched = mv._batched_permutation_stats(pooled, 35, 2, 10, 77, 0.0)
        for i in range(10):
            stream = _seeds.replicate_rng(77, _seeds.PERMUTATION, i)
            idx = stream.permutation(pooled.shape[0])
            direct = multivariate_statistic(pooled[idx[:35]], pooled[idx[35:]], 2)
            assert abs(batched[i] - direct) <= 1e-12

    def test_null_calibration_smoke(self):
        # Level at alpha = 0.05 over modest trials; the full-scale version
        # lives in the acceptance suite.
        trials, rejected = 200, 0
        for trial in range(trials):
            rng = np.random.default_rng(1000 + trial)
            x = rng.standard_normal((48, 2))
            y = rng.standard_normal((48, 2))
            if permutation_p_value(x, y, 2, permutations=199, seed=trial) <= 0.05:
                rejected += 1
        assert abs(rejected / trials - 0.05) <= 0.04


class TestMultivariateTest:
    def test_result_fields_consistent(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal((55, 2)) * 2.0
        outcome = multivariate_test(x, y, 2, permutations=120, seed=3)
        assert outcome.statistic == max(
            outcome.branch_x.statistic, outcome.branch_y.statistic
        )
        assert outcome.max_branch in ("x", "y")
        assert 0 < outcome.p_value <= 1
        assert outcome.permutations == 120

    def test_branches_are_computed_once(self, monkeypatch):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal((55, 2)) + 0.3
        original, calls = mv.august_plus, []

        def counting_august_plus(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mv, "august_plus", counting_august_plus)
        outcome = multivariate_test(x, y, 2, permutations=120, seed=3)
        assert len(calls) == 2  # one per Mahalanobis branch
        assert outcome.p_value == permutation_p_value(x, y, 2, permutations=120, seed=3)
