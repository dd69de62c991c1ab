import numpy as np
import pytest

from august import (
    DimensionMismatch,
    MahalanobisModel,
    NonFiniteInput,
    SingularCovariance,
    fit_mahalanobis,
    multivariate_statistic,
    multivariate_test,
    permutation_p_value,
    transform,
)
from august import _seeds
from august import multivariate as mv
from august.core import august_labels


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

    def test_condition_refusal_is_the_svd_condition_refusal(self):
        # Eigenvalue and SVD estimates of a condition number near 1e12 differ
        # by up to about 4e-4 relative, so the covariances keep 1e-3 from it.
        rng = np.random.default_rng(23)
        for dim in (2, 3):
            condition = np.geomspace(1e11, 1e13, 2000)
            rotations = np.linalg.qr(rng.standard_normal((2000, dim, dim)))[0]
            scale = 10.0 ** rng.uniform(-3, 3, (2000, 1))
            spectrum = scale * condition[:, None] ** rng.uniform(-1, 0, (2000, dim))
            spectrum[:, 0], spectrum[:, -1] = scale[:, 0] / condition, scale[:, 0]
            covs = (rotations * spectrum[:, None, :]) @ rotations.transpose(0, 2, 1)
            covs = (covs + covs.transpose(0, 2, 1)) / 2
            svd = np.linalg.cond(covs)
            kept = np.abs(svd / 1e12 - 1) > 1e-3
            assert 0 < (svd[kept] > 1e12).sum() < kept.sum()
            for cov, refused in zip(covs[kept], svd[kept] > 1e12):
                if refused:
                    with pytest.raises(SingularCovariance, match="exceeds 1e12"):
                        mv._inverse_factors(cov[None])
                else:
                    assert np.isfinite(mv._inverse_factors(cov[None])).all()

    def test_overflowing_covariance_is_refused(self):
        # Squares of 1e155 overflow: the covariance holds inf, and NaN where
        # inf - inf meets, and cannot be factored.
        z = np.random.default_rng(24).normal(size=(30, 2)) * 1e155
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularCovariance, match="exceeds 1e12"):
                fit_mahalanobis(z)
            for cov in ([[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
                with pytest.raises(SingularCovariance, match="exceeds 1e12"):
                    mv._inverse_factors(np.array([cov]))


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
        # Relabelling i is mask i of the PERMUTATION domain: False is x.
        (_, masks), = _seeds.relabellings(77, _seeds.PERMUTATION, 10, 35, 40)
        for i, is_y in enumerate(masks):
            direct = multivariate_statistic(pooled[~is_y], pooled[is_y], 2)
            assert abs(batched[i] - direct) <= 1e-12

    def test_loop_distances_rank_as_the_observed_reduction(self, monkeypatch):
        # The statistic reads ranks only: under every relabelling and branch
        # the loop's squared distances order the pooled points as the
        # distances of fit_mahalanobis and transform do, their roots agree
        # with those distances to rounding, and the mask the loop hands to
        # august_labels is the labels in that order.
        rng = np.random.default_rng(16)
        pooled = np.vstack([rng.standard_normal((35, 3)),
                            rng.standard_normal((40, 3)) * 1.3])
        seen = []

        def recording_august_labels(chunks, m, n, depth):
            for is_y in chunks:
                seen.append(is_y)
                yield (np.zeros(len(is_y)),)

        monkeypatch.setattr(mv, "august_labels", recording_august_labels)
        mv._batched_permutation_stats(pooled, 35, 2, 20, 5, 0.0)
        (x_is_y, x_fit), (y_is_y, y_fit) = mv._relabelled_distances(
            pooled, 35, 20, 5, 0.0)
        (_, masks), = _seeds.relabellings(5, _seeds.PERMUTATION, 20, 35, 40)
        assert np.array_equal(x_is_y, masks) and np.array_equal(y_is_y, masks)
        labels = np.arange(75) >= 35  # y after x, as in the direct reduction
        for i, is_y in enumerate(masks):
            x, y = pooled[~is_y], pooled[is_y]
            for model, squared, handed in ((fit_mahalanobis(x), x_fit, seen[0]),
                                           (fit_mahalanobis(y), y_fit, seen[1])):
                loop = np.concatenate([squared[i][~is_y], squared[i][is_y]])
                direct = np.concatenate([transform(x, model), transform(y, model)])
                assert np.array_equal(np.argsort(loop), np.argsort(direct))
                assert np.allclose(np.sqrt(loop), direct, rtol=1e-12, atol=0)
                assert np.array_equal(handed[i], labels[np.argsort(direct)])

    def test_exact_ties_put_x_before_y(self):
        # Duplicate points tie exactly under every fit; the loop ranks them
        # as a lexsort on (distance, label) does, and the other tie order
        # gives other statistics.
        rng = np.random.default_rng(21)
        base = rng.standard_normal((30, 2))
        pooled = np.vstack([base, base[:25]])
        m, n = 27, 28

        def reference(y_first):
            masks = (np.take_along_axis(is_y, np.lexsort((is_y != y_first, squared)), 1)
                     for is_y, squared in mv._relabelled_distances(pooled, m, 300, 3, 0.0))
            scored = august_labels(masks, m, n, 2)
            return np.concatenate([np.maximum(x_fit[0], y_fit[0])
                                   for x_fit, y_fit in zip(scored, scored)])

        for is_y, squared in mv._relabelled_distances(pooled, m, 300, 3, 0.0):
            tied = squared[:, :25] == squared[:, 30:]
            assert (tied & (is_y[:, :25] != is_y[:, 30:])).any()
        loop = mv._batched_permutation_stats(pooled, m, 2, 300, 3, 0.0)
        assert np.array_equal(loop, reference(y_first=False))
        assert not np.array_equal(loop, reference(y_first=True))

    def test_one_row_chunk_is_its_row_of_a_larger_batch(self):
        # With 2049 permutations the second block is one relabelling, scored
        # alone; with 2100 it is the first of 52.
        rng = np.random.default_rng(22)
        pooled = np.vstack([rng.standard_normal((20, 2)),
                            rng.standard_normal((24, 2)) + 0.2])
        alone = mv._batched_permutation_stats(pooled, 20, 2, 2049, 9, 0.0)
        batched = mv._batched_permutation_stats(pooled, 20, 2, 2100, 9, 0.0)
        assert abs(alone[2048] - batched[2048]) <= 1e-15
        assert np.allclose(alone[:2048], batched[:2048], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf])
    def test_non_finite_distances_are_refused(self, bad):
        is_y = np.array([[False, True, False, True]] * 2)
        squared = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 1.0, 0.5, 3.0]])
        assert np.array_equal(next(mv._sorted_labels([(is_y, squared.copy())])),
                              [[False, True, False, True], [False, True, True, False]])
        squared[1, 2] = bad
        with pytest.raises(NonFiniteInput):
            list(mv._sorted_labels([(is_y, squared)]))

    def test_singular_relabelling_is_refused_as_fit_refuses(self):
        # Both observed fits succeed; a relabelling that puts the three
        # collinear points (pooled rows 3 to 5) alone in the x sample is
        # refused, and a seed whose relabellings never do so is not.
        x = np.random.default_rng(4).normal(size=(3, 2))
        y = np.vstack([[(k, 2 * k + 1) for k in range(3)],
                       np.random.default_rng(5).normal(size=(2, 2))])
        assert np.isfinite(multivariate_statistic(x, y, 1))
        collinear_y = np.array([True] * 3 + [False] * 3 + [True] * 2)

        def isolates_the_line(seed):
            (_, masks), = _seeds.relabellings(seed, _seeds.PERMUTATION, 100, 3, 5)
            return bool((masks == collinear_y).all(axis=1).any())

        isolating = [isolates_the_line(seed) for seed in range(40)]
        with pytest.raises(SingularCovariance) as refused:
            permutation_p_value(x, y, 1, 100, isolating.index(True))
        assert str(refused.value) == (
            "sample covariance is singular; reduce dimension or pass ridge > 0"
        )
        assert 0 < permutation_p_value(x, y, 1, 100, isolating.index(False)) <= 1
        for ridge in (-1, np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge must be a finite nonnegative"):
                permutation_p_value(x, y, 1, 100, 2, ridge=ridge)

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("entry", [
    lambda x, y: (fit_mahalanobis(x), fit_mahalanobis(y)),
    multivariate_statistic,
    lambda x, y: multivariate_test(x, y, permutations=100, seed=0),
    lambda x, y: permutation_p_value(x, y, permutations=100, seed=0),
], ids=["fit_mahalanobis", "multivariate_statistic", "multivariate_test",
        "permutation_p_value"])
def test_non_finite_input_raises(entry, side, bad):
    rng = np.random.default_rng(17)
    x, y = rng.standard_normal((30, 2)), rng.standard_normal((35, 2))
    (x if side == "x" else y)[3, 1] = bad
    with pytest.raises(NonFiniteInput):
        entry(x, y)
