"""Multivariate testing through mutual Mahalanobis distances.

Each k-dimensional sample is reduced to univariate distances from a fitted
mean, under the moments of sample X and, separately, of sample Y; the
statistic is the larger of the two univariate statistics, which keeps the
test symmetric in the samples.  Cells then correspond to nested elliptical
rings around the fitted mean.  P-values come from a permutation test.
"""

import numpy as np

from august import fit_mahalanobis, multivariate_test, transform

rng = np.random.default_rng(21)
m = n = 150

# Same mean, same marginal scales, different correlation structure.
x = rng.standard_normal((m, 2))
cov_chol = np.array([[1.0, 0.0], [0.75, np.sqrt(1 - 0.75**2)]])
y = rng.standard_normal((n, 2)) @ cov_chol.T

model = fit_mahalanobis(x)
print(f"fitted mean (x):       {np.round(model.mean, 3)}")
print(f"fitted covariance (x): {np.round(model.covariance, 3).tolist()}")
print(f"distance of the mean from itself: {transform(model.mean[None, :], model)[0]}")
print()

outcome = multivariate_test(x, y, depth=2, permutations=999, seed=3)
print(f"branch statistic (moments from x): {outcome.branch_x.statistic:+.4f}")
print(f"branch statistic (moments from y): {outcome.branch_y.statistic:+.4f}")
print(f"S_multi = max of branches = {outcome.statistic:+.4f} "
      f"(attained by branch {outcome.max_branch!r})")
print(f"permutation p-value ({outcome.permutations} relabelings): "
      f"{outcome.p_value:.4f}")
print()

# The statistic is invariant under any joint invertible affine map.
matrix = np.array([[2.0, 0.4], [-0.3, 1.1]])
shifted = multivariate_test(x @ matrix.T + 5.0, y @ matrix.T + 5.0,
                            depth=2, permutations=999, seed=3)
print(f"after a joint affine map: S_multi = {shifted.statistic:+.4f} "
      f"(difference {abs(shifted.statistic - outcome.statistic):.2e})")
