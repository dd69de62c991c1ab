"""Multivariate testing via the mutual Mahalanobis reduction.

Each k-dimensional sample is flattened to univariate Mahalanobis distances
under moments fitted on one of the samples; doing this under both samples'
fits and taking the larger of the two univariate statistics yields a
swap-symmetric multivariate statistic.  Cells of the univariate test then
correspond to nested elliptical rings centered on the fitted mean.  The
univariate asymptotic theory does not transfer, so p-values come from a
permutation test; the statistic is recomputed wholesale (both fits, both
branches, fresh max) for every relabeling.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import _seeds
from .core import august_many, august_plus
from .errors import DimensionMismatch, SingularCovariance

__all__ = [
    "MahalanobisModel",
    "MultiResult",
    "fit_mahalanobis",
    "transform",
    "multivariate_statistic",
    "multivariate_test",
    "permutation_p_value",
]

_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class MahalanobisModel:
    """Fitted mean and covariance with a triangular inverse factor.

    ``inverse_factor`` is the inverse of the lower Cholesky factor of the
    covariance, so a point's distance is the Euclidean norm of
    ``inverse_factor @ (point - mean)``.
    """

    mean: np.ndarray
    covariance: np.ndarray
    inverse_factor: np.ndarray
    source_label: str = ""


def _as_matrix(sample):
    z = np.asarray(sample, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D sample, got ndim {z.ndim}")
    return z


def fit_mahalanobis(sample, ridge=0.0, source_label=""):
    """Fit sample mean and (optionally ridge-regularized) covariance.

    Raises ``SingularCovariance`` when the covariance cannot be factored or
    its condition number exceeds 1e12; the default ridge of 0 errors out
    rather than silently regularizing, since regularization changes the
    test.
    """
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    z = _as_matrix(sample)
    size, dim = z.shape
    if size <= dim:
        raise SingularCovariance(
            f"need more observations than dimensions, got {size} points in "
            f"{dim} dimensions"
        )
    mean = z.mean(axis=0)
    cov = np.atleast_2d(np.cov(z, rowvar=False, ddof=1))
    cov = cov + ridge * np.eye(dim)
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(
            "sample covariance is singular; reduce dimension or pass ridge > 0"
        ) from exc
    if np.linalg.cond(cov) > _MAX_CONDITION:
        raise SingularCovariance(
            "sample covariance condition number exceeds 1e12; reduce "
            "dimension or pass ridge > 0"
        )
    inverse_factor = solve_triangular(lower, np.eye(dim), lower=True)
    return MahalanobisModel(mean, cov, inverse_factor, source_label)


def transform(sample, model):
    """Mahalanobis distance of each row from the model's mean."""
    z = _as_matrix(sample)
    if z.shape[1] != model.mean.size:
        raise DimensionMismatch(
            f"sample has dimension {z.shape[1]}, model has {model.mean.size}"
        )
    whitened = (z - model.mean) @ model.inverse_factor.T
    return np.sqrt((whitened * whitened).sum(axis=1))


def _branch_results(x, y, depth, tie_policy, ridge):
    model_x = fit_mahalanobis(x, ridge, source_label="x")
    model_y = fit_mahalanobis(y, ridge, source_label="y")
    branch_x = august_plus(
        transform(x, model_x), transform(y, model_x), depth, tie_policy
    )
    branch_y = august_plus(
        transform(x, model_y), transform(y, model_y), depth, tie_policy
    )
    return branch_x, branch_y


def multivariate_statistic(x, y, depth=2, tie_policy=None, ridge=0.0):
    """Max of the two branch statistics; swap- and affine-invariant."""
    branch_x, branch_y = _branch_results(x, y, depth, tie_policy, ridge)
    return max(branch_x.statistic, branch_y.statistic)


@dataclass(frozen=True)
class MultiResult:
    """Multivariate statistic with both branches and its permutation p-value."""

    statistic: float
    branch_x: object
    branch_y: object
    p_value: float
    permutations: int

    @property
    def max_branch(self):
        """Which Mahalanobis fit attained the max ("x" or "y")."""
        return "x" if self.branch_x.statistic >= self.branch_y.statistic else "y"


def _batched_permutation_stats(pooled, m, depth, permutations, seed, ridge):
    """Statistics for seeded random relabelings, computed in batches.

    Permutation ``i`` takes its relabeling from the stream
    ``(seed, PERMUTATION domain, i)``.  Fits, distance transforms and the
    univariate statistics are all vectorized across a chunk of relabelings;
    relabeled pooled continuous data is tie-free almost surely, so no tie
    policy is applied inside the loop.
    """
    total, dim = pooled.shape
    n = total - m
    out = np.empty(permutations)
    chunk = max(1, 2_000_000 // (total * dim))
    eye = np.eye(dim)
    for start in range(0, permutations, chunk):
        stop = min(start + chunk, permutations)
        rows = stop - start
        idx = np.empty((rows, total), dtype=np.int64)
        for i in range(start, stop):
            rng = _seeds.replicate_rng(seed, _seeds.PERMUTATION, i)
            idx[i - start] = rng.permutation(total)
        xs = pooled[idx[:, :m]]  # (rows, m, dim)
        ys = pooled[idx[:, m:]]
        branch_stats = []
        for fit_on in (xs, ys):
            means = fit_on.mean(axis=1)
            centered = fit_on - means[:, None, :]
            covs = np.einsum("bik,bil->bkl", centered, centered)
            covs /= fit_on.shape[1] - 1
            covs += ridge * eye
            try:
                lowers = np.linalg.cholesky(covs)
            except np.linalg.LinAlgError as exc:
                raise SingularCovariance(
                    "a permuted covariance was singular; pass ridge > 0"
                ) from exc
            inv_factors = np.linalg.inv(lowers)
            dx = np.einsum("bkl,bil->bik", inv_factors, xs - means[:, None, :])
            dy = np.einsum("bkl,bil->bik", inv_factors, ys - means[:, None, :])
            tx = np.sqrt((dx * dx).sum(axis=2))
            ty = np.sqrt((dy * dy).sum(axis=2))
            branch_stats.append(august_many(tx, ty, depth)[0])
        out[start:stop] = np.maximum(branch_stats[0], branch_stats[1])
    return out


def _permutation_test(x, y, depth, permutations, seed, tie_policy, ridge):
    """Both branches and the add-one permutation p-value of their max."""
    if permutations < 100:
        raise ValueError("permutations must be at least 100")
    x = _as_matrix(x)
    y = _as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(
            f"samples have dimensions {x.shape[1]} and {y.shape[1]}"
        )
    branch_x, branch_y = _branch_results(x, y, depth, tie_policy, ridge)
    observed = max(branch_x.statistic, branch_y.statistic)
    perm_stats = _batched_permutation_stats(
        np.vstack([x, y]), x.shape[0], depth, permutations, seed, ridge
    )
    return branch_x, branch_y, _seeds.add_one_p_value(np.sort(perm_stats), observed)


def permutation_p_value(
    x, y, depth=2, permutations=999, seed=0, tie_policy=None, ridge=0.0
):
    """Add-one permutation p-value for the multivariate statistic."""
    return _permutation_test(
        x, y, depth, permutations, seed, tie_policy, ridge
    )[2]


def multivariate_test(
    x, y, depth=2, permutations=999, seed=0, tie_policy=None, ridge=0.0
):
    """Full multivariate test: both branches plus a permutation p-value."""
    branch_x, branch_y, pval = _permutation_test(
        x, y, depth, permutations, seed, tie_policy, ridge
    )
    return MultiResult(
        statistic=max(branch_x.statistic, branch_y.statistic),
        branch_x=branch_x,
        branch_y=branch_y,
        p_value=pval,
        permutations=permutations,
    )
