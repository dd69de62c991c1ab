"""Multivariate testing via the mutual Mahalanobis reduction.

Each k-dimensional sample is flattened to univariate Mahalanobis distances
under moments fitted on one of the samples; doing this under both samples'
fits and taking the larger of the two univariate statistics yields a
swap-symmetric multivariate statistic.  Cells of the univariate test then
correspond to nested elliptical rings centered on the fitted mean.  The
univariate asymptotic theory does not transfer, so p-values come from a
permutation test, which fits both branches of a whole chunk of
relabelings by matrix products over the pooled points, under the
refusals of ``fit_mahalanobis``.  Each branch's squared distances are
ranked by one sort of packed keys, the float bits of a distance shifted
left by one with the point's label in the low bit, so an exact tie puts
the x point first; the sorted low bits are the label masks that
``august_labels`` scores, one call for both branches of every chunk.
"""

from dataclasses import dataclass

import numpy as np

from . import _seeds
from .core import august_labels, august_plus
from .core import august_many  # noqa: F401  (benchmark/tracer.py wraps this name)
from .errors import DimensionMismatch, NonFiniteInput, SingularCovariance

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


def _as_matrix(sample):
    z = np.asarray(sample, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D sample, got ndim {z.ndim}")
    if not np.isfinite(z).all():
        raise NonFiniteInput("samples must not contain NaN or infinite values")
    return z


def _fit(stack, ridge):
    """Means, ridged covariances and inverse Cholesky factors of (B, size, dim)."""
    if not 0 <= ridge < np.inf:  # NaN fails every comparison
        raise ValueError("ridge must be a finite nonnegative number")
    size, dim = stack.shape[1:]
    if size <= dim:
        raise SingularCovariance(
            f"need more observations than dimensions, got {size} points in "
            f"{dim} dimensions"
        )
    means = stack.mean(axis=1)
    centered = stack - means[:, None, :]
    covs = centered.transpose(0, 2, 1) @ centered / (size - 1)
    covs += ridge * np.eye(dim)
    return means, covs, _inverse_factors(covs)


def _inverse_factors(covs):
    """Inverse lower Cholesky factors of a stack of covariances, or a refusal."""
    try:
        lowers = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(
            "sample covariance is singular; reduce dimension or pass ridge > 0"
        ) from exc
    # Symmetric positive definite: the condition number is max / min eigenvalue.
    # An overflowed covariance, with inf or NaN entries, is refused as well.
    eigenvalues = np.linalg.eigvalsh(covs)
    if not (np.isfinite(covs).all() and np.all(
            eigenvalues[..., -1] <= _MAX_CONDITION * eigenvalues[..., 0])):
        raise SingularCovariance(
            "sample covariance condition number exceeds 1e12; reduce "
            "dimension or pass ridge > 0"
        )
    return np.tril(np.linalg.inv(lowers))


def _distances(stack, means, inverse_factors):
    """Distance of each row of each stacked sample from its fitted mean."""
    whitened = (stack - means[:, None, :]) @ inverse_factors.transpose(0, 2, 1)
    return np.sqrt((whitened * whitened).sum(axis=2))


def fit_mahalanobis(sample, ridge=0.0):
    """Fit sample mean and (optionally ridge-regularized) covariance.

    Raises ``SingularCovariance`` when the covariance cannot be factored or
    its condition number exceeds 1e12; the default ridge of 0 errors out
    rather than silently regularizing, since regularization changes the
    test.
    """
    means, covs, inverse_factors = _fit(_as_matrix(sample)[None], ridge)
    return MahalanobisModel(means[0], covs[0], inverse_factors[0])


def transform(sample, model):
    """Mahalanobis distance of each row from the model's mean."""
    z = _as_matrix(sample)
    if z.shape[1] != model.mean.size:
        raise DimensionMismatch(
            f"sample has dimension {z.shape[1]}, model has {model.mean.size}"
        )
    return _distances(z[None], model.mean[None], model.inverse_factor[None])[0]


def _branch_results(x, y, depth, tie_policy, ridge):
    model_x = fit_mahalanobis(x, ridge)
    model_y = fit_mahalanobis(y, ridge)
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


def _relabelled_distances(pooled, m, permutations, seed, ridge):
    """Yield ``(is_y, squared)`` for each chunk of relabelings, x branch first.

    Permutation ``i`` is ``_seeds.relabellings`` mask i in the PERMUTATION
    domain: its False points form the x sample and its True points the y
    sample.  ``squared`` holds, row by row, the squared distance of every
    pooled point under the fit of that branch's sample, in pooled order.
    A chunk's fits are matrix products over the pooled points, centred once
    (the distances are affine invariant), with the x weights the masks'
    False entries as floats, and pass ``_fit``'s refusals.
    """
    total, dim = pooled.shape
    n = total - m
    z = pooled - pooled.mean(axis=0)
    outer = (z[:, :, None] * z[:, None, :]).reshape(total, dim * dim)
    chunk = max(1, 2_000_000 // (total * dim))  # about 2e6 whitened values
    for _, piece in _seeds.relabellings(seed, _seeds.PERMUTATION, permutations, m, n):
        for is_y in np.split(piece, range(chunk, len(piece), chunk)):
            in_x = (~is_y).astype(np.float64)
            for weights, size in ((in_x, m), (1.0 - in_x, n)):
                means = weights @ z / size
                covs = (weights @ outer).reshape(-1, dim, dim)
                covs -= size * means[:, :, None] * means[:, None, :]
                factors = _inverse_factors(covs / (size - 1) + ridge * np.eye(dim))
                whitened = (factors.reshape(-1, dim) @ z.T).reshape(-1, dim, total)
                whitened -= factors @ means[:, :, None]
                yield is_y, np.square(whitened, out=whitened).sum(axis=1)


# The packed key of +inf; the keys of +inf and of every NaN are at or above it.
_NON_FINITE_KEY = np.uint64(np.float64(np.inf).view(np.uint64) << np.uint64(1))


def _sorted_labels(distances):
    """Yield each chunk's y-label masks in the order of its squared distances.

    Squared distances are at least +0.0, so their float64 bits, read as
    unsigned integers, order as their values do.  Shifted left by one, the
    sign bit (always clear) drops out and the low bit takes the point's
    label, so one in-place sort of the keys orders the points by distance
    and puts exact ties x before y; the low bits of the sorted keys are
    then the label mask.  The sort overwrites ``squared``.
    """
    for is_y, squared in distances:
        keys = squared.view(np.uint64)
        keys <<= np.uint64(1)
        keys |= is_y
        keys.sort(axis=1)
        if keys[:, -1].max() >= _NON_FINITE_KEY:
            raise NonFiniteInput("squared distances must be finite")
        keys &= np.uint64(1)
        yield keys.astype(bool)


def _batched_permutation_stats(pooled, m, depth, permutations, seed, ridge):
    """Statistics for seeded random relabelings, computed in batches.

    Each chunk of relabelings is fitted under both branches by
    ``_relabelled_distances``, and each branch's squared distances are
    ranked into label masks by ``_sorted_labels``: one sort of packed keys
    per branch.  Both branches' masks go through one ``august_labels`` call,
    as alternating chunks, so the cell rows are built once; the statistic
    is the larger of a chunk's two branch statistics.  Relabeled continuous
    data is tie-free almost surely, so no tie policy applies, and an exact
    tie, as from duplicate points, puts the x point first.  Squared
    distances rank as ``transform``'s distances do unless two of them lie
    within rounding (about 1e-15 relative) of each other, and the
    statistic reads ranks only.
    """
    n = len(pooled) - m
    masks = _sorted_labels(_relabelled_distances(pooled, m, permutations, seed, ridge))
    scored = august_labels(masks, m, n, depth)
    return np.concatenate(
        [np.maximum(x_fit[0], y_fit[0]) for x_fit, y_fit in zip(scored, scored)]
    )


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
