"""Reference two-sample tests for the power harness.

Kolmogorov-Smirnov (exact sup distance between the empirical CDFs) and
energy distance in its V-statistic form: full double sums divided by mn,
m**2 and n**2, the zero diagonals included.  Both are calibrated by a
permutation test; the pairwise-distance sums use sorted prefix-sum
identities so a permutation costs O(N log N) rather than O(N**2).
"""

from dataclasses import dataclass

import numpy as np

from . import _seeds
from .errors import EmptySample

__all__ = [
    "BaselineResult",
    "ks_statistic",
    "energy_statistic",
    "baseline_permutation_test",
]


@dataclass(frozen=True)
class BaselineResult:
    name: str  # "ks" or "energy"
    statistic: float
    p_value: float
    permutations: int


def _as_sample(values, label):
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptySample(f"sample {label} is empty")
    return arr


def ks_statistic(x, y):
    """Sup-norm distance between the two empirical CDFs, exactly."""
    x = np.sort(_as_sample(x, "x"))
    y = np.sort(_as_sample(y, "y"))
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(cdf_x - cdf_y).max())


def _sum_abs_within(sorted_values):
    """Sum over ordered pairs |v_i - v_j|, i < j, for sorted input."""
    size = sorted_values.size
    weights = 2.0 * np.arange(1, size + 1) - 1.0 - size
    return float(weights @ sorted_values)


def _sum_abs_cross(sorted_x, sorted_y):
    """Sum over all pairs |x_i - y_j| via ranks and prefix sums."""
    m, n = sorted_x.size, sorted_y.size
    prefix = np.concatenate([[0.0], np.cumsum(sorted_x)])
    total = prefix[-1]
    counts = np.searchsorted(sorted_x, sorted_y, side="right")
    below_sums = prefix[counts]
    per_y = (
        sorted_y * counts - below_sums
        + (total - below_sums) - sorted_y * (m - counts)
    )
    return float(per_y.sum())


def energy_statistic(x, y):
    """2 E|X - Y| - E|X - X'| - E|Y - Y'| with full-double-sum means."""
    x = np.sort(_as_sample(x, "x"))
    y = np.sort(_as_sample(y, "y"))
    m, n = x.size, y.size
    cross = _sum_abs_cross(x, y) / (m * n)
    within_x = 2.0 * _sum_abs_within(x) / (m * m)
    within_y = 2.0 * _sum_abs_within(y) / (n * n)
    return 2.0 * cross - within_x - within_y


_STATISTICS = {"ks": ks_statistic, "energy": energy_statistic}


def baseline_permutation_test(name, x, y, permutations, seed):
    """Add-one permutation p-value for a named baseline statistic."""
    if name not in _STATISTICS:
        raise ValueError(f"unknown baseline {name!r}; choose from {sorted(_STATISTICS)}")
    if permutations < 100:
        raise ValueError("permutations must be at least 100")
    stat_fn = _STATISTICS[name]
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    observed = stat_fn(x, y)
    pooled = np.concatenate([x, y])
    m = x.size
    perm_stats = np.empty(permutations)
    for i in range(permutations):
        (order,) = _seeds.relabellings(seed, _seeds.BASELINE, i, i + 1, pooled.size)
        shuffled = pooled[order]
        perm_stats[i] = stat_fn(shuffled[:m], shuffled[m:])
    return BaselineResult(
        name=name,
        statistic=observed,
        p_value=_seeds.add_one_p_value(np.sort(perm_stats), observed),
        permutations=permutations,
    )
