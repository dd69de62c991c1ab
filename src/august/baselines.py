"""Reference two-sample tests for the power harness.

Kolmogorov-Smirnov (exact sup distance between the empirical CDFs) and
energy distance in its V-statistic form: full double sums divided by mn,
m**2 and n**2, the zero diagonals included.  Both are calibrated by a
permutation test.  One kernel per statistic serves the observed split and
a whole piece of relabellings: the pooled sample is sorted once, each
relabelling's label mask (``_seeds.relabellings``, in pooled order) is
gathered through the sort order into a ``(rows, N)`` matrix of x labels,
and cumulative counts over it give both empirical CDFs, in O(rows * N).
KS reads their largest gap; the energy distance is ``2 * integral of
(F_x - F_y)^2``, the V-statistic's exact equivalent, summed over the
spacings of the sorted pool.  Its terms are all nonnegative, so no
difference of large sums loses its relative accuracy, whatever the data's
offset.
"""

from dataclasses import dataclass

import numpy as np

from . import _seeds
from .errors import EmptySample, NonFiniteInput

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
    if not np.isfinite(arr).all():
        raise NonFiniteInput("samples must not contain NaN or infinite values")
    return arr


class _SortedPool:
    """The pooled sample ``x`` then ``y``, sorted once for every split of it."""

    def __init__(self, x, y):
        pooled = np.concatenate([x, y])
        order = np.argsort(pooled, kind="stable")
        self.m, self.n = x.size, y.size
        self.values = pooled[order]
        self.order = order
        self.spacings = np.diff(self.values)
        # The last point of each run of equal values, where both CDFs are read.
        self.run_ends = np.flatnonzero(np.append(self.spacings != 0, True))
        self.observed = (order < self.m)[None]

    def labels(self, is_y):
        """x labels in sorted order for y-label masks ``is_y`` in pooled order.

        ``take`` keeps the rows C-contiguous, where ``is_y[:, order]`` would
        not, so each row sums in the same order however many rows share it.
        """
        return ~np.take(is_y, self.order, axis=1)

    def ks(self, is_x):
        """Sup distance between the two empirical CDFs of each label row."""
        below_x = np.cumsum(is_x, axis=1)[:, self.run_ends]
        cdf_y = (self.run_ends + 1 - below_x) / self.n
        gap = np.subtract(below_x / self.m, cdf_y, out=cdf_y)
        return np.abs(gap, out=gap).max(axis=1)

    def energy(self, is_x):
        """Energy distance of each label row, ``2 * integral of (F_x - F_y)^2``."""
        m, n = self.m, self.n
        # m n (F_x - F_y) after each sorted point, exactly, in integers.
        lead = np.cumsum(is_x, axis=1)
        lead *= m + n
        lead -= m * np.arange(1, is_x.shape[1] + 1)
        # A row sum, not a matrix product, so a row's float does not depend
        # on how many rows share the call.
        terms = np.square(lead[:, :-1], dtype=np.float64)
        terms *= self.spacings
        return 2.0 * terms.sum(axis=1) / float(m * n) ** 2


def _observed(name, x, y):
    """The sorted pool of ``x`` and ``y``, and the named statistic of their split."""
    pool = _SortedPool(_as_sample(x, "x"), _as_sample(y, "y"))
    return pool, float(getattr(pool, name)(pool.observed)[0])


def ks_statistic(x, y):
    """Sup-norm distance between the two empirical CDFs, exactly."""
    return _observed("ks", x, y)[1]


def energy_statistic(x, y):
    """2 E|X - Y| - E|X - X'| - E|Y - Y'| with full-double-sum means."""
    return _observed("energy", x, y)[1]


def baseline_permutation_test(name, x, y, permutations, seed):
    """Add-one permutation p-value for a named baseline statistic."""
    if name not in ("ks", "energy"):
        raise ValueError(f"unknown baseline {name!r}; choose from ['energy', 'ks']")
    if permutations < 100:
        raise ValueError("permutations must be at least 100")
    pool, observed = _observed(name, x, y)
    perm_stats = np.empty(permutations)
    for start, is_y in _seeds.relabellings(
        seed, _seeds.BASELINE, permutations, pool.m, pool.n
    ):
        perm_stats[start:start + len(is_y)] = getattr(pool, name)(pool.labels(is_y))
    return BaselineResult(
        name=name,
        statistic=observed,
        p_value=_seeds.add_one_p_value(np.sort(perm_stats), observed),
        permutations=permutations,
    )
