"""Independent routes to the augmented CDF, used only as test oracles.

``august.hypergeom.cell_probabilities_for_counts`` is the package's one
route to the cell probabilities.  The routes here check it:

- ``log_augmented_cdf`` sums hypergeometric terms through log-factorials.
  It is exact enough at small sizes (n <= 60 in these tests), but its
  rows drift from summing to one by about 1e-12 near n = 1000.
- ``exhaustive_subsample_cdf`` averages the cell indicator over every
  size-``r`` subsample, and raises ``TooManyCombinations`` past 1e7 of
  them.
- ``bootstrap_augmented_cdf`` estimates the cells by literal resampling.

``august.baselines`` computes KS and energy distance with one kernel over
a chunk of relabellings.  ``ks_statistic`` and ``energy_statistic`` here
compute them one sample pair at a time, and ``exact_energy_statistic`` in
rational arithmetic.

``august.inference`` builds the binomial cells of ``alternative_mu`` and
their slopes in numpy.  ``binomial_cells`` and ``binomial_slopes`` read them
from ``scipy.stats.binom`` instead.

``august.build_null_table`` draws null replicates as label sequences.
``float_null_statistics`` draws them the long way, as samples of values
from a continuous law, so the tests can check that both give one law.

``august._seeds._fix_counts`` evens out the y labels of a piece of label
masks.  ``fix_counts_full_scan`` makes the same draws and flips through
passes over the whole piece: per-row ``count_nonzero``, a 64-bit timsort
of the steps and a boolean mask over every surplus position.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln
from scipy.stats import binom

from august import _seeds
from august.core import august_many
from august.errors import AugustError, SampleTooSmall
from august.hypergeom import SubsampleConfig


class TooManyCombinations(AugustError):
    """Exhaustive subsample enumeration would exceed the combination budget."""


def _checked_reference(y, cfg):
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size < cfg.r:
        raise SampleTooSmall(f"sample of size {y.size} < r = {cfg.r}")
    return y


def log_binomial(n, k):
    """ln C(n, k), with ``-inf`` for ``k < 0`` or ``k > n``.

    The ``-inf`` sentinel exponentiates to an exact zero contribution, so
    boundary cells need no special casing.  ``k`` may be a scalar or an
    integer array.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lf = gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)
    k_arr = np.asarray(k, dtype=np.int64)
    valid = (k_arr >= 0) & (k_arr <= n)
    safe = np.where(valid, k_arr, 0)
    out = np.where(valid, lf[n] - lf[safe] - lf[n - safe], -np.inf)
    return float(out) if np.isscalar(k) else out


def log_augmented_cdf(x, y, cfg):
    """The augmented CDF of ``x`` against ``y`` through log-factorials."""
    y = _checked_reference(y, cfg)
    n = y.size
    below = int(np.count_nonzero(y <= x))
    j = np.arange(cfg.r + 1)
    terms = np.exp(
        log_binomial(below, j)
        + log_binomial(n - below, cfg.r - j)
        - log_binomial(n, cfg.r)
    )
    return terms.reshape(cfg.cells, cfg.counts_per_cell).sum(axis=1)


def binomial_cells(depth, w):
    """Cell k holds the Binomial(r, w) counts 2k and 2k + 1; one column per w."""
    r = SubsampleConfig(depth).r
    edges = np.arange(0, r + 2, 2)
    return -np.diff(binom.sf(edges[:, None] - 1, r, w), axis=0)


def binomial_slopes(depth, u):
    """d/du of ``binomial_cells`` at u.

    Uses d/du P(Bin(r, u) >= a) = r * P(Bin(r - 1, u) = a - 1).
    """
    r = SubsampleConfig(depth).r
    edges = np.arange(0, r + 2, 2)
    return -r * np.diff(binom.pmf(edges[:, None] - 1, r - 1, u), axis=0)


def bootstrap_augmented_cdf(x, y, cfg, replicates, seed):
    """Monte-Carlo estimate of the augmented CDF by literal resampling.

    Draws ``replicates`` subsamples of size ``r`` without replacement,
    computes the subsample ECDF at ``x`` each time and bins the values at
    dyadic intervals.  Converges to the augmented CDF at the usual
    ``O(replicates**-0.5)`` Monte-Carlo rate; deterministic given ``seed``.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    y = _checked_reference(y, cfg)
    n = y.size
    below = y <= x
    cells = cfg.cells
    rng = _seeds.replicate_rng(seed, _seeds.BOOTSTRAP)
    tallies = np.zeros(cells, dtype=np.int64)
    chunk = max(1, 10_000_000 // max(n, 1))
    done = 0
    while done < replicates:
        take = min(chunk, replicates - done)
        u = rng.random((take, n))
        picks = np.argpartition(u, cfg.r - 1, axis=1)[:, : cfg.r]
        ecdf = below[picks].sum(axis=1) / cfg.r
        idx = np.minimum((ecdf * cells).astype(np.int64), cells - 1)
        tallies += np.bincount(idx, minlength=cells)
        done += take
    return tallies / replicates


def exhaustive_subsample_cdf(x, y, cfg):
    """Exact average of the cell-indicator kernel over all subsamples.

    Enumerates every size-``r`` combination of ``y`` lazily and tallies
    which cell the subsample ECDF at ``x`` lands in.  Refuses more than
    1e7 combinations.
    """
    y = _checked_reference(y, cfg)
    total = math.comb(y.size, cfg.r)
    if total > 10_000_000:
        raise TooManyCombinations(
            f"C({y.size}, {cfg.r}) = {total} exceeds the 1e7 enumeration budget"
        )
    below = [int(v) for v in (y <= x)]
    width = cfg.counts_per_cell
    tallies = [0] * cfg.cells
    for combo in itertools.combinations(below, cfg.r):
        tallies[sum(combo) // width] += 1
    return np.array(tallies, dtype=np.float64) / total


def ks_statistic(x, y):
    """Sup distance between the two empirical CDFs, one sample at a time.

    Reads both CDFs by ``searchsorted`` at every pooled point.
    """
    x = np.sort(np.asarray(x, dtype=np.float64).ravel())
    y = np.sort(np.asarray(y, dtype=np.float64).ravel())
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
    m = sorted_x.size
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
    """Energy distance, one sample at a time, through sorted prefix sums."""
    x = np.sort(np.asarray(x, dtype=np.float64).ravel())
    y = np.sort(np.asarray(y, dtype=np.float64).ravel())
    m, n = x.size, y.size
    cross = _sum_abs_cross(x, y) / (m * n)
    within_x = 2.0 * _sum_abs_within(x) / (m * m)
    within_y = 2.0 * _sum_abs_within(y) / (n * n)
    return 2.0 * cross - within_x - within_y


def exact_energy_statistic(x, y):
    """Energy distance in exact rational arithmetic on the float inputs."""
    def pair_sum(values):
        ordered = sorted(Fraction(v) for v in values)
        size = len(ordered)
        return sum((2 * k - 1 - size) * v for k, v in enumerate(ordered, 1))

    x = [float(v) for v in np.ravel(x)]
    y = [float(v) for v in np.ravel(y)]
    m, n = len(x), len(y)
    within_x, within_y = pair_sum(x), pair_sum(y)
    cross = pair_sum(x + y) - within_x - within_y
    return 2 * cross / (m * n) - 2 * within_x / (m * m) - 2 * within_y / (n * n)


def float_null_statistics(m, n, depth, sims, seed, sampler):
    """Sorted null statistics of ``sims`` value pairs drawn by ``sampler``.

    Replicate i draws x and then y with ``sampler(rng, size)`` from its own
    stream ``(seed, NULL_TABLE, i)``, unlike the package's block streams,
    and goes through ``august_many`` in chunks of 2048 replicates.
    """
    stats = []
    for start in range(0, sims, 2048):
        rngs = [_seeds.replicate_rng(seed, _seeds.NULL_TABLE, i)
                for i in range(start, min(sims, start + 2048))]
        xs = np.array([sampler(rng, m) for rng in rngs])
        ys = np.array([sampler(rng, n) for rng in rngs])
        stats.append(august_many(xs, ys, depth)[0])
    return np.sort(np.concatenate(stats))


def fix_counts_full_scan(mask, n, rng):
    """``_seeds._fix_counts`` by full passes: the same draws, the same flips."""
    total = mask.shape[1]
    counts = np.count_nonzero(mask, axis=1)
    over = counts > n
    flips = np.abs(counts - n)
    ends = np.cumsum(flips)
    if not ends[-1]:
        return
    size = np.where(over, counts, total - counts)
    step = np.arange(ends[-1]) - np.repeat(ends - flips, flips)
    j = np.repeat(size - flips, flips) + step
    t = rng.integers(0, j + 1)
    base = np.repeat(np.cumsum(size) - size, flips)
    by_step = np.argsort(step, kind="stable")
    t = (t + base)[by_step]
    j = (j + base)[by_step]
    taken = np.zeros(size.sum(), dtype=bool)
    done = 0
    for live in np.bincount(step).tolist():
        picked = t[done:done + live]
        picked = np.where(taken[picked], j[done:done + live], picked)
        taken[picked] = True
        done += live
    at = np.flatnonzero(mask == over[:, None])[taken]
    flat = mask.ravel()
    flat[at] = ~flat[at]
