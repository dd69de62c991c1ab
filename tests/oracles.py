"""Independent routes to the augmented CDF, used only as test oracles.

``august.hypergeom.cell_probabilities_for_counts`` is the package's one
route to the cell probabilities.  The routes here check it:

- ``log_augmented_cdf`` sums hypergeometric terms through log-factorials.
  It is exact enough at small sizes (n <= 60 in these tests), but its
  rows drift from summing to one by about 1e-12 near n = 1000.
- ``exhaustive_subsample_cdf`` averages the cell indicator over every
  size-``r`` subsample.
- ``bootstrap_augmented_cdf`` estimates the cells by literal resampling.
"""

import itertools
import math

import numpy as np
from scipy.special import gammaln

from august import _seeds
from august.errors import SampleTooSmall, TooManyCombinations
from august.hypergeom import CellProbabilities


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
    probs = terms.reshape(cfg.cells, cfg.counts_per_cell).sum(axis=1)
    return CellProbabilities(probs, cfg.depth)


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
    return CellProbabilities(tallies / replicates, cfg.depth)


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
    return CellProbabilities(np.array(tallies, dtype=np.float64) / total, cfg.depth)
