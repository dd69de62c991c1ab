"""Exact hypergeometric machinery for the augmented CDF.

The augmented CDF sends a point ``x`` to a length ``2**d`` probability
vector: coordinate ``k`` is the probability that a size-``r`` subsample of
the reference sample, drawn without replacement, places its empirical CDF
value at ``x`` inside the ``k``-th dyadic cell of the unit interval.  With
``r = 2**q - 1`` every cell covers the same number of attainable ECDF
values, and the probabilities are plain hypergeometric ratios.

``cell_probabilities_for_counts`` evaluates them for many counts at once
from the product form of the hypergeometric pmf, a product of ratios of at
most about one with no logs or exponentials, so every entry is accurate to
a few ulps at any sample size.  Each row is divided by its own sum, which
by Vandermonde's identity is the exact normaliser.  Counts go through in
blocks of at most 2048, so its temporaries are bounded by one block; only
the returned rows grow with the number of counts.  ``log_binomial`` and
``augmented_cdf`` keep the log-factorial route as an independent
per-point check.

Two independent oracles live here as well: a literal resampling bootstrap
and an exhaustive average over all size-``r`` subsamples.  Both must agree
with the closed form and are used heavily in the test suite.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import _seeds
from .errors import SampleTooSmall, TooManyCombinations

__all__ = [
    "CellProbabilities",
    "SubsampleConfig",
    "log_binomial",
    "augmented_cdf",
    "bootstrap_augmented_cdf",
    "exhaustive_subsample_cdf",
]

_SUM_TOL = 1e-12

# Counts per block of ``cell_probabilities_for_counts``.
_BLOCK = 2048

# Grow-only log-factorial table; replaced wholesale, never mutated in place,
# so concurrent readers always see a consistent array.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorial_table(n):
    """Array ``lf`` with ``lf[k] = ln k!`` for ``0 <= k <= n``."""
    global _LOG_FACTORIALS
    if n >= _LOG_FACTORIALS.size:
        size = max(n + 1, 2 * _LOG_FACTORIALS.size)
        _LOG_FACTORIALS = gammaln(np.arange(size, dtype=np.float64) + 1.0)
    return _LOG_FACTORIALS


def log_binomial(n, k):
    """ln C(n, k), with ``-inf`` for ``k < 0`` or ``k > n``.

    The ``-inf`` sentinel exponentiates to an exact zero contribution, so
    boundary cells need no special casing downstream.  ``k`` may be a
    scalar or an integer array.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lf = _log_factorial_table(n)
    k_arr = np.asarray(k, dtype=np.int64)
    valid = (k_arr >= 0) & (k_arr <= n)
    safe = np.where(valid, k_arr, 0)
    out = np.where(valid, lf[n] - lf[safe] - lf[n - safe], -np.inf)
    return float(out) if np.isscalar(k) else out


@dataclass(frozen=True)
class SubsampleConfig:
    """Depth and subsample-size configuration.

    ``r = 2**q - 1`` guarantees equally many attainable ECDF point masses
    per dyadic cell for any ``q >= depth``; ``q = depth + 1`` is the
    empirically recommended default.
    """

    depth: int
    q: int = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be a positive integer")
        if self.q is None:
            object.__setattr__(self, "q", self.depth + 1)
        if self.q < self.depth:
            raise ValueError("q must be at least depth")

    @property
    def r(self):
        """Subsample size, 2**q - 1."""
        return (1 << self.q) - 1

    @property
    def cells(self):
        return 1 << self.depth

    @property
    def counts_per_cell(self):
        """Number of subsample success counts mapped into each cell."""
        return 1 << (self.q - self.depth)


@dataclass(frozen=True)
class CellProbabilities:
    """Length ``2**depth`` probability vector over dyadic cells."""

    probs: np.ndarray
    depth: int

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (1 << self.depth,):
            raise ValueError(
                f"expected {1 << self.depth} cells at depth {self.depth}, "
                f"got shape {probs.shape}"
            )
        if probs.min() < -_SUM_TOL or probs.max() > 1.0 + _SUM_TOL:
            raise ValueError("cell probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise ValueError("cell probabilities must sum to 1")


def cell_probabilities_for_counts(counts, n, cfg):
    """Augmented-CDF rows for an array of ``#(reference <= x)`` counts.

    Returns a ``(len(counts), 2**depth)`` matrix; row ``i`` equals
    ``augmented_cdf`` for any point with count ``counts[i]`` against a
    reference sample of size ``n``.  Vectorized workhorse shared by the
    test-statistic algorithms.

    Entries use the product form of the hypergeometric pmf, with no logs::

        P(j | K) = C(r, j) * prod_{i<j} (K - i) / (n - i)
                           * prod_{i<r-j} (n - K - i) / (n - r + 1 + i)

    Every factor is a ratio of at most about one, so each entry is good to
    a few ulps at any ``n``.  Each row is divided by its own sum, which is
    the exact normaliser by Vandermonde's identity and keeps the rows of
    ``K = 0`` and ``K = n`` exactly one-hot.  Counts go through in blocks
    of at most ``_BLOCK``, laid out j-major so each cumulative-product step
    multiplies contiguous rows; temporaries are bounded by one block.
    """
    if n < cfg.r:
        raise SampleTooSmall(f"reference sample of size {n} < r = {cfg.r}")
    counts = np.asarray(counts, dtype=np.int64)
    r, per_cell = cfg.r, cfg.counts_per_cell
    i = np.arange(r, dtype=np.float64)[:, None]
    below_denom, above_denom = n - i, (n - r + 1) + i
    weights = np.array([[math.comb(r, j)] for j in range(r + 1)], dtype=np.float64)
    out = np.empty((counts.size, cfg.cells))
    width = max(1, min(_BLOCK, counts.size))
    # Column c of a block is one count K: below[j] = prod_{i<j} (K - i) / (n - i)
    # and above[t] = prod_{i<t} (n - K - i) / (n - r + 1 + i).
    below = np.empty((r + 1, width))
    above = np.empty((r + 1, width))
    cells = np.empty((cfg.cells, width))
    for start in range(0, counts.size, width):
        k = counts[start:start + width].astype(np.float64)
        lo, hi, cell = below[:, :k.size], above[:, :k.size], cells[:, :k.size]
        lo[0] = hi[0] = 1.0
        np.subtract(k, i, out=lo[1:])
        np.subtract(n - k, i, out=hi[1:])
        lo[1:] /= below_denom
        hi[1:] /= above_denom
        for j in range(2, r + 1):
            lo[j] *= lo[j - 1]
            hi[j] *= hi[j - 1]
        # Past i = K a factor turns negative, but the product is already an
        # exact zero, so only its sign can be wrong; abs() below clears it.
        lo *= hi[::-1]
        lo *= weights
        # Sums run in a fixed order, so a row does not depend on its block.
        np.copyto(cell, lo[::per_cell])
        for offset in range(1, per_cell):
            cell += lo[offset::per_cell]
        total = cell[0].copy()
        for row in cell[1:]:
            total += row
        cell /= total
        np.abs(cell.T, out=out[start:start + k.size])
    return out


def augmented_cdf(x, y, cfg):
    """Exact hypergeometric cell probabilities of ``x`` against sample ``y``.

    Coordinate ``k`` (0-based) is the probability that the number of
    subsampled points at or below ``x`` falls in cell ``k``'s count range;
    for the default ``q = depth + 1`` that range is ``{2k, 2k + 1}``.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    if n < cfg.r:
        raise SampleTooSmall(f"sample of size {n} < r = {cfg.r}")
    below = int(np.count_nonzero(y <= x))
    r = cfg.r
    width = cfg.counts_per_cell
    log_denom = log_binomial(n, r)
    probs = np.empty(cfg.cells)
    for cell in range(cfg.cells):
        acc = 0.0
        for j in range(cell * width, (cell + 1) * width):
            acc += float(np.exp(
                log_binomial(below, j)
                + log_binomial(n - below, r - j)
                - log_denom
            ))
        probs[cell] = acc
    return CellProbabilities(probs, cfg.depth)


def bootstrap_augmented_cdf(x, y, cfg, replicates, seed):
    """Monte-Carlo estimate of the augmented CDF by literal resampling.

    Draws ``replicates`` subsamples of size ``r`` without replacement,
    computes the subsample ECDF at ``x`` each time and bins the values at
    dyadic intervals.  Converges to ``augmented_cdf`` at the usual
    ``O(replicates**-0.5)`` Monte-Carlo rate; deterministic given ``seed``.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    if n < cfg.r:
        raise SampleTooSmall(f"sample of size {n} < r = {cfg.r}")
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
    which cell the subsample ECDF at ``x`` lands in.  Independent oracle
    for ``augmented_cdf``; the two must agree to 1e-12.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    if n < cfg.r:
        raise SampleTooSmall(f"sample of size {n} < r = {cfg.r}")
    total = math.comb(n, cfg.r)
    if total > 10_000_000:
        raise TooManyCombinations(
            f"C({n}, {cfg.r}) = {total} exceeds the 1e7 enumeration budget"
        )
    below = [int(v) for v in (y <= x)]
    width = cfg.counts_per_cell
    tallies = [0] * cfg.cells
    for combo in itertools.combinations(below, cfg.r):
        tallies[sum(combo) // width] += 1
    return CellProbabilities(np.array(tallies, dtype=np.float64) / total, cfg.depth)
