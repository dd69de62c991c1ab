"""Exact hypergeometric machinery for the augmented CDF.

The augmented CDF sends a point ``x`` to a length ``2**d`` probability
vector: coordinate ``k`` is the probability that a size-``r`` subsample of
the reference sample, drawn without replacement, places its empirical CDF
value at ``x`` inside the ``k``-th dyadic cell of the unit interval.  With
``r = 2**(d+1) - 1`` every cell covers two attainable ECDF values, and the
probabilities are plain hypergeometric ratios.

``cell_probabilities_for_counts`` evaluates them for many counts at once
from the product form of the hypergeometric pmf, a product of ratios of at
most about one with no logs or exponentials.  Each row is divided by its
own sum, which by Vandermonde's identity is the exact normaliser.  Counts
go through in blocks of at most 2048, so its temporaries are bounded by
one block; only the returned rows grow with the number of counts.
``augmented_cdf`` returns the row for the count below a single point.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DepthOutOfRange, SampleTooSmall

__all__ = ["SubsampleConfig", "augmented_cdf"]

# Counts per block of ``cell_probabilities_for_counts``.
_BLOCK = 2048

# Largest depth: C(r, j) for r = 2**11 - 1 = 2047 overflows a float.
_MAX_DEPTH = 9


def _is_integer(value):
    """True for a Python or numpy integer, False for a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SubsampleConfig:
    """Depth and the subsample size it fixes.

    ``r = 2**(depth+1) - 1`` places two attainable ECDF point masses in
    each of the ``2**depth`` dyadic cells.
    """

    depth: int

    def __post_init__(self):
        if not _is_integer(self.depth):
            raise DepthOutOfRange(f"depth must be an integer, got {self.depth!r}")
        if self.depth < 1:
            raise DepthOutOfRange("depth must be a positive integer")
        if self.depth > _MAX_DEPTH:
            raise DepthOutOfRange(
                f"depth {self.depth} exceeds {_MAX_DEPTH}: the binomial "
                f"weights of r = {self.r} overflow a float"
            )

    @property
    def r(self):
        """Subsample size, 2**(depth+1) - 1."""
        return (1 << (self.depth + 1)) - 1

    @property
    def cells(self):
        return 1 << self.depth

    # Number of subsample success counts mapped into each cell.
    counts_per_cell = 2


@lru_cache(maxsize=None)
def binomial_row(r):
    """Read-only floats ``C(r, j)``, j = 0 .. r: depths 1 .. 9 cache 18 rows."""
    row = np.array([math.comb(r, j) for j in range(r + 1)], dtype=np.float64)
    row.flags.writeable = False
    return row


def cell_probabilities_for_counts(counts, n, cfg):
    """Augmented-CDF rows for an array of ``#(reference <= x)`` counts.

    Returns a ``(len(counts), 2**depth)`` matrix; row ``i`` is the
    augmented CDF of any point with count ``counts[i]`` against a
    reference sample of size ``n``.  The one route to the cell
    probabilities, shared by ``augmented_cdf`` and the test statistic.

    Entries use the product form of the hypergeometric pmf, with no logs::

        P(j | K) = C(r, j) * prod_{i<j} (K - i) / (n - i)
                           * prod_{i<r-j} (n - K - i) / (n - r + 1 + i)

    Every factor is a ratio of at most about one, so nothing overflows.
    Against exact rational arithmetic (n from 60 to 1e5, depth 1 to 9)
    every entry is within 2e-16 absolute, and to depth 8 every cell above
    1e-10 is within 2e-15 relative.  Small cells lose relative accuracy,
    because partial products fall into the subnormal range: from depth 7
    the far tails underflow, and at depth 9 the relative error reaches
    1e-12 on cells near 1e-6 and cells up to about 2e-18 come out as zero.
    Each row is divided by its own sum, which is the exact normaliser by
    Vandermonde's identity and keeps the rows of ``K = 0`` and ``K = n``
    exactly one-hot.  Counts go through in blocks of at most ``_BLOCK``,
    laid out j-major so each cumulative-product step multiplies contiguous
    rows; temporaries are bounded by one block.
    """
    if n < cfg.r:
        raise SampleTooSmall(f"reference sample of size {n} < r = {cfg.r}")
    counts = np.asarray(counts, dtype=np.int64)
    r, per_cell = cfg.r, cfg.counts_per_cell
    i = np.arange(r, dtype=np.float64)[:, None]
    below_denom, above_denom = n - i, (n - r + 1) + i
    weights = binomial_row(r)[:, None]
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

    Returns the row of ``cell_probabilities_for_counts`` for ``#(y <= x)``:
    a float64 array of length ``2**depth`` that sums to one.  Coordinate
    ``k`` (0-based) is the probability that the number of subsampled points
    at or below ``x`` falls in cell ``k``'s count range ``{2k, 2k + 1}``.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    count = int(np.count_nonzero(y <= x))
    return cell_probabilities_for_counts([count], y.size, cfg)[0]
