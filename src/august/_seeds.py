"""The replicate engine: seeded streams, replicate blocks and add-one p-values.

Every stochastic operation derives its streams from ``(seed, domain,
index)``.  ``replicate_blocks`` draws value pairs, one stream per replicate;
``relabellings`` draws index orders (the permutation tests and, read as
label sequences, the null tables), one stream per block of ``BLOCK``.
Aggregation is order-independent (counts, sums, sorted pools), so which
draws a result uses does not depend on scheduling or chunking.  Domains
keep the streams of different operations disjoint under one user seed.
"""

import numpy as np

# Domain tags; each seeded operation owns one.
NULL_TABLE = 0
POWER_TRIAL = 1
SIGMA = 2
PERMUTATION = 3
BOOTSTRAP = 4  # the resampling oracle in the tests
TIE_JITTER = 6
BASELINE = 7
NESTED_TEST = 8

BLOCK = 2048


def replicate_rng(seed, domain, index=0):
    """Generator for replicate ``index`` of ``domain`` under ``seed``."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return np.random.default_rng(np.random.SeedSequence((seed, domain, index)))


def replicate_blocks(seed, domain, reps, gen_x, gen_y, m, n):
    """Yield ``(xs, ys)`` stacks of up to ``BLOCK`` replicate pairs.

    Replicate i draws x, then y, from ``replicate_rng(seed, domain, i)``.
    """
    for start in range(0, reps, BLOCK):
        size = min(BLOCK, reps - start)
        for row in range(size):
            rng = replicate_rng(seed, domain, start + row)
            x, y = gen_x(rng, m), gen_y(rng, n)
            if row == 0:  # a draw is a vector of values or a matrix of points
                xs = np.empty((size,) + x.shape)
                ys = np.empty((size,) + y.shape)
            xs[row], ys[row] = x, y
        yield xs, ys


def relabellings(seed, domain, permutations, total, rows):
    """Yield ``(start, idx)`` chunks of up to ``rows`` relabellings of ``total`` points.

    Relabelling i, whatever ``rows`` is, is the (i mod ``BLOCK``)-th
    ``permutation(total)`` drawn from ``replicate_rng(seed, domain, i // BLOCK)``.
    """
    for start in range(0, permutations, rows):
        idx = np.empty((min(rows, permutations - start), total), dtype=np.int64)
        for row in range(idx.shape[0]):
            if (start + row) % BLOCK == 0:
                rng = replicate_rng(seed, domain, (start + row) // BLOCK)
            idx[row] = rng.permutation(total)
        yield start, idx


def nested_seed(seed, index):
    """Seed for the test nested in replicate ``index`` of a power study."""
    return int(replicate_rng(seed, NESTED_TEST, index).integers(2**63))


def add_one_p_value(null, statistic):
    """Add-one p-value ``(1 + #{t >= S}) / (B + 1)`` of a number or array S.

    ``null`` holds the B null draws t, sorted ascending.  The added one
    keeps p > 0 and the test valid at any finite B.
    """
    at_or_above = null.size - np.searchsorted(null, statistic, side="left")
    p = (1 + at_or_above) / (null.size + 1)
    return float(p) if np.ndim(p) == 0 else p
