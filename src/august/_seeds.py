"""The replicate engine: seeded streams, replicate blocks and add-one p-values.

Every stochastic operation derives its streams from ``(seed, domain,
index)`` by one rule, ``replicate_streams``: replicate i of a domain draws
next, in order, from the stream of block ``i // BLOCK``.  ``replicate_blocks``
draws value pairs (power and covariance replicates) and ``relabellings``
draws index orders (the permutation tests and, read as label sequences, the
null tables) through it, in chunks whose size does not change the draws.
Aggregation is order-independent (counts, sums, sorted pools), so which
draws a result uses does not depend on scheduling or chunking.  Domains
keep the streams of different operations disjoint under one user seed.
"""

import itertools

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


def replicate_streams(seed, domain, count):
    """Yield the generator that replicate i draws from, for i < ``count``.

    Replicate i draws next, in order, from ``replicate_rng(seed, domain,
    i // BLOCK)``: each block of ``BLOCK`` replicates shares one stream.
    """
    for block in range(0, count, BLOCK):
        yield from itertools.repeat(
            replicate_rng(seed, domain, block // BLOCK), min(BLOCK, count - block)
        )


def replicate_blocks(seed, domain, reps, gen_x, gen_y, m, n, rows):
    """Yield ``(xs, ys)`` stacks of up to ``rows`` replicate pairs.

    Replicate i draws x, then y, from its ``replicate_streams`` generator,
    so the pairs do not depend on ``rows``.
    """
    streams = replicate_streams(seed, domain, reps)
    for start in range(0, reps, rows):
        size = min(rows, reps - start)
        for row in range(size):
            rng = next(streams)
            x, y = gen_x(rng, m), gen_y(rng, n)
            if row == 0:  # a draw is a vector of values or a matrix of points
                xs = np.empty((size,) + x.shape)
                ys = np.empty((size,) + y.shape)
            xs[row], ys[row] = x, y
        yield xs, ys


def relabellings(seed, domain, permutations, total, rows):
    """Yield ``(start, idx)`` chunks of up to ``rows`` relabellings of ``total`` points.

    Relabelling i, whatever ``rows`` is, is the ``permutation(total)`` that
    replicate i draws from its ``replicate_streams`` generator.  ``permuted``
    makes the same Fisher-Yates draws row by row, in one call per cache-sized
    piece of each run of rows that share a generator.
    """
    streams = replicate_streams(seed, domain, permutations)
    piece = max(1, 2**16 // total)  # rows whose copy and shuffle stay in cache
    for start in range(0, permutations, rows):
        idx = np.empty((min(rows, permutations - start), total), dtype=np.int64)
        row = 0
        for rng, run in itertools.groupby(itertools.islice(streams, len(idx))):
            stop = row + sum(1 for _ in run)
            for part in np.split(idx[row:stop], range(piece, stop - row, piece)):
                rng.permuted(np.broadcast_to(np.arange(total), part.shape), axis=1,
                             out=part)
            row = stop
        yield start, idx


def add_one_p_value(null, statistic):
    """Add-one p-value ``(1 + #{t >= S}) / (B + 1)`` of a number or array S.

    ``null`` holds the B null draws t, sorted ascending.  The added one
    keeps p > 0 and the test valid at any finite B.
    """
    at_or_above = null.size - np.searchsorted(null, statistic, side="left")
    p = (1 + at_or_above) / (null.size + 1)
    return float(p) if np.ndim(p) == 0 else p
