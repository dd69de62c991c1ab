"""The replicate engine: seeded streams, replicate blocks and add-one p-values.

Every stochastic operation derives its streams from ``(seed, domain,
index)`` by one rule, ``replicate_streams``: replicate i of a domain draws
next, in order, from the stream of block ``i // BLOCK``.  ``replicate_blocks``
draws value pairs (power and covariance replicates) through it, in chunks
whose size does not change the draws.  Aggregation is order-independent
(counts, sums, sorted pools), so which draws a result uses does not depend
on scheduling or chunking.  Domains keep the streams of different
operations disjoint under one user seed.

``relabellings`` draws the label sequences that every null replicate and
permutation reads (the null tables, the KS and energy permutation tests
and the multivariate test): boolean masks with exactly n y labels among
m + n points.  A block of relabellings draws from two streams: its
``replicate_rng`` stream gives the bulk labels, and that stream's first
spawned child the fix-ups.  Each row takes its bulk labels iid, y where a
16-bit draw is below ``round(65536 n / N)``, and then flips |c - n| of
the positions that carry its surplus label, a uniform choice among them.
The map from bulk labels to output commutes with every permutation of the
positions, so the output law is exchangeable; with exactly n y labels in
every row it is uniform over all C(N, n) label sequences, whatever the
threshold.  Rows consume both streams in order, so relabelling i does not
depend on how the rows are cut into pieces.
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


def _row_counts(mask):
    """Number of True per row of a boolean ``mask``.

    A sum of the mask's bytes in the narrowest integer that holds a row's
    count, since ``np.count_nonzero(mask, axis=1)`` and a sum in the
    default integer widen every byte to 64 bits first.
    """
    wide = np.uint16 if mask.shape[1] < 1 << 16 else np.uint32
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=wide).astype(np.int64)


def _fix_counts(mask, n, rng):
    """Flip uniformly chosen surplus labels until every row of ``mask`` has n True.

    A row with c True flips |c - n| of the positions that carry the surplus
    label, a uniform subset of them by Floyd's algorithm (Bentley and Floyd
    1987): the step that picks the s-th of k ranks among S draws t from
    [0, j], j = S - k + s, and takes j if t is taken already.  Every rank is
    drawn up front, row by row, as exact bounded integers from ``rng``;
    the steps then run across all rows at once, each row's ranks in its own
    stretch of ``taken``.

    Two passes read the whole piece: the row counts, and one
    ``flatnonzero`` that lists the surplus positions.  Everything else
    works on the flips alone: a stable sort on a 16-bit step key puts the
    ranks in step order (a radix sort, where the 64-bit key took a
    timsort), and the final pick of every step is kept in place, so the
    flips are one integer gather of the surplus positions at those picks,
    not a boolean pass over every surplus position.
    """
    total = mask.shape[1]
    counts = _row_counts(mask)
    over = counts > n
    flips = np.abs(counts - n)
    ends = np.cumsum(flips)
    if not ends[-1]:
        return
    size = np.where(over, counts, total - counts)  # surplus positions per row
    step = np.arange(ends[-1]) - np.repeat(ends - flips, flips)
    j = np.repeat(size - flips, flips) + step
    t = rng.integers(0, j + 1)
    base = np.repeat(np.cumsum(size) - size, flips)
    key = step.astype(np.uint16) if total <= 1 << 16 else step  # step < total
    by_step = np.argsort(key, kind="stable")
    t = (t + base)[by_step]
    j = (j + base)[by_step]
    taken = np.zeros(size.sum(), dtype=bool)
    done = 0
    for live in np.bincount(step).tolist():
        picked = t[done:done + live]
        picked = np.where(taken[picked], j[done:done + live], picked)
        taken[picked] = True
        t[done:done + live] = picked
        done += live
    at = np.flatnonzero(mask == over[:, None])[t]
    flat = mask.ravel()
    flat[at] = ~flat[at]


def relabellings(seed, domain, permutations, m, n):
    """Yield ``(start, mask)`` pieces of relabellings of ``m`` x and ``n`` y points.

    ``mask`` is a boolean ``(rows, m + n)`` matrix; True marks a y label,
    exactly n per row.  A piece never crosses a block and its row count
    depends only on ``m + n``; relabelling i is the same whatever the
    number of relabellings asked for.
    """
    total = m + n
    words = -(-total // 4)  # 64-bit draws per row, four 16-bit labels each
    threshold = round(65536 * n / total)
    piece = max(1, 2**20 // total)  # about 1 MB of labels
    for block in range(0, permutations, BLOCK):
        index = block // BLOCK
        bulk = replicate_rng(seed, domain, index)
        fixes = np.random.default_rng(
            np.random.SeedSequence((seed, domain, index), spawn_key=(0,)))
        stop = min(block + BLOCK, permutations)
        for start in range(block, stop, piece):
            rows = min(piece, stop - start)
            raw = bulk.bit_generator.random_raw(rows * words)
            bits = raw.astype("<u8", copy=False).view("<u2")  # any byte order
            mask = bits.reshape(rows, -1)[:, :total] < threshold
            _fix_counts(mask, n, fixes)
            yield start, mask


def add_one_p_value(null, statistic):
    """Add-one p-value ``(1 + #{t >= S}) / (B + 1)`` of a number or array S.

    ``null`` holds the B null draws t, sorted ascending.  The added one
    keeps p > 0 and the test valid at any finite B.
    """
    at_or_above = null.size - np.searchsorted(null, statistic, side="left")
    p = (1 + at_or_above) / (null.size + 1)
    return float(p) if np.ndim(p) == 0 else p
