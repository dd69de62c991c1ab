"""The augmented CDF: mapping a point to a distribution over dyadic cells.

An ordinary ECDF sends x to a single number in [0, 1].  The augmented CDF
instead asks: if I subsample r = 2**(d+1) - 1 points from the reference
sample without replacement, where does the subsample ECDF at x land among
the 2**d dyadic cells of [0, 1]?  The answer is a probability vector with
exact hypergeometric entries, and it is what the test averages over a
whole sample.
"""

from fractions import Fraction
from math import comb

import numpy as np

from august import SubsampleConfig, augmented_cdf


def exact_cells(x, y, cfg):
    """Sum the hypergeometric pmf over each cell's subsample counts, exactly.

    With K reference points at or below x, a size-r subsample holds j of
    them with probability C(K, j) C(n - K, r - j) / C(n, r).
    """
    n, below = y.size, int(np.count_nonzero(y <= x))
    pmf = [Fraction(comb(below, j) * comb(n - below, cfg.r - j), comb(n, cfg.r))
           for j in range(cfg.r + 1)]
    per_cell = cfg.counts_per_cell
    return np.array([float(sum(pmf[k * per_cell:(k + 1) * per_cell]))
                     for k in range(cfg.cells)])


cfg = SubsampleConfig(depth=1)  # two cells, subsamples of size r = 3
y = np.arange(1.0, 8.0)  # reference sample {1, ..., 7}
x = 3.5

print(f"reference sample: {y}")
print(f"query point x = {x}, depth d = {cfg.depth}, subsample size r = {cfg.r}")
print()

exact = augmented_cdf(x, y, cfg)
print(f"closed form:           {exact}   (= 22/35, 13/35)")
print(f"exact rational sum:    {exact_cells(x, y, cfg)}")
print()

# The same comparison at a larger sample and depth.
big_cfg = SubsampleConfig(depth=3)
big_y = np.random.default_rng(0).normal(size=1000)
gap = np.abs(augmented_cdf(0.2, big_y, big_cfg) - exact_cells(0.2, big_y, big_cfg))
print(f"n = 1000, d = 3: largest gap to the exact sum over 8 cells = {gap.max():.1e}")
print()

# The vector depends on x only through the count below it, so any strictly
# increasing transformation of everything changes nothing.
mapped = augmented_cdf(np.exp(x), np.exp(y), cfg)
print(f"after exp-transform:   {mapped}   (rank invariance)")
print()

# Extreme points pin the whole mass to an end cell.
print(f"x below everything: {augmented_cdf(0.0, y, cfg)}")
print(f"x above everything: {augmented_cdf(9.0, y, cfg)}")
