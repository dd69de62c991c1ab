"""From cell probabilities to symmetry statistics.

The Hadamard transform re-expresses a cell-probability vector as one
constant coordinate (always 1) plus 2**d - 1 orthogonal contrasts.  Each
contrast row compares a +1 group of cells against a -1 group, so each
symmetry statistic isolates one interpretable mode of non-uniformity:
left/right imbalance, center vs tails, finer alternations, and so on.
"""

import numpy as np

from august import fwht, row_label, sylvester

depth = 2
print(f"Sylvester Hadamard matrix at depth {depth}:")
print(sylvester(depth))
print()

probs = np.array([0.35, 0.40, 0.15, 0.10])
stats = fwht(probs)[1:]  # the first coordinate is the total mass, 1
print(f"cell probabilities: {probs}")
print(f"symmetry statistics: {stats}")
print()
for i, value in enumerate(stats):
    row = i + 2
    print(f"  row {row}: {value:+.2f}   {row_label(depth, row)}")
print()
print("The 0.50 on row 3 says: the first half of the cells holds far more")
print("mass than the second half, a strong left/right (location) signal.")
print()

# fwht is the fast version of multiplying by the matrix.
v = np.array([0.35, 0.40, 0.15, 0.10])
print(f"fwht(v)        = {fwht(v)}")
print(f"H @ v          = {sylvester(depth) @ v}")

# Uniform cells carry no signal at all.
print(f"uniform cells -> {fwht(np.full(4, 0.25))[1:]}")
