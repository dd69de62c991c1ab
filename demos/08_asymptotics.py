"""Large-sample machinery: the closed-form limit law and a-priori power analysis.

Under the null, (m n / N) S tends to a weighted sum of independent
chi-square(1) variables, whatever m / N.  The weights are the eigenvalues
of the covariance K of the Hadamard-transformed binomial cell weights of a
uniform, and depend only on the depth, so the asymptotic p-value is read
from a fixed law without any simulation.  Under a fixed alternative the
symmetry vectors concentrate on a computable mean vector mu, which lets
you size a study before collecting data.
"""

import numpy as np
from scipy import stats as scipy_stats

from august import (
    AlternativeSpec,
    alternative_mu,
    asymptotic_p_value,
    build_null_table,
    limit_weights,
    p_value,
)

m = n = 1000
depth = 3

print(f"limit law: (m n / N) S -> sum_i w_i chi2_1, weights at depth {depth}:")
print(f"  {np.round(limit_weights(depth), 4)}")
print()

table = build_null_table(m, n, depth, sims=10_000, seed=2)
print(f"{'quantile':>9} {'S':>9} {'montecarlo':>11} {'limit':>11}")
for q in (0.50, 0.90, 0.95, 0.99):
    s = float(np.quantile(table.stats, q))
    mc = p_value(s, table)
    limit = asymptotic_p_value(s, m, n, depth)
    print(f"{q:>9.2f} {s:>9.4f} {mc:>11.4f} {limit:>11.4f}")
print()

# Population-level symmetry statistics for a normal location shift:
spec = AlternativeSpec(
    cdf_x=scipy_stats.norm.cdf,
    cdf_y=lambda t: scipy_stats.norm.cdf(t, loc=0.3),
    quantile_x=scipy_stats.norm.ppf,
    label="N(0,1) vs N(0.3,1)",
)
mu = alternative_mu(spec, depth)
half = (1 << depth) - 1
mu_x, mu_y = mu[:half], mu[half:]
print(f"mu under {spec.label}:")
print(f"  x-block: {np.round(mu_x, 4)}")
print(f"  y-block: {np.round(mu_y, 4)}")
print()
# Rows are numbered as in the interpretation layer: 1-based Sylvester rows,
# 2 .. 2**depth, since row 1 is the constant row.
rows = np.arange(2, half + 2)
flipped = np.sign(mu_x) != np.sign(mu_y)
terms = -mu_x * mu_y
print(f"rows whose sign flips between the blocks: {rows[flipped].tolist()}")
print(f"rows whose sign stays the same:           {rows[~flipped].tolist()}")
print("S = -(s_x . s_y) still grows under the alternative, because the flipped")
print(f"rows add {terms[flipped].sum():.4f} to it and outweigh the "
      f"{-terms[~flipped].sum():.4f} the other rows take away.")
print(f"population statistic -(mu_x . mu_y) = {terms.sum():.4f}")
