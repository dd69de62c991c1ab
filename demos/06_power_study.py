"""Power at desk scale: where the symmetry statistics shine.

Two contrasts at m = n = 128, alpha = 0.05:
  * a plain normal location shift, where power should climb smoothly, and
  * a unit-variance bimodal mixture, invisible to mean/variance summaries,
    where ECDF sup-distance tests struggle but the depth-3 cells see the
    modes directly.
"""

import numpy as np

from august import baseline_permutation_test, build_null_table, power_simulation
from august._seeds import POWER_TRIAL, replicate_streams
from august.families import UNIVARIATE_FAMILIES, normal_mixture_sampler

m = n = 128
reps = 300

print("normal location shift, power of the test by shift:")
family = UNIVARIATE_FAMILIES["normal-location"]
table = build_null_table(m, n, 3, 2000, seed=5)
for shift in family.default_grid:
    power = power_simulation(
        family.null_sampler, family.alternative(shift),
        table, alpha=0.05, reps=reps, seed=5,
    )
    bar = "#" * int(40 * power)
    print(f"  shift {shift:4.2f}: {power:5.3f} {bar}")
print()

print("N(0,1) vs unit-variance bimodal mixture (separation 0.9):")
mixture = normal_mixture_sampler(0.9)
august_power = power_simulation(
    lambda rng, size: rng.standard_normal(size), mixture,
    build_null_table(m, n, 3, 2000, seed=9), alpha=0.05, reps=reps, seed=9,
)
ks_rejections = 0
# The pairs power_simulation drew above, by the same stream rule.
for i, rng in enumerate(replicate_streams(9, POWER_TRIAL, reps)):
    x = rng.standard_normal(m)
    y = mixture(rng, n)
    if baseline_permutation_test("ks", x, y, 199, seed=100 + i).p_value <= 0.05:
        ks_rejections += 1
print(f"  this test:          {august_power:5.3f}")
print(f"  Kolmogorov-Smirnov: {ks_rejections / reps:5.3f}")
print()
print("Same draws, same alpha; the mixture's mass pattern across cells is")
print("exactly the kind of signal the row contrasts are built to detect.")
