"""Runtime scaling: the sort-based algorithm is O(N log N).

The reference implementation recounts ranks point by point (O(m*n)); the
fast one sorts once and reads every count from the sort order, and
evaluates the hypergeometric weights once per count that occurs.  Both
produce identical results, so the only reason to ever run the reference
is to check the fast one.
"""

import time

import numpy as np

from august import august, august_plus, ks_statistic


def best_time(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


rng = np.random.default_rng(0)

print(f"{'N':>10} {'fast (s)':>10} {'KS (s)':>10}")
fast_times = {}
for total in (10_000, 100_000, 1_000_000):
    m = total // 2
    x, y = rng.random(m), rng.random(total - m)
    fast_times[total] = best_time(lambda: august_plus(x, y, 3))
    ks_time = best_time(lambda: ks_statistic(x, y))
    print(f"{total:>10} {fast_times[total]:>10.4f} {ks_time:>10.4f}")

slope = np.polyfit(np.log10(list(fast_times)), np.log10(list(fast_times.values())), 1)[0]
print(f"\nlog-log slope of the fast algorithm: {slope:.2f} (near 1 = linear-ish)")

print(f"\n{'N':>10} {'reference (s)':>14}")
naive_times = {}
for total in (2_000, 8_000, 32_000):
    m = total // 2
    x, y = rng.random(m), rng.random(total - m)
    naive_times[total] = best_time(lambda: august(x, y, 3), repeats=2)
    print(f"{total:>10} {naive_times[total]:>14.4f}")

slope = np.polyfit(np.log10(list(naive_times)), np.log10(list(naive_times.values())), 1)[0]
print(f"\nlog-log slope of the reference: {slope:.2f} (rises toward 2 as the")
print("quadratic term takes over; each 4x in N costs ~16x once N is large)")
