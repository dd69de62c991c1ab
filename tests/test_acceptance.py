"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The full suite takes a few minutes; the expensive
calibration criteria dominate.
"""

import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

import august as A
from august import _seeds
from august.core import august_many, minimum_sample_size
from august.families import normal_mixture_sampler
from august.interpret import region_report
from oracles import (
    bootstrap_augmented_cdf,
    exhaustive_subsample_cdf,
    float_null_statistics,
)


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_worked_example_exactness():
    cp2 = A.CellProbabilities(np.array([0.35, 0.40, 0.15, 0.10]), 2)
    got2 = A.symmetry_statistics(cp2).stats
    err2 = np.abs(got2 - [0.00, 0.50, -0.10]).max()
    cp3 = A.CellProbabilities(
        np.array([0.10, 0.10, 0.14, 0.15, 0.13, 0.12, 0.13, 0.13]), 3
    )
    got3 = A.symmetry_statistics(cp3).stats
    err3 = np.abs(got3 - [0.00, -0.10, 0.02, -0.02, -0.02, -0.08, 0.00]).max()
    _report(
        1, "worked-example exactness", err2 <= 1e-12 and err3 <= 1e-12,
        f"max errors {err2:.2e} (d=2), {err3:.2e} (d=3); tolerance 1e-12",
    )


def test_criterion_02_exhaustive_oracle_equivalence():
    rng = np.random.default_rng(92)
    worst = 0.0
    for _ in range(500):
        depth = int(rng.integers(1, 3))
        cfg = A.SubsampleConfig(depth)
        n = int(rng.integers(cfg.r, 13))
        y = rng.normal(size=n)
        x = float(rng.normal())
        closed = A.augmented_cdf(x, y, cfg).probs
        enumerated = exhaustive_subsample_cdf(x, y, cfg).probs
        worst = max(worst, float(np.abs(closed - enumerated).max()))
    _report(
        2, "exhaustive-subsample identity", worst <= 1e-12,
        f"500 instances (n <= 12, d in {{1,2}}), worst gap {worst:.2e}; tolerance 1e-12",
    )


def test_criterion_03_bootstrap_convergence():
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(20):
        depth = int(rng.integers(1, 3))
        cfg = A.SubsampleConfig(depth)
        n = int(rng.integers(cfg.r + 3, 45))
        y = rng.normal(size=n)
        x = float(rng.normal())
        exact = A.augmented_cdf(x, y, cfg).probs
        estimate = bootstrap_augmented_cdf(x, y, cfg, replicates=100_000, seed=i).probs
        worst = max(worst, float(np.abs(exact - estimate).max()))
    _report(
        3, "bootstrap convergence", worst < 0.01,
        f"20 instances at 1e5 replicates, worst max-norm error {worst:.4f}; tolerance 0.01",
    )


def test_criterion_04_algorithm_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        depth = int(rng.integers(1, 6))
        r = minimum_sample_size(depth)
        m = int(rng.integers(max(20, r), 501))
        n = int(rng.integers(max(20, r), 501))
        x = rng.normal(size=m)
        y = rng.normal(size=n)
        slow = A.august(x, y, depth)
        fast = A.august_plus(x, y, depth)
        gap = max(
            abs(slow.statistic - fast.statistic),
            float(np.abs(slow.s_x - fast.s_x).max()),
            float(np.abs(slow.s_y - fast.s_y).max()),
            float(np.abs(slow.p_x - fast.p_x).max()),
            float(np.abs(slow.p_y - fast.p_y).max()),
        )
        worst = max(worst, gap)
    _report(
        4, "algorithm equivalence", worst <= 1e-12,
        f"1000 instances (m,n in [20,500], d in 1..5), worst field gap {worst:.2e}; "
        "tolerance 1e-12",
    )


def test_criterion_05_separated_samples_law():
    rng = np.random.default_rng(55)
    stat_exact = True
    worst_cos = 0.0
    for i in range(100):
        depth = int(rng.integers(1, 6))
        r = minimum_sample_size(depth)
        m = int(rng.integers(r, 200))
        n = int(rng.integers(r, 200))
        x = rng.normal(size=m)
        y = rng.normal(size=n) + 1000.0
        if i % 2:
            x, y = y, x  # cover both separation directions
        result = A.august_plus(x, y, depth)
        stat_exact = stat_exact and result.statistic == 1.0
        target = -1.0 / ((1 << depth) - 1)
        worst_cos = max(worst_cos, abs(A.cos_angle(result) - target))
    _report(
        5, "separated-samples law", stat_exact and worst_cos <= 1e-12,
        f"100 instances: S == 1 exactly: {stat_exact}; "
        f"worst |cos + 1/(2^d-1)| = {worst_cos:.2e}; tolerance 1e-12",
    )


def test_criterion_06_distribution_freeness():
    labels = A.build_null_table(128, 128, 3, 10_000, seed=101)
    cauchy = float_null_statistics(
        128, 128, 3, 10_000, 102, lambda rng, size: rng.standard_cauchy(size))
    distance = A.ks_statistic(labels.stats, cauchy)
    _report(
        6, "distribution-freeness", distance < 0.02,
        f"KS distance between the label-sequence and Cauchy null tables (B=1e4) = "
        f"{distance:.4f}; tolerance 0.02",
    )


def test_criterion_07a_univariate_level_calibration():
    table = A.build_null_table(128, 128, 3, 10_000, seed=201)
    rate = A.power_simulation(
        lambda rng, size: rng.random(size),
        lambda rng, size: rng.random(size),
        table, alpha=0.05, reps=10_000, seed=202,
    )
    _report(
        7, "univariate level calibration", abs(rate - 0.05) <= 0.01,
        f"type-I error {rate:.4f} over 1e4 null trials at m=n=128, d=3; "
        "tolerance 0.05 +- 0.01",
    )


def test_criterion_07b_multivariate_level_calibration():
    trials = 2000
    rejected = 0
    for trial in range(trials):
        rng = np.random.default_rng(3000 + trial)
        x = rng.standard_normal((128, 2))
        y = rng.standard_normal((128, 2))
        if A.permutation_p_value(x, y, 2, permutations=199, seed=trial) <= 0.05:
            rejected += 1
    rate = rejected / trials
    _report(
        7, "multivariate level calibration", abs(rate - 0.05) <= 0.015,
        f"permutation type-I error {rate:.4f} over 2000 trials at d=2; "
        "tolerance 0.05 +- 0.015",
    )


def test_criterion_08_asymptotic_normality_proxy():
    m = n = 2000
    reps, chunk = 10_000, 1000
    rows = []
    for start in range(0, reps, chunk):
        xs = np.empty((chunk, m))
        ys = np.empty((chunk, n))
        for i in range(start, start + chunk):
            rng = _seeds.replicate_rng(55, _seeds.SIGMA, i)
            xs[i - start] = rng.random(m)
            ys[i - start] = rng.random(n)
        _, s_x, s_y = august_many(xs, ys, 2)
        rows.append(np.hstack([s_x, s_y]))
    joint = np.sqrt(m + n) * np.vstack(rows)
    max_skew = float(np.abs(scipy_stats.skew(joint, axis=0)).max())
    max_kurt = float(np.abs(scipy_stats.kurtosis(joint, axis=0)).max())
    _report(
        8, "asymptotic normality proxy", max_skew < 0.15 and max_kurt < 0.3,
        f"1e4 null reps at m=n=2000, d=2: max|skew| = {max_skew:.4f} (< 0.15), "
        f"max|excess kurtosis| = {max_kurt:.4f} (< 0.3)",
    )


def test_criterion_09_alternative_mean():
    null_spec = A.AlternativeSpec(
        cdf_x=scipy_stats.norm.cdf,
        cdf_y=scipy_stats.norm.cdf,
        quantile_x=scipy_stats.norm.ppf,
        label="equal",
    )
    zero_err = max(
        float(np.abs(A.alternative_mu(null_spec, depth)).max())
        for depth in (1, 2, 3)
    )

    shift_spec = A.AlternativeSpec(
        cdf_x=scipy_stats.norm.cdf,
        cdf_y=lambda t: scipy_stats.norm.cdf(t, loc=0.3),
        quantile_x=scipy_stats.norm.ppf,
        label="shift-0.3",
    )
    mu = A.alternative_mu(shift_spec, 2)
    reps, m, chunk = 600, 5000, 300
    rows = []
    for start in range(0, reps, chunk):
        xs = np.empty((chunk, m))
        ys = np.empty((chunk, m))
        for i in range(start, start + chunk):
            rng = _seeds.replicate_rng(40, _seeds.POWER_TRIAL, i)
            xs[i - start] = rng.standard_normal(m)
            ys[i - start] = rng.standard_normal(m) + 0.3
        _, s_x, s_y = august_many(xs, ys, 2)
        rows.append(np.hstack([s_x, s_y]))
    joint = np.vstack(rows)
    errors = np.abs(joint.mean(axis=0) - mu)
    stderr = joint.std(axis=0) / np.sqrt(reps)
    max_z = float((errors / stderr).max())
    _report(
        9, "alternative mean",
        zero_err <= 1e-10 and bool(np.all(errors <= 3 * stderr)),
        f"mu(F=G) max |coord| = {zero_err:.2e} (<= 1e-10); shifted-normal "
        f"empirical mean at m=n=5000 within 3 SE (max z = {max_z:.2f})",
    )


def test_criterion_10_power_ordering():
    shifts = (0.0, 0.3, 0.6, 0.9, 1.2)
    reps = 500
    location_table = A.build_null_table(128, 128, 3, 4000, seed=91)
    powers = []
    for shift in shifts:
        powers.append(A.power_simulation(
            lambda rng, size: rng.standard_normal(size),
            lambda rng, size, s=shift: rng.standard_normal(size) + s,
            location_table, alpha=0.05, reps=reps, seed=91,
        ))
    powers_arr = np.array(powers)
    stderr = np.sqrt(np.maximum(powers_arr * (1 - powers_arr), 1e-4) / reps)
    isotonic = all(
        powers[i + 1] >= powers[i] - 2 * stderr[i]
        for i in range(len(powers) - 1)
    ) and powers[-1] > powers[0]

    mixture = normal_mixture_sampler(0.9)
    aug_power = A.power_simulation(
        lambda rng, size: rng.standard_normal(size), mixture,
        A.build_null_table(128, 128, 3, 4000, seed=77),
        alpha=0.05, reps=reps, seed=77,
    )
    ks_rejections = 0
    for i in range(reps):
        rng = _seeds.replicate_rng(77, _seeds.POWER_TRIAL, i)
        x = rng.standard_normal(128)
        y = mixture(rng, 128)
        outcome = A.baseline_permutation_test("ks", x, y, 199, seed=7000 + i)
        if outcome.p_value <= 0.05:
            ks_rejections += 1
    ks_power = ks_rejections / reps
    _report(
        10, "power ordering",
        isotonic and aug_power > ks_power,
        f"location powers {np.round(powers_arr, 3).tolist()} isotonic: {isotonic}; "
        f"mixture (sep=0.9): august {aug_power:.3f} > ks {ks_power:.3f} "
        f"at alpha=0.05, {reps} reps per point",
    )


def test_criterion_11_runtime_scaling():
    rng = np.random.default_rng(0)
    sizes = (10_000, 100_000, 1_000_000)
    timings = []
    for total in sizes:
        m = total // 2
        x = rng.random(m)
        y = rng.random(total - m)
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            A.august_plus(x, y, 3)
            best = min(best, time.perf_counter() - start)
        timings.append(best)
    slope = float(np.polyfit(np.log10(sizes), np.log10(timings), 1)[0])
    largest = timings[-1]
    _report(
        11, "runtime scaling",
        0.9 <= slope <= 1.3 and largest < 60.0,
        f"log-log slope {slope:.3f} over N in {{1e4,1e5,1e6}} (target [0.9, 1.3]); "
        f"N=1e6 run took {largest:.3f}s (< 60s)",
    )


def test_criterion_12_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.normal(size=90)
    y = rng.normal(0.7, 1.0, size=100)
    result = A.august_plus(x, y, 3)
    reports = region_report(result, x, y, reference="y", top_k=2)
    plot_a = str(tmp_path / "a.json")
    plot_b = str(tmp_path / "b.json")
    payload = A.emit_plot_data(reports, y, plot_a, histogram_bins=20)
    A.emit_plot_data(reports, y, plot_b, histogram_bins=20)
    plot_ok = (
        A.read_plot_data(plot_a) == payload
        and open(plot_a, "rb").read() == open(plot_b, "rb").read()
    )

    table = A.build_null_table(32, 32, 2, 500, seed=5)
    path = A.save_null_table(table, str(tmp_path))
    first_bytes = open(path, "rb").read()
    loaded = A.load_null_table(path)
    A.save_null_table(table, str(tmp_path))
    table_ok = (
        np.array_equal(loaded.stats, table.stats)
        and (loaded.m, loaded.n, loaded.depth, loaded.sims, loaded.seed)
        == (32, 32, 2, 500, 5)
        and open(path, "rb").read() == first_bytes
    )
    _report(
        12, "serialization round-trip", plot_ok and table_ok,
        f"plot-data lossless+byte-stable: {plot_ok}; "
        f"null-table lossless+byte-stable: {table_ok}",
    )
