import re
import time
import tracemalloc

import numpy as np
import pytest

from august import _seeds, core
from august import (
    AugustResult,
    DegenerateVector,
    DepthOutOfRange,
    NonFiniteInput,
    SampleTooSmall,
    TiePolicy,
    TiesPresent,
    august,
    august_many,
    august_plus,
    build_null_table,
    cos_angle,
    minimum_sample_size,
    p_value,
)


def random_instance(rng, depth, low=20, high=500):
    r = minimum_sample_size(depth)
    m = int(rng.integers(max(low, r), high + 1))
    n = int(rng.integers(max(low, r), high + 1))
    return rng.normal(size=m), rng.normal(size=n)


class TestSeparatedSamples:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_statistic_is_exactly_one(self, depth):
        rng = np.random.default_rng(depth)
        x = rng.random(80)
        y = rng.random(90) + 2.0
        result = august_plus(x, y, depth)
        assert result.statistic == 1.0
        assert np.array_equal(result.s_x, np.ones((1 << depth) - 1))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_cosine_matches_closed_form(self, depth):
        rng = np.random.default_rng(depth + 100)
        x = rng.normal(size=70)
        y = rng.normal(size=75) + 50.0
        result = august(x, y, depth)
        assert cos_angle(result) == pytest.approx(-1.0 / ((1 << depth) - 1), abs=1e-12)

    def test_depth_one_separated_cosine_is_minus_one(self):
        x = np.arange(10.0)
        y = np.arange(10.0) + 100.0
        assert cos_angle(august_plus(x, y, 1)) == pytest.approx(-1.0, abs=1e-12)


class TestAlgorithmEquivalence:
    def test_reference_and_fast_agree_everywhere(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            depth = int(rng.integers(1, 6))
            x, y = random_instance(rng, depth)
            slow = august(x, y, depth)
            fast = august_plus(x, y, depth)
            assert abs(slow.statistic - fast.statistic) <= 1e-12
            assert np.abs(slow.s_x - fast.s_x).max() <= 1e-12
            assert np.abs(slow.s_y - fast.s_y).max() <= 1e-12
            assert np.abs(slow.p_x - fast.p_x).max() <= 1e-12
            assert np.abs(slow.p_y - fast.p_y).max() <= 1e-12

    def test_batch_engine_matches_fast_path(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(12, 45))
        ys = rng.normal(size=(12, 61))
        stats, s_x, s_y = august_many(xs, ys, 3)
        for b in range(12):
            single = august_plus(xs[b], ys[b], 3)
            assert abs(stats[b] - single.statistic) <= 1e-12
            assert np.abs(s_x[b] - single.s_x).max() <= 1e-12
            assert np.abs(s_y[b] - single.s_y).max() <= 1e-12

    @pytest.mark.parametrize("size,depth", [(7, 2), (15, 3), (128, 3)])
    def test_fast_path_is_a_batch_of_one_exactly(self, size, depth):
        rng = np.random.default_rng(size)
        for _ in range(200):
            x, y = rng.random(size), rng.random(size)
            single = august_plus(x, y, depth)
            stats, s_x, s_y = august_many(x[None], y[None], depth)
            assert single.statistic == stats[0]
            assert np.array_equal(single.s_x, s_x[0])
            assert np.array_equal(single.s_y, s_y[0])

    @pytest.mark.parametrize("m,n,depth", [(40, 45, 2), (128, 128, 3), (1800, 1600, 3)])
    def test_batch_rows_match_fast_path_to_last_bits(self, m, n, depth):
        # A batch multiplies the cell rows of every count and a single pair
        # only its occurring ones, so the routes may differ in the last bits,
        # but not by enough to move a p-value.
        rng = np.random.default_rng(m + n + depth)
        xs, ys = rng.random((100, m)), rng.random((100, n))
        stats, s_x, s_y = august_many(xs, ys, depth)
        singles = [august_plus(x, y, depth) for x, y in zip(xs, ys)]
        single_stats = np.array([r.statistic for r in singles])
        assert np.abs(stats - single_stats).max() <= 1e-15
        assert np.abs(s_x - [r.s_x for r in singles]).max() <= 1e-15
        assert np.abs(s_y - [r.s_y for r in singles]).max() <= 1e-15
        table = build_null_table(m, n, depth, sims=1000, seed=3)
        assert np.array_equal(p_value(stats, table), p_value(single_stats, table))


def recorded_tallies(monkeypatch, compute):
    """The x and y tallies of every ``_run_lengths`` call in ``compute()``.

    They are the arrays that ``august_labels``, and the single-pair path of
    a batch of one, multiply by the cell rows, x then y.
    """
    seen = []
    run_lengths = core._run_lengths

    def record(marks, *out):
        tallies = run_lengths(marks, *out)
        seen.append(tallies.copy())
        return tallies

    monkeypatch.setattr(core, "_run_lengths", record)
    compute()
    assert len(seen) == 2
    return seen


def direct_tallies(references, points):
    """Per row, how many ``points`` have each count 0 .. size of ``references``."""
    return np.array([
        np.bincount(core._count_at_or_below(ref, pts), minlength=ref.size + 1)
        for ref, pts in zip(references, points)
    ])


def label_rows(m, n, rng):
    """Label sequences: all x first, all y first, alternating from either
    side (the longer sample's rest last), then three random ones."""
    def alternating(first_x):
        keys = np.concatenate([2 * np.arange(m) + (not first_x),
                               2 * np.arange(n) + first_x])
        return np.argsort(keys, kind="stable") >= m

    ordered = np.arange(m + n) >= m
    return np.array([ordered, ordered[::-1], alternating(True), alternating(False),
                     *(rng.permutation(ordered) for _ in range(3))])


class TestTallies:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_minimum_size_batch_with_extreme_rows(self, depth, monkeypatch):
        r = minimum_sample_size(depth)
        grid = np.arange(2.0 * r)
        rng = np.random.default_rng(depth)
        # x all below y, x all above y, strictly alternating from either
        # side, then three random rows.
        xs = np.array([grid[:r], grid[r:], grid[0::2], grid[1::2],
                       *rng.random((3, r))])
        ys = np.array([grid[r:], grid[:r], grid[1::2], grid[0::2],
                       *rng.random((3, r))])
        tallies_x, tallies_y = recorded_tallies(
            monkeypatch, lambda: august_many(xs, ys, depth))
        assert np.array_equal(tallies_x, direct_tallies(ys, xs))
        assert np.array_equal(tallies_y, direct_tallies(xs, ys))
        assert np.array_equal(tallies_x[0], [r] + [0] * r)
        assert np.array_equal(tallies_x[1], [0] * r + [r])
        assert np.array_equal(tallies_x[2], [1] * r + [0])
        assert np.array_equal(tallies_x[3], [0] + [1] * r)

    @pytest.mark.parametrize("reps,m,n", [(1, 37, 52), (1, 3, 3), (6, 40, 61)])
    def test_uneven_batches_and_a_batch_of_one(self, reps, m, n, monkeypatch):
        rng = np.random.default_rng(m * n + reps)
        xs, ys = rng.normal(size=(reps, m)), rng.normal(0.4, 1.3, size=(reps, n))
        tallies_x, tallies_y = recorded_tallies(
            monkeypatch, lambda: august_many(xs, ys, 1))
        assert np.array_equal(tallies_x, direct_tallies(ys, xs))
        assert np.array_equal(tallies_y, direct_tallies(xs, ys))

    @pytest.mark.parametrize("m,n,depth", [(3, 3, 1), (15, 15, 3), (37, 52, 1)])
    def test_label_rows_of_the_table_kernel(self, m, n, depth, monkeypatch):
        # The table kernel takes the first and last runs from each row's
        # start and end, apart from the interior.
        is_y = label_rows(m, n, np.random.default_rng(m + n))
        tallies_x, tallies_y = recorded_tallies(
            monkeypatch, lambda: list(core.august_labels([is_y], m, n, depth)))
        at = np.broadcast_to(np.arange(m + n), is_y.shape)
        xs, ys = at[~is_y].reshape(-1, m), at[is_y].reshape(-1, n)
        assert np.array_equal(tallies_x, direct_tallies(ys, xs))
        assert np.array_equal(tallies_y, direct_tallies(xs, ys))
        assert np.array_equal(tallies_x[0], [m] + [0] * n)
        assert np.array_equal(tallies_y[0], [0] * m + [n])
        assert np.array_equal(tallies_x[1], [0] * n + [m])
        assert np.array_equal(tallies_y[1], [n] + [0] * m)

    @pytest.mark.parametrize("m,n,depth", [(15, 15, 3), (37, 52, 1)])
    def test_reused_run_buffers_give_each_chunks_own_bytes(self, m, n, depth):
        # The table kernel writes every chunk's runs into one buffer per
        # side, grown for a longer chunk: 2, then 5, then 3 rows.
        (_, masks), = _seeds.relabellings(4, _seeds.NULL_TABLE, 10, m, n)
        chunks = [masks[:2], masks[2:7], masks[7:]]

        def joined(outputs):  # each of the three fields over all chunks
            return [np.concatenate(field).tobytes() for field in zip(*outputs)]

        alone = [next(core.august_labels([chunk], m, n, depth)) for chunk in chunks]
        assert joined(core.august_labels(chunks, m, n, depth)) == joined(alone)


class TestLargeSamples:
    def test_large_uneven_sample_sums_to_one(self):
        # Log-factorial cell rows missed a sum of one by 3.5e-9 here, which
        # failed the 1e-9 check inside the kernel.
        rng = np.random.default_rng(20210929)
        x, y = rng.random(480_127), rng.random(320_259)
        single = august_plus(x, y, 3)
        stats, s_x, s_y = august_many(x[None], y[None], 3)
        assert single.statistic == stats[0]
        assert np.array_equal(single.s_x, s_x[0])
        assert np.array_equal(single.s_y, s_y[0])

    def test_no_table_outlives_a_call(self):
        rng = np.random.default_rng(3)
        x, y = rng.random(100_000), rng.random(100_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = august_plus(x, y, 6)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.p_x.shape == (64,)
        assert held - before < 2**20
        assert peak - before < 100 * 2**20


class TestRuntime:
    def test_reference_algorithm_scales_quadratically(self):
        # Largest first: right after a large call elsewhere in the process,
        # the first calls at N = 4000 can run twice as slow.
        sizes = (64000, 16000, 4000)
        seconds = []
        for total in sizes:
            rng = _seeds.replicate_rng(0, _seeds.POWER_TRIAL, total)
            x, y = rng.random(total // 2), rng.random(total - total // 2)
            best = np.inf
            for _ in range(2):
                start = time.perf_counter()
                august(x, y, 3)
                best = min(best, time.perf_counter() - start)
            seconds.append(best)
        slope = np.polyfit(np.log(sizes), np.log(seconds), 1)[0]
        assert 1.5 <= slope <= 2.5


class TestInvariances:
    def test_swap_symmetry(self):
        rng = np.random.default_rng(5)
        x, y = random_instance(rng, 3, high=120)
        forward = august_plus(x, y, 3)
        backward = august_plus(y, x, 3)
        assert forward.statistic == backward.statistic
        assert np.array_equal(forward.s_x, backward.s_y)
        assert np.array_equal(forward.p_y, backward.p_x)

    def test_rank_invariance_under_monotone_maps(self):
        rng = np.random.default_rng(6)
        x, y = random_instance(rng, 2, high=150)
        base = august_plus(x, y, 2)
        for transform in (np.exp, lambda v: 3.0 * v + 7.0):
            mapped = august_plus(transform(x), transform(y), 2)
            assert mapped.statistic == base.statistic
            assert np.array_equal(mapped.p_x, base.p_x)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        x, y = random_instance(rng, 3, high=100)
        first = august_plus(x, y, 3)
        second = august_plus(x, y, 3)
        assert first.statistic == second.statistic
        assert np.array_equal(first.s_x, second.s_x)

    def test_statistic_bound(self):
        rng = np.random.default_rng(13)
        for depth in (1, 2, 3):
            x, y = random_instance(rng, depth, high=90)
            result = august(x, y, depth)
            assert abs(result.statistic) <= (1 << depth) - 1 + 1e-12


# The three entry points that check a depth before any work.
EVERY_DEPTH_CHECK = pytest.mark.parametrize("compute", [
    august_plus,
    lambda x, y, depth: august_many(x[None], y[None], depth),
    lambda x, y, depth: build_null_table(x.size, y.size, depth, 100, 0),
], ids=["august_plus", "august_many", "build_null_table"])


class TestPreconditions:
    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            august_plus(np.arange(6.0), np.arange(100.0), 2)  # r = 7

    @EVERY_DEPTH_CHECK
    def test_unsupported_depth_is_refused(self, compute):
        # Depth 10 needs r = 2047, whose binomial weights overflow a float.
        x, y = np.random.default_rng(10).random((2, 2100))
        with pytest.raises(DepthOutOfRange):
            compute(x, y, 10)

    @EVERY_DEPTH_CHECK
    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_refused(self, compute, depth):
        x, y = np.random.default_rng(10).random((2, 50))
        with pytest.raises(DepthOutOfRange, match="positive integer"):
            compute(x, y, depth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["x", "y"])
    @pytest.mark.parametrize("compute", [
        august,
        august_plus,
        lambda x, y, depth: august_many(x[None], y[None], depth),
    ], ids=["august", "august_plus", "august_many"])
    def test_non_finite_values_are_rejected(self, compute, which, bad):
        rng = np.random.default_rng(3)
        samples = {"x": rng.random(30), "y": rng.random(35)}
        samples[which][4] = bad
        with pytest.raises(NonFiniteInput):
            compute(samples["x"], samples["y"], 2)

    def test_batch_shape_mismatch(self):
        # Unequal row counts, a 3-D or 1-D stack, and an empty batch are
        # refused before any sample check, with both shapes in the message.
        for xs, ys in (((3, 20), (4, 20)), ((2, 20), (2, 2, 20)),
                       ((20,), (20,)), ((2, 20), (20,)), ((0, 20), (0, 20))):
            with pytest.raises(ValueError, match=re.escape(f"{xs} and {ys}")):
                august_many(np.zeros(xs), np.zeros(ys), 1)


class TestTiePolicy:
    def test_error_mode_rejects_cross_sample_ties(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([4.0, 5.0, 6.0, 7.0])
        with pytest.raises(TiesPresent):
            august_plus(x, y, 1)

    def test_error_mode_rejects_within_sample_ties(self):
        x = np.array([1.0, 1.0, 3.0, 4.0])
        y = np.array([5.0, 6.0, 7.0, 8.0])
        with pytest.raises(TiesPresent):
            august_plus(x, y, 1)

    def test_jitter_mode_is_deterministic(self):
        x = np.array([1.0, 1.0, 2.0, 3.0, 5.0])
        y = np.array([2.0, 4.0, 6.0, 7.0, 9.0])
        policy = TiePolicy(mode="jitter", seed=21)
        a = august_plus(x, y, 1, policy)
        b = august_plus(x, y, 1, policy)
        assert a.statistic == b.statistic
        assert a.tie_policy_applied == "jitter"

    def test_jitter_preserves_non_tied_ranks(self):
        # With noise below the minimal nonzero gap, distinct values keep order,
        # so the statistic matches a manual tie-break of the duplicate only.
        x = np.array([1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0])
        y = np.array([2.5, 4.0, 6.0, 7.0, 9.5, 10.0, 11.0])
        result = august_plus(x, y, 1, TiePolicy(mode="jitter", seed=3))
        # The duplicate pair sits strictly below every y, so any tie-break
        # yields the same ranks; compare against an explicit perturbation.
        x_manual = x.copy()
        x_manual[1] += 1e-9
        expected = august_plus(x_manual, y, 1)
        assert result.statistic == pytest.approx(expected.statistic, abs=1e-15)

    def test_untied_input_reports_none_and_no_jitter(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=20), rng.normal(size=20)
        result = august_plus(x, y, 1, TiePolicy(mode="jitter", seed=5))
        clean = august_plus(x, y, 1)
        assert result.tie_policy_applied == "none"
        assert result.statistic == clean.statistic

    def test_all_identical_needs_explicit_scale(self):
        x = np.ones(5)
        y = np.ones(5)
        with pytest.raises(TiesPresent):
            august_plus(x, y, 1, TiePolicy(mode="jitter"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            TiePolicy(mode="ignore")


class TestCosAngle:
    def test_parallel_vectors_give_plus_one(self):
        s = np.array([0.1, 0.2, 0.3])
        result = AugustResult(
            statistic=float(-(s @ s)), s_x=s, s_y=s,
            p_x=np.full(4, 0.25), p_y=np.full(4, 0.25),
            depth=2, m=10, n=10, tie_policy_applied="none",
        )
        assert cos_angle(result) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_raises(self):
        zero = np.zeros(3)
        result = AugustResult(
            statistic=0.0, s_x=zero, s_y=zero,
            p_x=np.full(4, 0.25), p_y=np.full(4, 0.25),
            depth=2, m=10, n=10, tie_policy_applied="none",
        )
        with pytest.raises(DegenerateVector):
            cos_angle(result)
