import importlib
import itertools
import math
import os
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from august import _seeds, core
from august import (
    AlternativeSpec,
    DepthOutOfRange,
    IOFailure,
    NullTable,
    QuadratureFailure,
    SampleTooSmall,
    alternative_mu,
    asymptotic_p_value,
    august_many,
    build_null_table,
    cached_null_table,
    estimate_sigma,
    ks_statistic,
    limit_covariance,
    limit_weights,
    load_null_table,
    null_table_path,
    p_value,
    power_simulation,
    save_null_table,
    sylvester,
)
from august.inference import _binomial_cells, _mixture_tail
from oracles import binomial_cells, binomial_slopes, float_null_statistics

ROOT = Path(__file__).resolve().parent.parent


class TestNullTable:
    def test_reproducible(self):
        a = build_null_table(20, 25, 1, 200, seed=3)
        b = build_null_table(20, 25, 1, 200, seed=3)
        assert np.array_equal(a.stats, b.stats)

    def test_sorted_ascending(self):
        table = build_null_table(20, 20, 1, 300, seed=1)
        assert np.all(np.diff(table.stats) >= 0)

    def test_size_precondition(self):
        with pytest.raises(SampleTooSmall):
            build_null_table(5, 50, 2, 100, seed=0)  # r = 7

    def test_non_integer_size_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(_seeds, "relabellings", None)
        with pytest.raises(SampleTooSmall, match="integers"):
            build_null_table(20.5, 20, 1, 100, 0)

    def test_sims_floor(self):
        with pytest.raises(ValueError):
            build_null_table(20, 20, 1, 99, seed=0)

    def test_distribution_freeness_smoke(self):
        # Label sequences give the law of normal samples' statistics.
        labels = build_null_table(64, 64, 2, 2000, seed=5)
        normal = float_null_statistics(
            64, 64, 2, 2000, 6, lambda rng, size: rng.standard_normal(size))
        assert ks_statistic(labels.stats, normal) < 0.05

    def test_table_must_be_sorted(self):
        with pytest.raises(ValueError):
            NullTable(np.array([1.0, 0.5]), 20, 20, 1, 2, 0)

    @pytest.mark.parametrize("m, n, depth", [
        (3, 4, 1), (6, 6, 1), (5, 8, 1), (7, 8, 2), (3, 12, 1), (12, 3, 1),
    ])
    def test_exact_law(self, m, n, depth):
        # Every one of the C(m + n, n) label sequences is equally likely
        # under the null.  ``august_many`` on the integer positions of each
        # gives the exact CDF F; by the DKW inequality a table of B draws
        # from F has sup |F_B - F| above sqrt(ln(2 / alpha) / (2 B)) with
        # probability at most alpha = 1e-4.
        sims, alpha = 20_000, 1e-4
        at_y = np.array(list(itertools.combinations(range(m + n), n)))
        is_y = np.zeros((len(at_y), m + n), dtype=bool)
        np.put_along_axis(is_y, at_y, True, axis=1)
        positions = np.broadcast_to(np.arange(m + n, dtype=np.float64), is_y.shape)
        exact = np.sort(august_many(
            positions[~is_y].reshape(-1, m), positions[is_y].reshape(-1, n), depth
        )[0])
        atoms = np.unique(exact.round(9))
        assert np.diff(atoms).min() > 1e-6
        table = build_null_table(m, n, depth, sims, seed=0).stats
        # Every drawn statistic is one of the exact law's atoms.
        nearest = np.abs(table[:, None] - atoms).min(axis=1)
        assert nearest.max() < 1e-9
        at = atoms + 1e-7
        exact_cdf = np.searchsorted(exact, at, side="right") / exact.size
        table_cdf = np.searchsorted(table, at, side="right") / sims
        bound = math.sqrt(math.log(2 / alpha) / (2 * sims))
        assert np.abs(table_cdf - exact_cdf).max() <= bound

    @pytest.mark.parametrize("m, n, depth, sims, seed", [
        (300, 320, 3, 5000, 9),  # pieces of 1691, 357, 1691, 357 and 904 rows
        (20, 22, 1, 2500, 0),
    ])
    def test_table_bytes_equal_the_float_kernel(self, m, n, depth, sims, seed):
        # The label kernel and ``august_many`` on the integer sorted
        # positions of each mask's x and y points, piece by piece, give the
        # same bytes.
        positions = np.arange(m + n, dtype=np.float64)
        stats = []
        for _, is_y in _seeds.relabellings(seed, _seeds.NULL_TABLE, sims, m, n):
            at = np.broadcast_to(positions, is_y.shape)
            stats.append(august_many(
                at[~is_y].reshape(-1, m), at[is_y].reshape(-1, n), depth
            )[0])
        expected = np.sort(np.concatenate(stats))
        table = build_null_table(m, n, depth, sims, seed)
        assert table.stats.tobytes() == expected.tobytes()

    def test_cell_rows_built_once_per_side(self, monkeypatch):
        calls = []
        rows = core.cell_probabilities_for_counts

        def count(counts, size, cfg):
            calls.append((len(counts), size))
            return rows(counts, size, cfg)

        monkeypatch.setattr(core, "cell_probabilities_for_counts", count)
        build_null_table(300, 320, 1, 3300, seed=4)  # pieces of 1691, 357, 1252 rows
        assert sorted(calls) == [(301, 300), (321, 320)]


class TestPValue:
    def setup_method(self):
        self.table = NullTable(
            np.sort(np.arange(101.0)), 20, 20, 1, 101, 0
        )

    def test_statistic_above_everything(self):
        assert p_value(1e9, self.table) == 1 / 102

    def test_statistic_below_everything(self):
        assert p_value(-1e9, self.table) == 1.0

    def test_statistic_at_median_odd_table(self):
        expected = ((101 + 1) / 2 + 1) / (101 + 1)
        assert p_value(50.0, self.table) == expected

    def test_tied_entries_count_as_exceedances(self):
        table = NullTable(np.array([0.0, 1.0, 1.0, 2.0]), 20, 20, 1, 4, 0)
        assert p_value(1.0, table) == (1 + 3) / 5

    def test_array_of_statistics(self):
        stats = np.array([1e9, -1e9, 50.0])
        expected = [p_value(s, self.table) for s in stats]
        assert np.array_equal(p_value(stats, self.table), expected)

    @pytest.mark.parametrize(
        "statistic", [np.nan, np.inf, -np.inf, np.array([1.0, np.nan, 50.0])])
    def test_non_finite_statistic_raises(self, statistic):
        with pytest.raises(ValueError, match="statistic must be finite"):
            p_value(statistic, self.table)


class TestCachePersistence:
    def test_round_trip(self, tmp_path):
        table = build_null_table(20, 22, 1, 150, seed=9)
        path = save_null_table(table, str(tmp_path))
        loaded = load_null_table(path)
        assert np.array_equal(loaded.stats, table.stats)
        assert (loaded.m, loaded.n, loaded.depth) == (20, 22, 1)
        assert loaded.sims == 150 and loaded.seed == 9

    def test_byte_stable_across_runs(self, tmp_path):
        table = build_null_table(20, 20, 1, 120, seed=2)
        path = save_null_table(table, str(tmp_path))
        first = open(path, "rb").read()
        save_null_table(table, str(tmp_path))
        assert open(path, "rb").read() == first

    def test_cached_lookup_hits_second_time(self, tmp_path):
        _, hit_first, path_first = cached_null_table(
            20, 20, 1, 130, 7, str(tmp_path))
        second, hit_second, path_second = cached_null_table(
            20, 20, 1, 130, 7, str(tmp_path))
        assert not hit_first and hit_second
        assert second.sims == 130
        assert path_first == path_second == null_table_path(
            str(tmp_path), 20, 20, 1, 130, 7)

    def test_renamed_file_raises(self, tmp_path):
        table = build_null_table(20, 20, 1, 130, seed=7)
        path = save_null_table(table, str(tmp_path))
        os.rename(path, str(tmp_path / os.path.basename(path).replace("_s7.", "_s8.")))
        with pytest.raises(IOFailure):
            cached_null_table(20, 20, 1, 130, 8, str(tmp_path))

    def test_concurrent_saves_of_one_key(self, tmp_path):
        table = build_null_table(20, 20, 1, 2000, seed=3)
        errors = []

        def writer():
            try:
                for _ in range(30):
                    save_null_table(table, str(tmp_path))
            except IOFailure as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        path = null_table_path(str(tmp_path), 20, 20, 1, 2000, 3)
        assert os.listdir(tmp_path) == [os.path.basename(path)]
        assert np.array_equal(load_null_table(path).stats, table.stats)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(IOFailure):
            load_null_table(str(tmp_path / "absent.nulltab"))

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.nulltab"
        path.write_bytes(b"not a table")
        with pytest.raises(IOFailure):
            load_null_table(str(path))

    # A cut of 3 bytes ends the table mid-float; +8 appends one float.
    @pytest.mark.parametrize("change", [-3, -8, -16, 8])
    def test_truncated_file_raises(self, tmp_path, change):
        table = build_null_table(20, 20, 1, 100, seed=1)
        path = save_null_table(table, str(tmp_path))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:change] if change < 0 else blob + bytes(change))
        fault = "truncated" if change < 0 else "too long"
        with pytest.raises(IOFailure, match=fault):
            load_null_table(path)


def with_version(path, version):
    """The bytes of the table file at ``path`` with its header version set."""
    blob = bytearray(open(path, "rb").read())
    blob[8:12] = struct.pack("<I", version)  # after the 8-byte magic
    return bytes(blob)


class TestCacheFormat:
    """The layout that the benchmark's own reader parses, and old versions."""

    def test_benchmark_reader_parses_saved_table(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
        reference = importlib.import_module("reference")
        table = build_null_table(20, 22, 1, 150, seed=9)
        key, stats = reference.read_null_table(save_null_table(table, str(tmp_path)))
        assert key == {"version": 3, "m": 20, "n": 22, "depth": 1, "sims": 150,
                       "seed": 9, "generator_tag": "uniform"}
        assert np.array_equal(stats, table.stats)

    def test_version_one_is_refused(self, tmp_path):
        path = save_null_table(build_null_table(20, 20, 1, 100, seed=1), str(tmp_path))
        blob = with_version(path, 1)  # read before ``open`` truncates the file
        open(path, "wb").write(blob)
        with pytest.raises(IOFailure, match="format version 1"):
            load_null_table(path)

    def test_version_two_file_is_a_miss_and_is_replaced(self, tmp_path):
        # A version-2 file holds Fisher-Yates draws under the same key and
        # path: it is rebuilt, not read, and the p-value is the fresh one's.
        fresh = build_null_table(20, 20, 1, 130, seed=7)
        stale = NullTable(np.zeros(130), 20, 20, 1, 130, 7)
        path = save_null_table(stale, str(tmp_path))
        blob = with_version(path, 2)
        open(path, "wb").write(blob)
        table, hit, got = cached_null_table(20, 20, 1, 130, 7, str(tmp_path))
        assert hit is False and got == path
        assert os.listdir(tmp_path) == [os.path.basename(path)]
        assert struct.unpack("<I", open(path, "rb").read()[8:12]) == (3,)
        assert np.array_equal(load_null_table(path).stats, fresh.stats)
        statistic = float(np.median(fresh.stats))
        assert p_value(statistic, table) == p_value(statistic, fresh)
        assert p_value(statistic, table) != p_value(statistic, stale)

    def test_seed_the_header_cannot_hold_is_refused_first(self, tmp_path, monkeypatch):
        # The header packs the seed in eight unsigned bytes; a seed outside
        # them is refused before any label is drawn or any file written.
        monkeypatch.setattr(_seeds, "relabellings", None)
        for seed in (2**64, -1):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
                cached_null_table(20, 20, 1, 100, seed, str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_version_one_file_name_is_not_read(self, tmp_path):
        # Version-1 files carried the generator tag in their name.
        path = save_null_table(build_null_table(20, 20, 1, 130, seed=7), str(tmp_path))
        stale = path.replace(".nulltab", "_uniform.nulltab")
        open(stale, "wb").write(with_version(path, 1))
        os.unlink(path)
        _, hit, got = cached_null_table(20, 20, 1, 130, 7, str(tmp_path))
        assert not hit and got == path
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(name) for name in (path, stale))
        assert load_null_table(path).sims == 130


class TestEstimateSigma:
    def test_symmetric_positive_diagonal(self):
        sigma = estimate_sigma(40, 50, 2, reps=1000, seed=3)
        assert sigma.shape == (6, 6)
        assert np.abs(sigma - sigma.T).max() <= 1e-12
        assert np.all(np.diag(sigma) > 0)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            estimate_sigma(40, 40, 2, reps=500, seed=0)

    def test_stabilizes_with_sample_size(self):
        # Entries settle as N grows at fixed lambda: N = 2e3 vs N = 2e4.
        small = estimate_sigma(1000, 1000, 1, reps=2000, seed=1)
        large = estimate_sigma(10_000, 10_000, 1, reps=2000, seed=2)
        scale = np.abs(large).max()
        assert np.abs(small - large).max() / scale < 0.15


class TestLimitLaw:
    def test_weights_at_depths_two_and_three(self):
        assert np.round(limit_weights(2), 4).tolist() == [0.0915, 0.3641, 0.7423]
        w = np.round(limit_weights(3), 4)
        assert w.size == 7 and (w[0], w[-1]) == (0.0027, 0.8723)

    def test_x_block_of_the_simulated_covariance_is_k(self):
        reps = 4000
        sigma = estimate_sigma(500, 500, 3, reps=reps, seed=1)
        lam = 500 / (500 + 500)
        block = sigma[:7, :7] * lam * (1.0 - lam)
        k = limit_covariance(3)
        # Standard error of a sample covariance entry of Gaussian vectors.
        se = np.sqrt((np.outer(np.diag(k), np.diag(k)) + k**2) / reps)
        assert np.all(np.abs(block - k) <= 4.0 * se)

    def test_weights_are_the_eigenvalues_of_k(self):
        for depth in (2, 5):
            k = limit_covariance(depth)
            assert np.abs(k - k.T).max() == 0.0
            assert np.allclose(np.linalg.eigvalsh(k)[-limit_weights(depth).size:],
                               limit_weights(depth), atol=1e-14)

    @pytest.mark.parametrize("dof, sf", [
        (3, lambda t: math.erfc(math.sqrt(t / 2))
            + math.sqrt(2 * t / math.pi) * math.exp(-t / 2)),
        (4, lambda t: math.exp(-t / 2) * (1 + t / 2)),
    ])
    def test_inversion_is_the_chi_square_tail(self, dof, sf):
        # Equal weights w make the mixture w * chi2_dof, whose tail is known.
        w = 0.7
        for t in np.concatenate([np.geomspace(0.1, 1.0, 5), np.linspace(1.5, 40, 30)]):
            assert abs(_mixture_tail(np.full(dof, w), w * t) - sf(t)) <= 1e-9

    def test_tail_matches_a_simulation_of_the_mixture(self):
        draws = 100_000
        rng = np.random.default_rng(2021)
        for depth in range(2, 10):
            w = limit_weights(depth)
            mixture = np.concatenate([
                np.square(rng.standard_normal((10_000, w.size))) @ w
                for _ in range(draws // 10_000)
            ])
            for level in (0.5, 0.1, 0.05, 0.01):
                x = float(np.quantile(mixture, 1.0 - level))
                # At m = n = 1024, above depth 9's floor of 1023,
                # (m n / N) S = 512 S reads the mixture at exactly x.
                p = asymptotic_p_value(x / 512, 1024, 1024, depth)
                assert abs(p - level) <= 3.0 * math.sqrt(level * (1 - level) / draws)


class TestAsymptoticPValue:
    def test_deterministic(self):
        a = asymptotic_p_value(0.05, 50, 50, 3)
        b = asymptotic_p_value(0.05, 50, 50, 3)
        assert a == b

    def test_depends_on_sizes_only_through_mn_over_n(self):
        # (m n / N) S is 50 S at 100/100 and 18 S at 20/180.
        assert asymptotic_p_value(0.02, 100, 100, 3) == pytest.approx(
            asymptotic_p_value(0.02 * 50 / 18, 20, 180, 3), rel=1e-12
        )

    def test_depth_one_is_the_erfc_closed_form(self):
        # At depth 1 (r = 3) the one contrast is 2 b_0(U) - 1 with
        # b_0(u) = (1 - u)^2 (1 + 2u), whose square integrates to 13/35, so
        # the limit is w chi2_1 with w = 4 * 13/35 - 1 = 17/35.
        w = 17 / 35
        for s in (1e-4, 0.002, 0.01, 0.03, 0.08):
            x = 300 * 200 / 500 * s
            want = math.erfc(math.sqrt(x / (2 * w)))
            assert abs(asymptotic_p_value(s, 300, 200, 1) - want) <= 1e-9

    def test_huge_statistic_hits_floor(self):
        assert asymptotic_p_value(1e9, 50, 50, 3) == 0.0

    def test_nonpositive_statistic_gives_one(self):
        assert asymptotic_p_value(0.0, 50, 50, 3) == 1.0
        assert asymptotic_p_value(-0.3, 50, 50, 2) == 1.0

    def test_non_finite_statistic_raises(self):
        with pytest.raises(ValueError):
            asymptotic_p_value(float("nan"), 50, 50, 3)

    @pytest.mark.parametrize("m, n", [(3, 3), (-3, 10), (0, 0)])
    def test_sizes_below_the_floor_raise(self, m, n):
        # No statistic exists below r = 15 at depth 3, so no p-value either.
        with pytest.raises(SampleTooSmall):
            asymptotic_p_value(0.5, m, n, 3)

    @pytest.mark.parametrize("m, n", [(100.5, 100), (100, np.float64(100)), (True, 100)])
    def test_non_integer_sizes_raise(self, m, n):
        with pytest.raises(SampleTooSmall, match="integers"):
            asymptotic_p_value(0.05, m, n, 3)

    @pytest.mark.parametrize("depth", [3.0, np.float64(3), True])
    def test_non_integer_depth_raises(self, depth):
        with pytest.raises(DepthOutOfRange, match="integer"):
            asymptotic_p_value(0.05, 100, 100, depth)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_raises(self, depth):
        with pytest.raises(DepthOutOfRange, match="positive integer"):
            asymptotic_p_value(0.05, 100, 100, depth)

    def test_numpy_integer_sizes_and_depth_are_integers(self):
        assert asymptotic_p_value(0.05, np.int64(100), np.int32(100), np.int64(3)) == (
            asymptotic_p_value(0.05, 100, 100, 3))

    def test_agrees_with_monte_carlo_table(self):
        # Cross-method consistency at moderate size.
        m = n = 1000
        depth = 3
        table = build_null_table(m, n, depth, 10_000, seed=12)
        for stat in np.quantile(table.stats, [0.5, 0.8, 0.9, 0.95, 0.99]):
            mc = p_value(float(stat), table)
            asym = asymptotic_p_value(float(stat), m, n, depth)
            assert abs(mc - asym) < 0.02


def normal_spec(shift):
    return AlternativeSpec(
        cdf_x=scipy_stats.norm.cdf,
        cdf_y=lambda t: scipy_stats.norm.cdf(t, loc=shift),
        quantile_x=scipy_stats.norm.ppf,
        label=f"normal-shift-{shift}",
    )


class TestBinomialCells:
    """``alternative_mu``'s numpy cells and slopes against scipy's binomial."""

    W = np.concatenate([
        [0.0, 1.0, 1e-300, 1e-12, 1.0 - 1e-12],
        np.linspace(0.0, 1.0, 2001),
        np.geomspace(1e-16, 0.5, 400),
        1.0 - np.geomspace(1e-16, 0.5, 400),
    ])

    @pytest.mark.parametrize("depth", range(1, 10))
    def test_cells_match_scipy(self, depth):
        cells, _ = _binomial_cells(depth, self.W, self.W)
        assert np.abs(cells - binomial_cells(depth, self.W)).max() <= 1e-13

    @pytest.mark.parametrize("depth", range(1, 10))
    def test_slopes_match_scipy(self, depth):
        _, slopes = _binomial_cells(depth, self.W, self.W)
        reference = binomial_slopes(depth, self.W)
        assert np.abs(slopes - reference).max() <= 1e-13 * np.abs(reference).max()


class TestAlternativeMu:
    def test_equal_laws_give_zero_vector(self):
        for depth in (1, 2, 3):
            mu = alternative_mu(normal_spec(0.0), depth)
            assert np.abs(mu).max() <= 1e-10

    def test_equal_laws_give_zero_vector_at_deepest_depth(self):
        # Binomial weights C(1023, j) times a count overflowed a float here.
        mu = alternative_mu(normal_spec(0.0), 9, quadrature_nodes=512)
        assert np.abs(mu).max() <= 1e-10

    def test_equal_uniform_laws_give_zero_vector(self):
        spec = AlternativeSpec(
            cdf_x=lambda t: np.clip(t, 0.0, 1.0),
            cdf_y=lambda t: np.clip(t, 0.0, 1.0),
            quantile_x=lambda u: u,
        )
        assert np.abs(alternative_mu(spec, 2)).max() <= 1e-12

    def test_separated_supports(self):
        # First-sample law entirely below the second's: the first block sees
        # only the lowest cell, the second block only the highest.
        spec = AlternativeSpec(
            cdf_x=lambda t: np.clip(t, 0.0, 1.0),
            cdf_y=lambda t: np.clip(t - 10.0, 0.0, 1.0),
            quantile_x=lambda u: u,
        )
        depth = 2
        mu = alternative_mu(spec, depth)
        reduced = sylvester(depth)[1:, :]
        half = (1 << depth) - 1
        assert np.abs(mu[:half] - reduced[:, 0]).max() <= 1e-12
        assert np.abs(mu[half:] - reduced[:, -1]).max() <= 1e-12

    def test_invariant_under_monotone_reparameterization(self):
        # Pushing both laws through exp (log-normal pair) leaves mu unchanged.
        base = alternative_mu(normal_spec(0.4), 2)
        mapped = AlternativeSpec(
            cdf_x=lambda t: scipy_stats.norm.cdf(np.log(t)),
            cdf_y=lambda t: scipy_stats.norm.cdf(np.log(t), loc=0.4),
            quantile_x=lambda u: np.exp(scipy_stats.norm.ppf(u)),
        )
        assert np.abs(alternative_mu(mapped, 2) - base).max() <= 1e-8

    def test_matches_empirical_mean(self):
        mu = alternative_mu(normal_spec(0.3), 2)
        reps, m = 300, 1500
        rng_rows = np.random.default_rng(17)
        xs = rng_rows.normal(size=(reps, m))
        ys = rng_rows.normal(0.3, 1.0, size=(reps, m))
        _, s_x, s_y = august_many(xs, ys, 2)
        joint = np.hstack([s_x, s_y])
        errors = np.abs(joint.mean(axis=0) - mu)
        stderr = joint.std(axis=0) / np.sqrt(reps)
        assert np.all(errors <= 3.5 * stderr + 1e-12)

    def test_node_floor(self):
        with pytest.raises(ValueError):
            alternative_mu(normal_spec(0.0), 2, quadrature_nodes=32)

    def test_discontinuous_cdf_fails_quadrature(self):
        spec = AlternativeSpec(
            cdf_x=lambda t: np.clip(t, 0.0, 1.0),
            cdf_y=lambda t: 0.0 if t < 0.37 else 1.0,
            quantile_x=lambda u: u,
        )
        with pytest.raises(QuadratureFailure):
            alternative_mu(spec, 2)

    def test_decreasing_handle_rejected(self):
        spec = AlternativeSpec(
            cdf_x=lambda t: np.clip(t, 0.0, 1.0),
            cdf_y=lambda t: np.clip(1.0 - t, 0.0, 1.0),
            quantile_x=lambda u: u,
        )
        with pytest.raises(ValueError):
            alternative_mu(spec, 1)


class TestPowerSimulation:
    def test_null_calibration(self):
        power = power_simulation(
            lambda rng, size: rng.random(size),
            lambda rng, size: rng.random(size),
            build_null_table(64, 64, 2, 2000, seed=23),
            alpha=0.05, reps=400, seed=23,
        )
        tolerance = 2 * np.sqrt(0.05 * 0.95 / 400)
        assert abs(power - 0.05) <= tolerance

    def test_deterministic(self):
        args = (
            lambda rng, size: rng.standard_normal(size),
            lambda rng, size: rng.standard_normal(size) + 0.4,
        )
        table = build_null_table(32, 32, 2, 2000, seed=2)
        a = power_simulation(*args, table, alpha=0.05, reps=150, seed=2)
        b = power_simulation(*args, table, alpha=0.05, reps=150, seed=2)
        assert a == b

    def test_monotone_in_shift(self):
        table = build_null_table(64, 64, 3, 2000, seed=31)
        powers = []
        for shift in (0.0, 0.3, 0.6, 0.9, 1.2):
            powers.append(power_simulation(
                lambda rng, size: rng.standard_normal(size),
                lambda rng, size, s=shift: rng.standard_normal(size) + s,
                table, alpha=0.05, reps=300, seed=31,
            ))
        stderr = np.sqrt(np.maximum(np.array(powers) * (1 - np.array(powers)), 0.002) / 300)
        for lo, hi, se in zip(powers, powers[1:], stderr):
            assert hi >= lo - 2 * se
        assert powers[-1] > powers[0]

    def test_one_stream_per_block_of_replicates(self, monkeypatch):
        calls = []
        original = _seeds.replicate_rng

        def counting(*args):
            calls.append(args)
            return original(*args)

        table = build_null_table(16, 16, 1, 200, seed=0)
        monkeypatch.setattr(_seeds, "replicate_rng", counting)
        power_simulation(
            lambda rng, size: rng.random(size),
            lambda rng, size: rng.random(size),
            table, alpha=0.05, reps=2100, seed=4,
        )
        assert calls == [(4, _seeds.POWER_TRIAL, 0), (4, _seeds.POWER_TRIAL, 1)]

    def test_pairs_do_not_depend_on_the_row_chunk(self):
        def pairs(rows):
            blocks = list(_seeds.replicate_blocks(
                8, _seeds.POWER_TRIAL, 2100,
                lambda rng, size: rng.standard_normal(size),
                lambda rng, size: rng.random(size) + 1.0, 5, 7, rows))
            assert all(len(xs) <= rows for xs, _ in blocks)
            return [np.concatenate(part) for part in zip(*blocks)]

        xs, ys = pairs(1)
        assert xs.shape == (2100, 5) and ys.shape == (2100, 7)
        for rows in (7, 2048, 5000):
            chunked = pairs(rows)
            assert np.array_equal(chunked[0], xs) and np.array_equal(chunked[1], ys)
        streams = _seeds.replicate_streams(8, _seeds.POWER_TRIAL, 2100)
        for x, y, rng in zip(xs, ys, streams):
            assert np.array_equal(x, rng.standard_normal(5))
            assert np.array_equal(y, rng.random(7) + 1.0)

    def test_memory_is_bounded_by_a_chunk(self):
        # 200 pairs of 2e4 + 2e4 values hold 64 MB; a chunk holds about 8 MB.
        table = NullTable(np.linspace(0.0, 1.0, 100), 20_000, 20_000, 3, 100, 0)
        tracemalloc.start()
        try:
            power_simulation(
                lambda rng, size: rng.random(size),
                lambda rng, size: rng.random(size),
                table, alpha=0.05, reps=200, seed=1,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            power_simulation(
                lambda rng, size: rng.random(size),
                lambda rng, size: rng.random(size),
                build_null_table(32, 32, 1, 2000, seed=0),
                alpha=0.05, reps=50, seed=0,
            )
