import numpy as np
import pytest

from august import (
    AugustResult,
    IOFailure,
    SampleTooSmall,
    august_plus,
    emit_plot_data,
    rank_symmetries,
    read_plot_data,
    region_report,
    row_label,
)
from august.interpret import _quantile_intervals


def result_with(s_x, depth, p_x=None):
    cells = 1 << depth
    uniform = np.full(cells, 1.0 / cells)
    s_x = np.asarray(s_x, dtype=np.float64)
    return AugustResult(
        statistic=float(-(s_x @ np.zeros_like(s_x))),
        s_x=s_x,
        s_y=np.zeros_like(s_x),
        p_x=uniform if p_x is None else p_x,
        p_y=uniform,
        depth=depth,
        m=100,
        n=100,
        tie_policy_applied="none",
    )


WORKED_VECTOR = [0.00, -0.10, 0.02, -0.02, -0.02, -0.08, 0.00]


class TestRankSymmetries:
    def test_worked_example_ordering(self):
        ranked = rank_symmetries(result_with(WORKED_VECTOR, 3), reference="y")
        assert ranked[0][0] == 3 and ranked[0][2] == pytest.approx(-0.10)
        assert ranked[1][0] == 7 and ranked[1][2] == pytest.approx(-0.08)
        assert ranked[0][1] == (1, 1, -1, -1, 1, 1, -1, -1)
        assert ranked[1][1] == (1, 1, -1, -1, -1, -1, 1, 1)

    def test_zero_vector_keeps_row_order(self):
        ranked = rank_symmetries(result_with(np.zeros(7), 3))
        assert [row for row, _, _ in ranked] == [2, 3, 4, 5, 6, 7, 8]

    def test_single_nonzero_coordinate_first(self):
        vec = np.zeros(7)
        vec[4] = 0.2  # row 6
        assert rank_symmetries(result_with(vec, 3))[0][0] == 6

    def test_is_a_permutation_of_the_vector(self):
        rng = np.random.default_rng(3)
        vec = rng.uniform(-1, 1, 7)
        ranked = rank_symmetries(result_with(vec, 3))
        assert sorted(v for _, _, v in ranked) == sorted(vec.tolist())

    def test_reference_x_ranks_other_vector(self):
        vec = np.zeros(3)
        vec[1] = 0.5
        result = result_with(vec, 2)
        # s_y is all zeros, so ranking relative to reference "x" is flat.
        ranked = rank_symmetries(result, reference="x")
        assert all(v == 0.0 for _, _, v in ranked)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            rank_symmetries(result_with(np.zeros(3), 2), reference="z")


class TestQuantileIntervals:
    def test_partitions_range_with_balanced_counts(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(size=203)
        depth = 3
        intervals = _quantile_intervals(sample, depth)
        assert intervals[0][0] == sample.min()
        assert intervals[-1][1] == sample.max()
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi == lo
        counts = []
        for i, (lo, hi) in enumerate(intervals):
            if i == len(intervals) - 1:
                inside = np.count_nonzero((sample >= lo) & (sample <= hi))
            else:
                inside = np.count_nonzero((sample >= lo) & (sample < hi))
            counts.append(inside)
        base = 203 // 8
        assert all(c in (base, base + 1) for c in counts)
        # remainder of 203 = 8 * 25 + 3 goes to the three leftmost intervals
        assert counts == [26, 26, 26, 25, 25, 25, 25, 25]

    def test_too_small_reference(self):
        with pytest.raises(SampleTooSmall):
            _quantile_intervals(np.arange(5.0), 3)


class TestRegionReport:
    def test_worked_example_shading(self):
        rng = np.random.default_rng(1)
        result = result_with(WORKED_VECTOR, 3)
        x = rng.normal(size=120)
        y = rng.normal(size=160)
        reports = region_report(result, x, y, reference="y", top_k=2)
        assert reports[0].row_index == 3
        assert reports[0].shaded == (False, False, True, True, False, False, True, True)
        assert reports[1].row_index == 7
        assert reports[1].rank == 2

    def test_sign_flip_complements_shading(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        y = rng.normal(size=60)
        vec = np.zeros(3)
        vec[0] = 0.4  # row 2 at depth 2
        pos = region_report(result_with(vec, 2), x, y, top_k=1)[0]
        vec[0] = -0.4
        neg = region_report(result_with(vec, 2), x, y, top_k=1)[0]
        assert pos.row_index == neg.row_index == 2
        assert tuple(not s for s in pos.shaded) == neg.shaded

    def test_shaded_regions_capture_excess_on_separated_data(self):
        rng = np.random.default_rng(3)
        x = rng.random(200)
        y = rng.random(220) + 0.8  # shifted upward, heavy overlap at the edge
        result = august_plus(x, y, 1)
        report = region_report(result, x, y, reference="y", top_k=1)[0]
        shaded_total = 0
        for (lo, hi), shaded in zip(report.intervals, report.shaded):
            if shaded:
                shaded_total += np.count_nonzero((x >= lo) & (x < hi))
        # clip x values outside the reference range into the outer intervals
        shaded_total += np.count_nonzero(x < report.intervals[0][0]) * report.shaded[0]
        assert abs(result.statistic) > 0.2
        assert shaded_total > x.size / 2

    def test_depth_one_row_label(self):
        assert row_label(1, 2) == "location: left/right balance"
        assert row_label(2, 4) == "scale: center vs tails"
        assert row_label(3, 3) == "coarse Venetian blind"


class TestPlotData:
    def make_reports(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=90)
        y = rng.normal(size=110)
        result = august_plus(x, y, 3)
        return region_report(result, x, y, reference="y", top_k=2), y

    def test_round_trip_is_lossless(self, tmp_path):
        reports, y = self.make_reports()
        path = str(tmp_path / "plot.json")
        payload = emit_plot_data(reports, y, path, histogram_bins=16)
        parsed = read_plot_data(path)
        assert parsed == payload
        assert parsed["schema_version"] == 1
        assert parsed["reference_label"] == "y"
        assert len(parsed["reports"]) == 2
        first = parsed["reports"][0]
        assert first["rank"] == 1
        assert len(first["intervals"]) == 8
        assert set(first["intervals"][0]) == {"lo", "hi", "shaded"}

    def test_byte_stable(self, tmp_path):
        reports, y = self.make_reports()
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        emit_plot_data(reports, y, a)
        emit_plot_data(reports, y, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_reports_file_has_histogram_only(self, tmp_path):
        rng = np.random.default_rng(5)
        path = str(tmp_path / "hist.json")
        emit_plot_data([], rng.normal(size=50), path, histogram_bins=10)
        parsed = read_plot_data(path)
        assert parsed["reports"] == []
        assert len(parsed["histogram"]["edges"]) == 11
        assert sum(parsed["histogram"]["counts"]) == 50

    def test_unwritable_path_raises(self, tmp_path):
        reports, y = self.make_reports()
        with pytest.raises(IOFailure):
            emit_plot_data(reports, y, str(tmp_path / "nodir" / "plot.json"))
