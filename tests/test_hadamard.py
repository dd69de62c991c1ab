import numpy as np
import pytest

from august import (
    DepthOutOfRange,
    LengthNotPowerOfTwo,
    fwht,
    sylvester,
)

H4 = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
])

H8 = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, -1, 1, -1, 1, -1, 1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1],
    [1, -1, -1, 1, 1, -1, -1, 1],
    [1, 1, 1, 1, -1, -1, -1, -1],
    [1, -1, 1, -1, -1, 1, -1, 1],
    [1, 1, -1, -1, -1, -1, 1, 1],
    [1, -1, -1, 1, -1, 1, 1, -1],
])


class TestSylvester:
    def test_base_case(self):
        assert np.array_equal(sylvester(1), [[1, 1], [1, -1]])

    def test_order_four_layout(self):
        assert np.array_equal(sylvester(2), H4)

    def test_order_eight_layout(self):
        assert np.array_equal(sylvester(3), H8)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 10])
    def test_integer_exact_orthogonality(self, depth):
        h = sylvester(depth)
        product = h @ h.T
        assert np.array_equal(product, (1 << depth) * np.eye(1 << depth, dtype=int))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_first_row_and_column_all_ones(self, depth):
        h = sylvester(depth)
        assert np.all(h[0] == 1)
        assert np.all(h[:, 0] == 1)

    @pytest.mark.parametrize("depth", [0, -3, 21])
    def test_depth_out_of_range(self, depth):
        with pytest.raises(DepthOutOfRange):
            sylvester(depth)


class TestFwht:
    def test_unit_vector_gives_first_column(self):
        assert np.array_equal(fwht(np.array([1.0, 0.0, 0.0, 0.0])), [1, 1, 1, 1])

    def test_worked_example_vector(self):
        out = fwht(np.array([0.35, 0.40, 0.15, 0.10]))
        assert out == pytest.approx([1.00, 0.00, 0.50, -0.10], abs=1e-15)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_matches_dense_multiply(self, depth):
        rng = np.random.default_rng(depth)
        v = rng.normal(size=1 << depth)
        dense = sylvester(depth).astype(float) @ v
        assert np.abs(fwht(v) - dense).max() <= 1e-12

    def test_involution_up_to_scale(self):
        rng = np.random.default_rng(1)
        for depth in (1, 3, 5):
            v = rng.normal(size=1 << depth)
            twice = fwht(fwht(v))
            assert np.abs(twice - (1 << depth) * v).max() <= 1e-10

    def test_integer_inputs_stay_exact(self):
        v = np.array([3, -1, 4, 1], dtype=np.int64)
        out = fwht(v)
        assert out.dtype == np.int64
        assert np.array_equal(out, H4 @ v)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(LengthNotPowerOfTwo):
            fwht(np.array([1.0, 2.0, 3.0]))

    def test_applies_along_last_axis(self):
        rng = np.random.default_rng(2)
        block = rng.normal(size=(5, 8))
        rowwise = np.stack([fwht(row) for row in block])
        assert np.abs(fwht(block) - rowwise).max() == 0.0


class TestSymmetryStatistics:
    """A symmetry vector is ``fwht(p)[1:]``."""

    def test_depth_two_worked_example(self):
        out = fwht(np.array([0.35, 0.40, 0.15, 0.10]))[1:]
        assert np.abs(out - [0.00, 0.50, -0.10]).max() <= 1e-12

    def test_depth_three_worked_example(self):
        probs = np.array([0.10, 0.10, 0.14, 0.15, 0.13, 0.12, 0.13, 0.13])
        expected = [0.00, -0.10, 0.02, -0.02, -0.02, -0.08, 0.00]
        assert np.abs(fwht(probs)[1:] - expected).max() <= 1e-12

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_uniform_cells_give_zero_vector(self, depth):
        cells = 1 << depth
        assert np.abs(fwht(np.full(cells, 1.0 / cells))[1:]).max() <= 1e-15

    def test_random_cells_stay_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for depth in (1, 2, 3):
            for _ in range(25):
                probs = rng.dirichlet(np.ones(1 << depth))
                out = fwht(probs)[1:]
                assert np.abs(out).max() <= 1.0 + 1e-12
