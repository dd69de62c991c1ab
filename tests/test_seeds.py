import itertools

import numpy as np
import pytest
from scipy import stats

from august import _seeds
from oracles import fix_counts_full_scan


def _all_rows(permutations=2100, m=5, n=7, seed=31):
    chunks = list(_seeds.relabellings(seed, _seeds.BASELINE, permutations, m, n))
    starts = [start for start, _ in chunks]
    sizes = [len(mask) for _, mask in chunks]
    assert starts == list(np.cumsum([0] + sizes[:-1]))
    # A piece never crosses a block.
    assert all((start + size - 1) // _seeds.BLOCK == start // _seeds.BLOCK
               for start, size in zip(starts, sizes))
    return np.concatenate([mask for _, mask in chunks])


class TestRelabellings:
    def test_rows_do_not_depend_on_chunk_size(self):
        # The first K of a run of P > K relabellings are a run of K, also
        # when K ends inside a piece or a 2048-row block.
        for m, n, longer, shorter in (
            (5, 7, 2100, 1), (5, 7, 2100, 2047), (5, 7, 2100, 2048),
            (5, 7, 4200, 2049), (300, 320, 5000, 1691), (300, 320, 5000, 2100),
        ):
            reference = _all_rows(longer, m, n)
            assert reference.shape == (longer, m + n)
            assert np.array_equal(_all_rows(shorter, m, n), reference[:shorter])

    def test_every_row_has_n_y_labels(self):
        for m, n in ((5, 7), (1, 11), (11, 1), (300, 320), (3, 12), (12, 3)):
            rows = _all_rows(2100, m, n)
            assert rows.dtype == bool
            assert np.array_equal(rows.sum(axis=1), np.full(2100, n))

    def test_row_i_is_drawn_in_order_from_its_block_stream(self):
        # Row i's bulk labels are the next three 64-bit draws of its block's
        # stream, read as twelve 16-bit values below round(65536 * 7 / 12);
        # the fix-up flips |c - 7| of the labels that carry the surplus.
        rows = _all_rows(2100)
        for block, got in enumerate((rows[:2048], rows[2048:])):
            stream = _seeds.replicate_rng(31, _seeds.BASELINE, block).bit_generator
            bulk = stream.random_raw(3 * len(got)).view(np.uint16).reshape(-1, 12)
            bulk = bulk < round(65536 * 7 / 12)
            surplus = bulk.sum(axis=1) - 7
            flipped = got != bulk
            assert np.array_equal(flipped.sum(axis=1), np.abs(surplus))
            assert np.array_equal(bulk[flipped], np.repeat(surplus > 0, np.abs(surplus)))
            assert (surplus == 0).any() and (surplus != 0).any()

    def test_two_streams_per_block(self, monkeypatch):
        # Two streams per block: the block's ``replicate_rng`` stream draws
        # the bulk labels and its first spawned child the fix-ups.
        streams = []
        original = np.random.default_rng

        def counting(seed_sequence):
            streams.append((seed_sequence.entropy, seed_sequence.spawn_key))
            return original(seed_sequence)

        monkeypatch.setattr(_seeds.np.random, "default_rng", counting)
        _all_rows(2100)
        key = (31, _seeds.BASELINE)
        assert streams == [(key + (0,), ()), (key + (0,), (0,)),
                           (key + (1,), ()), (key + (1,), (0,))]

    @pytest.mark.parametrize("m, n", [(4, 3), (2, 7)])
    def test_every_label_sequence_is_equally_likely(self, m, n):
        # Chi-square over all C(m + n, n) sequences at alpha = 1e-4.
        draws, alpha = 100_000, 1e-4
        rows = _all_rows(draws, m, n)
        codes = rows @ (1 << np.arange(m + n))
        sequences = [sum(1 << i for i in at)
                     for at in itertools.combinations(range(m + n), n)]
        observed = np.bincount(codes, minlength=1 << (m + n))[sequences]
        assert observed.sum() == draws
        expected = draws / len(sequences)
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.isf(alpha, len(sequences) - 1)

    def test_no_relabellings(self):
        assert list(_seeds.relabellings(0, _seeds.BASELINE, 0, 2, 3)) == []


def _bulk(total, n, rows, seed):
    # Bulk labels as ``relabellings`` draws them: y where a 16-bit draw is
    # below round(65536 n / total).
    raw = np.random.default_rng(seed).bit_generator.random_raw(rows * -(-total // 4))
    return raw.view(np.uint16).reshape(rows, -1)[:, :total] < round(65536 * n / total)


class TestFixCounts:
    def _same_as_full_scan(self, mask, n, seed):
        ours, theirs = mask.copy(), mask.copy()
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        _seeds._fix_counts(ours, n, rng)
        fix_counts_full_scan(theirs, n, oracle_rng)
        assert ours.tobytes() == theirs.tobytes()
        assert np.array_equal(ours.sum(axis=1), np.full(len(mask), n))
        # Both consumed the same draws.
        assert rng.integers(2**63) == oracle_rng.integers(2**63)
        return ours

    @pytest.mark.parametrize("total", [2, 7, 8, 63, 64, 65, 730, 3411, 65537])
    def test_random_pieces_match_the_full_scan(self, total):
        rows = max(1, 2**20 // total)
        for seed, n in enumerate(sorted({1, total // 3, total // 2, total - 1} - {0})):
            self._same_as_full_scan(_bulk(total, n, rows, seed), n, seed)

    def test_one_point_per_side(self):
        # m = 1 or n = 1: at most one label to place per row.
        for m, n in ((1, 1), (1, 6), (6, 1), (1, 729), (729, 1)):
            self._same_as_full_scan(_bulk(m + n, n, 500, m * n), n, 3)

    def test_piece_with_no_flips_is_left_alone(self):
        mask = _all_rows(300, 5, 7)
        rng = np.random.default_rng(0)
        assert self._same_as_full_scan(mask, 7, 0).tobytes() == mask.tobytes()
        # No flips draw nothing.
        _seeds._fix_counts(mask, 7, rng)
        assert rng.integers(2**63) == np.random.default_rng(0).integers(2**63)

    @pytest.mark.parametrize("n", [1, 350, 699])
    def test_every_row_over_or_every_row_under(self, n):
        # Up to 699 flips per row: steps past any 8-bit key.
        full = np.ones((20, 700), dtype=bool)
        self._same_as_full_scan(full, n, n)
        self._same_as_full_scan(~full, n, n)

    def test_random_piece_with_every_row_over_or_under(self):
        mask = _bulk(100, 50, 300, 4)
        counts = mask.sum(axis=1)
        self._same_as_full_scan(mask, counts.min() - 1, 5)
        self._same_as_full_scan(mask, counts.max() + 1, 6)

    @pytest.mark.parametrize("total", [1, 7, 8, 63, 64, 65, 730, 65535, 65536, 65537])
    def test_row_counts_equal_count_nonzero(self, total):
        mask = _bulk(total, max(total // 2, 1), max(3, 2**18 // total), total)
        mask[0], mask[-1] = False, True  # an empty and a full row
        assert np.array_equal(_seeds._row_counts(mask), np.count_nonzero(mask, axis=1))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        next(_seeds.relabellings(-1, _seeds.BASELINE, 5, 2, 2))
