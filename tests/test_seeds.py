import itertools

import numpy as np
import pytest
from scipy import stats

from august import _seeds


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


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        next(_seeds.relabellings(-1, _seeds.BASELINE, 5, 2, 2))
