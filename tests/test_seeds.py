import numpy as np
import pytest

from august import _seeds


def _all_rows(rows, permutations=2100, total=12, seed=31):
    chunks = list(_seeds.relabellings(seed, _seeds.BASELINE, permutations, total, rows))
    assert [start for start, _ in chunks] == list(range(0, permutations, rows))
    assert all(len(idx) <= rows for _, idx in chunks)
    return np.concatenate([idx for _, idx in chunks])


class TestRelabellings:
    def test_rows_do_not_depend_on_chunk_size(self):
        reference = _all_rows(1)
        assert reference.shape == (2100, 12)
        for rows in (7, 2048, 5000):
            assert np.array_equal(_all_rows(rows), reference)

    def test_row_i_is_drawn_in_order_from_its_block_stream(self):
        rows = _all_rows(7)
        streams = {}
        for i, row in enumerate(rows):
            block = i // _seeds.BLOCK
            if block not in streams:
                streams[block] = _seeds.replicate_rng(31, _seeds.BASELINE, block)
            assert np.array_equal(row, streams[block].permutation(12))
        assert sorted(streams) == [0, 1]

    def test_every_row_is_a_permutation(self):
        rows = _all_rows(2048)
        assert np.array_equal(np.sort(rows, axis=1), np.tile(np.arange(12), (2100, 1)))

    def test_one_stream_per_block(self, monkeypatch):
        calls = []
        original = _seeds.replicate_rng

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(_seeds, "replicate_rng", counting)
        _all_rows(300)
        assert calls == [(31, _seeds.BASELINE, 0), (31, _seeds.BASELINE, 1)]

    def test_no_relabellings(self):
        assert list(_seeds.relabellings(0, _seeds.BASELINE, 0, 5, 3)) == []


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        next(_seeds.relabellings(-1, _seeds.BASELINE, 5, 4, 2))
