"""Exact outputs of the permutation engines on fixed inputs.

Each value was recorded before the relabelling draws and the multivariate
loop were vectorised, and is compared with ``==``: a change in any byte
means a relabelling was drawn or ranked differently.  The statistic
digests read floats from ``august_many``'s matrix products, so another
BLAS build may change them without any change here.
"""

import hashlib

import numpy as np

from august import _seeds, baseline_permutation_test, multivariate_test
from august import multivariate as mv


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(np.ascontiguousarray(chunk, dtype=np.int64).tobytes())
    return h.hexdigest()


def _multivariate_samples():
    rng = np.random.default_rng(2401)
    x2 = rng.standard_normal((128, 2))
    y2 = rng.standard_normal((128, 2)) * 1.2 + 0.1
    rng = np.random.default_rng(2402)
    cov = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 1.0]])
    x3 = rng.multivariate_normal(np.zeros(3), cov, size=300)
    y3 = rng.multivariate_normal(np.full(3, 0.15), cov, size=280)
    return x2, y2, x3, y3


def test_relabellings():
    for permutations, total, rows, digest in (
        (2100, 12, 5000,
         "22d8005b20f6730b5fa15fa41329ea0d67e79278f4249753e523af297cc66c2e"),
        (199, 256, 3906,
         "bfdf533d38c2faa5b8cf8f3f4e6202f802af9395ac3983de9c7103cf3bd0dba5"),
    ):
        chunks = _seeds.relabellings(31, _seeds.PERMUTATION, permutations, total, rows)
        assert _digest(idx for _, idx in chunks) == digest


def test_multivariate_p_values():
    x2, y2, x3, y3 = _multivariate_samples()
    assert multivariate_test(x2, y2, 2, permutations=199, seed=7).p_value == 0.03
    assert multivariate_test(x3, y3, 2, permutations=999, seed=11).p_value == 0.191


def test_multivariate_permutation_statistics():
    x2, y2, x3, y3 = _multivariate_samples()
    for pooled, m, permutations, seed, digest in (
        (np.vstack([x2, y2]), 128, 199, 7,
         "83829642f223f2701e30ef8f9f099be17eb0a6712831e89b977eb8856c0cc792"),
        (np.vstack([x3, y3]), 300, 999, 11,
         "0a74f29a05c2455753294f9c285089fb9febe68396e1e1f02aed8eb1a53990cb"),
    ):
        stats = mv._batched_permutation_stats(pooled, m, 2, permutations, seed, 0.0)
        assert hashlib.sha256(stats.tobytes()).hexdigest() == digest


def test_baseline_p_values():
    rng = np.random.default_rng(2403)
    x = rng.standard_normal(128)
    y = rng.standard_normal(128) * 1.3 + 0.2
    assert baseline_permutation_test("ks", x, y, 199, 13).p_value == 0.155
    assert baseline_permutation_test("energy", x, y, 199, 13).p_value == 0.095
