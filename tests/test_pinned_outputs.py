"""Exact outputs of the permutation engines on fixed inputs.

Each value was recorded when relabellings became label masks drawn as iid
bulk labels plus an exact fix-up, and is compared with ``==``: a change in
any byte means a relabelling was drawn or ranked differently.  The statistic
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
        h.update(np.ascontiguousarray(chunk, dtype=np.uint8).tobytes())
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
    for permutations, m, n, digest in (
        (2100, 5, 7,
         "53e2b093cda8043f75c01545c532a12ff2af207b781f189fd40841b640e38f31"),
        (199, 128, 128,
         "a28b5ab477dc289c24f099b14f91993c4ec24e49fcf825ca6c865a813fe77ace"),
    ):
        chunks = _seeds.relabellings(31, _seeds.PERMUTATION, permutations, m, n)
        assert _digest(mask for _, mask in chunks) == digest


def test_multivariate_p_values():
    x2, y2, x3, y3 = _multivariate_samples()
    assert multivariate_test(x2, y2, 2, permutations=199, seed=7).p_value == 0.04
    assert multivariate_test(x3, y3, 2, permutations=999, seed=11).p_value == 0.194


def test_multivariate_permutation_statistics():
    x2, y2, x3, y3 = _multivariate_samples()
    for pooled, m, permutations, seed, digest in (
        (np.vstack([x2, y2]), 128, 199, 7,
         "b05b34b3ff98c551c18d0426c7e530e484105ae9c3a722cfdbbc395566aa105e"),
        (np.vstack([x3, y3]), 300, 999, 11,
         "4d35bc3700ac1162941d35056543b2a760562b1f6ad9102cf3d46340a98d0462"),
    ):
        stats = mv._batched_permutation_stats(pooled, m, 2, permutations, seed, 0.0)
        assert hashlib.sha256(stats.tobytes()).hexdigest() == digest


def test_baseline_p_values():
    rng = np.random.default_rng(2403)
    x = rng.standard_normal(128)
    y = rng.standard_normal(128) * 1.3 + 0.2
    assert baseline_permutation_test("ks", x, y, 199, 13).p_value == 0.145
    assert baseline_permutation_test("energy", x, y, 199, 13).p_value == 0.08
