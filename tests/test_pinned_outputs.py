"""Exact outputs of the permutation engines and the batched kernel.

The relabelling, multivariate and baseline values were recorded when
relabellings became label masks drawn as iid bulk labels plus an exact
fix-up; the ``august_many``, power and covariance values were recorded
before ``august_many`` handed its batches to ``august_labels``.  Each is
compared with ``==``: a change in any byte means a relabelling was drawn
or ranked differently, or a matrix product was cut differently.  The
statistic digests read floats from matrix products, so another BLAS build
may change them without any change here.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np

import august
from august import (
    _seeds,
    august_many,
    baseline_permutation_test,
    build_null_table,
    estimate_sigma,
    multivariate_test,
    power_simulation,
)
from august import multivariate as mv
from august.families import get_family


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


def _float_digest(arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# OpenBLAS cuts a product this large by thread, and the last bits of its
# rows move with the thread count, so it is pinned in one BLAS thread.
_TWO_CHUNKS = """
import hashlib
import numpy as np
from august import august_many
rng = np.random.default_rng(2701)
xs, ys = rng.random((3000, 700)), rng.random((3000, 700))
h = hashlib.sha256()
for array in august_many(xs, ys, 2):
    h.update(array.tobytes())
print(h.hexdigest())
"""


def test_august_many_outputs():
    # 3000 pairs of 700 + 700 points are two chunks (2857 and 143 rows).
    src = os.path.dirname(os.path.dirname(august.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _TWO_CHUNKS], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == (
        "5cad539b30e9013bee8700c218230e05351439f1c42147b3a012c09ebc8999d5")
    rng = np.random.default_rng(2702)
    one = august_many(rng.random((1, 500)), rng.random((1, 430)), 3)
    assert _float_digest(one) == (
        "4053ece6a071bcd8a97c5d71f0f776a4e8e9f9fdfe3e7994f04806dfb746cad7")


def test_power_rate_and_covariance():
    family = get_family("normal-location")
    table = build_null_table(64, 64, 3, 2000, seed=31)
    power = power_simulation(
        family.null_sampler, family.alternative(0.3), table, 0.05, 1000, 5)
    assert power == 0.301
    sigma = estimate_sigma(40, 50, 2, reps=1000, seed=3)
    assert _float_digest([sigma]) == (
        "d9d9bd260643d5dce771662cf7227184729150ec2f3731505beb60e6af857201")
