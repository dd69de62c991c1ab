"""P-values, calibration, and power tooling.

The statistic is exactly distribution-free under the null, so one
Monte-Carlo null table per ``(m, n, depth, sims, seed)`` serves every
dataset with matching sizes.  A null replicate is a uniformly random
label sequence: a label mask drawn by ``_seeds.relabellings`` and read as
it is by ``core.august_labels``, which builds the cell rows of every count
once per table.  Tables are sorted and can be persisted to a binary cache
whose header records the key and the format version; a file of another
version holds other draws for its key, so it is rebuilt, not read.

``estimate_sigma`` and ``power_simulation`` draw value pairs from
``_seeds.replicate_blocks``, under the same block-stream rule as the
tables, and ``august_many`` takes them in chunks of about 1e6 points, so
memory does not grow with the number of replicates.  Every add-one
p-value, here and in the permutation tests, comes from
``_seeds.add_one_p_value``.

The asymptotic mode reads the statistic's limit law in closed form.
Under the null ``(m n / N) S`` tends to ``sum_i w_i chi2_1``, whatever
``m / N``: the ``w_i`` are the eigenvalues of ``K``, the covariance of the
Hadamard-transformed binomial cell weights ``b_k(U)`` of a uniform ``U``.
``K`` depends only on the depth and is computed once per depth from Beta
integrals; the tail is read by inverting the characteristic function, so
the mode draws no random numbers and costs the same at every N.
``estimate_sigma`` simulates the same covariance at finite N and serves as
the oracle that ``K`` is checked against.  ``alternative_mu`` computes the
population-level mean of the symmetry vectors under a fixed pair of laws
by Gauss-Legendre quadrature.  It is a library-only tool: no command calls
it, and ``power_simulation`` estimates power by simulation instead.
"""

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _seeds
from .core import august_labels, august_many, minimum_sample_size
from .errors import IOFailure, QuadratureFailure, SampleTooSmall
from .hadamard import sylvester
from .hypergeom import SubsampleConfig, binomial_row

__all__ = [
    "NullTable",
    "AlternativeSpec",
    "build_null_table",
    "p_value",
    "estimate_sigma",
    "limit_covariance",
    "limit_weights",
    "asymptotic_p_value",
    "alternative_mu",
    "power_simulation",
    "null_table_path",
    "save_null_table",
    "load_null_table",
    "cached_null_table",
]

# Version 3 tables hold label-mask draws; a file of another version holds
# other draws for the same key, so ``cached_null_table`` rebuilds it.
_FORMAT_VERSION = 3
_MAGIC = b"AUGNULTB"
# The header still carries a tag after the key, fixed to this value.  The
# benchmark's own reader (``benchmark/reference.read_null_table``) parses
# exactly this layout and checks the tag, so the tag stays until the
# benchmark drops it.
_TAG = b"uniform"


@dataclass(frozen=True)
class NullTable:
    """Sorted Monte-Carlo null statistics keyed by (m, n, depth, sims, seed)."""

    stats: np.ndarray
    m: int
    n: int
    depth: int
    sims: int
    seed: int

    def __post_init__(self):
        stats = np.asarray(self.stats, dtype=np.float64)
        object.__setattr__(self, "stats", stats)
        if stats.size != self.sims:
            raise ValueError("stats length must equal sims")
        if stats.size and np.any(np.diff(stats) < 0):
            raise ValueError("stats must be sorted ascending")


@dataclass(frozen=True)
class AlternativeSpec:
    """A fixed pair of continuous laws for power analysis.

    ``cdf_x`` / ``quantile_x`` describe the first sample's law, ``cdf_y``
    the second sample's.  Only the first law's quantile function is needed:
    both mean integrals reduce to quadrature against
    ``w(u) = cdf_y(quantile_x(u))`` on the unit interval.
    """

    cdf_x: callable
    cdf_y: callable
    quantile_x: callable
    label: str = ""


def _chunk_rows(total):
    """Replicates of ``total`` points per chunk: about 1e6 points, at least one."""
    return max(1, 1_000_000 // total)


def build_null_table(m, n, depth, sims, seed):
    """Simulate ``sims`` null statistics and return them sorted.

    Replicate i is label mask i of ``m`` x and ``n`` y points in the
    NULL_TABLE domain, read in pieces of about 1e6 points, so memory does
    not grow with the number of replicates.
    The cell rows of every count are built once for the whole table, one
    set per side, and only the statistics are kept.  A seed outside
    [0, 2**64), which the cache header cannot hold, is refused first.
    """
    r = minimum_sample_size(depth)
    if m < r or n < r:
        raise SampleTooSmall(f"need m, n >= {r} at depth {depth}")
    if sims < 100:
        raise ValueError("sims must be at least 100")
    if not 0 <= seed < 2**64:  # the cache header holds the seed in 8 bytes
        raise ValueError("seed must be an integer in [0, 2**64)")
    chunks = _seeds.relabellings(seed, _seeds.NULL_TABLE, sims, m, n)
    labels = august_labels((is_y for _, is_y in chunks), m, n, depth)
    stats = np.concatenate([statistics for statistics, _, _ in labels])
    return NullTable(np.sort(stats), m, n, depth, sims, seed)


def p_value(statistic, table):
    """Add-one Monte-Carlo p-value: (1 + #{t >= S}) / (sims + 1).

    ``statistic`` may be a number or an array of them, all finite.  The
    add-one convention guarantees p > 0 and a valid test at any finite
    table size.
    """
    if table.stats.size == 0:
        raise ValueError("null table is empty")
    if not np.isfinite(statistic).all():
        raise ValueError("statistic must be finite")
    return _seeds.add_one_p_value(table.stats, statistic)


def estimate_sigma(m, n, depth, reps, seed):
    """Sample covariance matrix of sqrt(N) * (s_x, s_y) under the null.

    Times ``lam (1 - lam)``, with ``lam = m / N``, its x-block estimates
    ``limit_covariance``; the tests check the closed form against it.
    """
    if reps < 1000:
        raise ValueError("reps must be at least 1000")
    uniform = np.random.Generator.random  # uniform(rng, size) is rng.random(size)
    rows = [
        np.hstack(august_many(xs, ys, depth)[1:])
        for xs, ys in _seeds.replicate_blocks(
            seed, _seeds.SIGMA, reps, uniform, uniform, m, n, _chunk_rows(m + n)
        )
    ]
    return np.cov(np.sqrt(m + n) * np.vstack(rows), rowvar=False)


@lru_cache(maxsize=None)
def _limit(depth):
    """``K`` and its eigenvalues at ``depth``, read-only, built once per depth.

    ``SubsampleConfig`` caps the depth at 9, so the cache holds at most nine.

    ``M_kl = E[b_k(U) b_l(U)]`` sums ``C(r,j) C(r,i) B(j+i+1, 2r-j-i+1)``
    over the counts j of cell k and i of cell l, and ``K = H M H^T`` with
    H the Sylvester matrix without its first row.  The Beta term depends
    only on ``i + j``, so 2r + 2 log-factorials give every entry.
    """
    cfg = SubsampleConfig(depth)
    r = cfg.r
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(2 * r + 2)])
    log_comb = log_fact[r] - log_fact[: r + 1] - log_fact[r::-1]
    total = np.arange(2 * r + 1)
    log_beta = log_fact[total] + log_fact[2 * r - total] - log_fact[2 * r + 1]
    j = np.arange(r + 1)
    moments = np.exp(log_comb[:, None] + log_comb + log_beta[j[:, None] + j])
    per = cfg.counts_per_cell
    cells = moments.reshape(cfg.cells, per, cfg.cells, per).sum(axis=(1, 3))
    reduced = sylvester(depth)[1:].astype(np.float64)
    cov = reduced @ cells @ reduced.T
    cov = (cov + cov.T) / 2.0
    weights = np.linalg.eigvalsh(cov)
    # From about depth 7, K is singular to rounding: drop its zero eigenvalues.
    weights = weights[weights > 1e-12 * weights[-1]]
    cov.flags.writeable = False
    weights.flags.writeable = False
    return cov, weights


def limit_covariance(depth):
    """``K``: the limit of ``(m n / N) Cov(s_x)`` under the null, at any m / N."""
    return _limit(depth)[0].copy()


def limit_weights(depth):
    """The ascending eigenvalues ``w_i`` of ``K``: ``(m n / N) S -> sum_i w_i chi2_1``."""
    return _limit(depth)[1].copy()


_TAIL_ERROR = 1e-10


def _mixture_tail(weights, x):
    """``P(sum_i w_i chi2_1 > x)`` for positive ascending weights.

    One weight is the chi-square tail ``erfc``.  More are read by Davies'
    (1973) midpoint sum over the characteristic function ``phi``:
    ``P = 1/2 + sum_k Im[phi(t_k) e^(-i t_k x)] / (pi (k + 1/2))`` with
    ``t_k = (k + 1/2) step``.  The sum reads the tail of Q wrapped with
    period ``2 pi / step``, so the step keeps the wrapped mass below a
    Chernoff bound; it stops once a term's amplitude, over how little the
    terms' phases turn per step, falls below ``_TAIL_ERROR``.  The result
    is within about ``_TAIL_ERROR`` of the tail, absolutely; beyond the
    Chernoff reach, where the tail is below a tenth of that, it reads 0.
    """
    if x <= 0.0:
        return 1.0
    if weights.size == 1:
        return math.erfc(math.sqrt(x / (2.0 * weights[0])))
    # Chernoff at s = 1 / (4 w_max): P(Q > t) <= exp(log_mgf - t / (4 w_max)).
    top = weights[-1]
    log_mgf = -0.5 * np.log1p(-weights / (2.0 * top)).sum()
    reach = 4.0 * top * (log_mgf + math.log(10.0 / _TAIL_ERROR))
    if x >= reach:
        return 0.0
    step = 2.0 * math.pi / (x + reach)

    def log_amplitude(t):
        return -0.25 * np.log1p(np.square(2.0 * np.outer(t, weights))).sum(axis=1)

    grid = np.geomspace(1e-2, 1e12, 600) / top
    turn = max(math.sin(math.pi * x / (x + reach)), 1e-3)
    small = log_amplitude(grid) - np.log(math.pi * grid / step) < math.log(
        _TAIL_ERROR * turn
    )
    terms = math.ceil(grid[small.argmax()] / step)
    total = 0.0
    rows = max(1, (1 << 20) // weights.size)
    for start in range(0, terms, rows):
        k = np.arange(start, min(terms, start + rows)) + 0.5
        t = k * step
        phase = 0.5 * np.arctan(2.0 * np.outer(t, weights)).sum(axis=1) - t * x
        total += (np.sin(phase) * np.exp(log_amplitude(t)) / k).sum()
    return 0.5 + total / math.pi


def asymptotic_p_value(statistic, m, n, depth):
    """``P(sum_i w_i chi2_1 > (m n / (m + n)) statistic)`` under the limit law.

    Deterministic, within about 1e-10 of the limit's tail, clipped to
    [0, 1]; a statistic at or below zero gives 1.
    """
    statistic = float(statistic)
    if not math.isfinite(statistic):
        raise ValueError("statistic must be finite")
    x = m * n / (m + n) * statistic
    return min(1.0, max(0.0, _mixture_tail(_limit(depth)[1], x)))


def _binomial_pmf(r, w):
    """Binomial(r, w) pmf, counts 0 .. r by w; row r is ``w**r``: no NaN at w = 1."""
    j = np.arange(r + 1, dtype=np.float64)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        pmf = binomial_row(r)[:, None] * w**j * np.exp((r - j) * np.log1p(-w))
    pmf[r] = w**r
    return pmf


def _binomial_cells(depth, w, u):
    """Cells ``b_k(w)``, the Binomial(r, w) mass at 2k and 2k + 1, and their
    slopes ``b_k'(u) = r (P(2k - 1) - P(2k + 1))`` under Binomial(r - 1, u).
    """
    r = SubsampleConfig(depth).r
    pmf, odd = _binomial_pmf(r, w), _binomial_pmf(r - 1, u)[1::2]
    return pmf[0::2] + pmf[1::2], -r * np.diff(odd, axis=0, prepend=0.0, append=0.0)


def _check_handles(spec):
    grid = np.linspace(1e-6, 1.0 - 1e-6, 33)
    points = np.asarray([spec.quantile_x(u) for u in grid], dtype=np.float64)
    if np.any(np.diff(points) < -1e-12):
        raise ValueError("quantile_x must be nondecreasing")
    for cdf, name in ((spec.cdf_x, "cdf_x"), (spec.cdf_y, "cdf_y")):
        vals = np.asarray([cdf(p) for p in points], dtype=np.float64)
        if np.any(np.diff(vals) < -1e-9):
            raise ValueError(f"{name} must be nondecreasing")
        if vals.min() < -1e-9 or vals.max() > 1.0 + 1e-9:
            raise ValueError(f"{name} must map into [0, 1]")


def alternative_mu(spec, depth, quadrature_nodes=128):
    """Population mean of the concatenated symmetry vectors under F != G.

    Both blocks reduce to integrals on [0, 1] of smooth functions of
    ``w(u) = cdf_y(quantile_x(u))`` and are evaluated by fixed-order
    Gauss-Legendre quadrature; the result is checked to be stable under
    node doubling.  Returns the zero vector when the two laws coincide.
    A library-only tool: no command or other function calls it.
    """
    if quadrature_nodes < 64:
        raise ValueError("quadrature_nodes must be at least 64")
    _check_handles(spec)
    reduced = sylvester(depth)[1:, :].astype(np.float64)

    def evaluate(nodes):
        t, weights = np.polynomial.legendre.leggauss(nodes)
        u, weights = (t + 1.0) / 2.0, weights / 2.0
        w = np.clip([spec.cdf_y(spec.quantile_x(v)) for v in u], 0.0, 1.0)
        cells, slopes = _binomial_cells(depth, w, u)
        # First block: integral of b_k(w(u)) du.  Second block: b_k(1) -
        # integral of b_k'(u) w(u) du, the integration-by-parts form of the
        # swapped-roles integral; b_k(1) is one in the last cell, zero elsewhere.
        second = -(slopes @ (weights * w))
        second[-1] += 1.0
        return np.concatenate([reduced @ (cells @ weights), reduced @ second])

    coarse = evaluate(quadrature_nodes)
    fine = evaluate(2 * quadrature_nodes)
    if np.abs(fine - coarse).max() > 1e-8:
        raise QuadratureFailure(
            "node doubling moved a coordinate by more than 1e-8; "
            "check the CDF/quantile handles for smoothness"
        )
    return fine


def power_simulation(gen_x, gen_y, table, alpha, reps, seed):
    """Fraction of replicates rejected at level alpha.

    ``gen_x`` and ``gen_y`` are seeded samplers ``f(rng, size)``.  The
    sizes and depth are the null table's, and every replicate's p-value
    comes from it.  Replicate i draws its pair from the POWER_TRIAL block
    stream of ``seed`` (``_seeds.replicate_streams``), so the result is
    deterministic given ``seed``; pairs are scored in chunks of about 1e6
    points, so memory does not grow with ``reps``.
    """
    if reps < 100:
        raise ValueError("reps must be at least 100")
    rejections = 0
    for xs, ys in _seeds.replicate_blocks(
        seed, _seeds.POWER_TRIAL, reps, gen_x, gen_y, table.m, table.n,
        _chunk_rows(table.m + table.n),
    ):
        pvals = p_value(august_many(xs, ys, table.depth)[0], table)
        rejections += int(np.count_nonzero(pvals <= alpha))
    return rejections / reps


def null_table_path(cache_dir, m, n, depth, sims, seed):
    """Canonical cache filename for a table key."""
    name = f"null_m{m}_n{n}_d{depth}_B{sims}_s{seed}.nulltab"
    return os.path.join(cache_dir, name)


def _key(table):
    return (table.m, table.n, table.depth, table.sims, table.seed)


def save_null_table(table, cache_dir):
    """Write the binary table; returns the path.

    Layout: magic, little-endian header (version, m, n, depth, sims, seed,
    tag length), the fixed tag bytes, then ``sims`` float64 statistics.
    The header is the one record of the key.  The file is written to a fresh
    temporary file in ``cache_dir`` and renamed into place, so concurrent
    writers of one key never share a partial file.
    """
    path = null_table_path(cache_dir, *_key(table))
    header = _MAGIC + struct.pack(
        "<IQQIQQI", _FORMAT_VERSION, *_key(table), len(_TAG))
    try:
        os.makedirs(cache_dir, exist_ok=True)
        _write_atomic(path, header + _TAG + table.stats.astype("<f8").tobytes())
    except OSError as exc:
        raise IOFailure(f"could not write null table to {path}: {exc}") from exc
    return path


def _write_atomic(path, blob):
    """Write ``blob`` to a unique temporary file beside ``path``, then rename."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.chmod(tmp, 0o644)  # mkstemp makes it owner-only; others read caches
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _OtherVersion(IOFailure):
    """A table file written in another format version."""


def load_null_table(path):
    """Read a table written by ``save_null_table``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IOFailure(f"could not read null table from {path}: {exc}") from exc
    fixed = len(_MAGIC) + struct.calcsize("<IQQIQQI")
    if len(blob) < fixed or blob[: len(_MAGIC)] != _MAGIC:
        raise IOFailure(f"{path} is not a null-table cache file")
    version, m, n, depth, sims, seed, tag_len = struct.unpack(
        "<IQQIQQI", blob[len(_MAGIC): fixed]
    )
    if version != _FORMAT_VERSION:
        raise _OtherVersion(f"unsupported null-table format version {version}")
    payload = blob[fixed + tag_len:]
    if len(payload) != 8 * sims:
        fault = "truncated" if len(payload) < 8 * sims else "too long"
        raise IOFailure(f"{path} is {fault}: {len(payload)} of {8 * sims} table bytes")
    stats = np.frombuffer(payload, dtype="<f8").copy()
    return NullTable(stats, m, n, depth, sims, seed)


def cached_null_table(m, n, depth, sims, seed, cache_dir):
    """Load the table for a key if cached, else build and persist it.

    Returns ``(table, hit, path)`` where ``hit`` says whether the cache
    served it and ``path`` is the key's file.  A cached file of another
    format version holds other draws, so it is a miss, rebuilt and replaced
    atomically.  A cached file whose header names another key raises
    ``IOFailure``.
    """
    path = null_table_path(cache_dir, m, n, depth, sims, seed)
    if os.path.exists(path):
        try:
            table = load_null_table(path)
        except _OtherVersion:
            pass
        else:
            if _key(table) != (m, n, depth, sims, seed):
                raise IOFailure(f"{path} holds the table for key {_key(table)}")
            return table, True, path
    table = build_null_table(m, n, depth, sims, seed)
    save_null_table(table, cache_dir)
    return table, False, path
