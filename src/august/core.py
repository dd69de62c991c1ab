"""The two-sample test statistic: one quadratic oracle and one fast kernel.

``august`` is the quadratic-time reference: each point of one sample gets
its augmented CDF against the other sample by direct counting, and the
statistic is ``S = -(s_x . s_y)`` where ``s_x`` and ``s_y`` are the
Hadamard symmetry statistics of the averaged cell probabilities.

The fast kernel gets the identical result in ``O(N log N)`` from the label
sequence of the merged sorted sample (which sorted points are y points):
the x points with k y points at or below them are the run between the
k-th and (k+1)-th y points, so each count's tally is a run length, and
averaging is the tallies times each count's cell probabilities.  One loop,
``august_labels``, does this for chunks of label masks (True marks a y
point): a null table hands it the masks ``_seeds.relabellings`` draws, the
multivariate permutation loop the masks of its sorted distances, and
``august_many`` argsorts each chunk of value pairs into masks.  The loop
builds the cell rows of every count once per call and writes every chunk's
run lengths into one buffer per side, which keeps the allocator from
faulting fresh pages in on every chunk; nothing is kept after a call.
A single pair (``august_plus``, or a batch of one) multiplies the rows of
its occurring counts only, so a row of a larger batch matches
``august_plus`` to the last bits (up to 6.1e-16 at 1800/1600, d = 3).
Oracle and kernel agree to 1e-12.

Both samples' values enter only through ranks, so the statistic is
invariant under joint strictly increasing transforms and is exactly
distribution-free under the null.
"""

from dataclasses import dataclass

import numpy as np

from . import _seeds
from .errors import DegenerateVector, NonFiniteInput, SampleTooSmall, TiesPresent
from .hadamard import fwht
from .hypergeom import SubsampleConfig, _is_integer, cell_probabilities_for_counts

__all__ = [
    "TiePolicy",
    "AugustResult",
    "august",
    "august_plus",
    "august_many",
    "cos_angle",
    "minimum_sample_size",
]

_EQ_TOL = 1e-12


def minimum_sample_size(depth):
    """Smallest admissible sample size per side: the subsample size r.

    Raises ``DepthOutOfRange`` for a depth ``SubsampleConfig`` refuses.
    """
    return SubsampleConfig(depth).r


@dataclass(frozen=True)
class TiePolicy:
    """How duplicate values across the combined sample are handled.

    The test's theory assumes continuous distributions, so the default is
    to refuse tied data outright.  ``jitter`` adds seeded uniform noise at
    half the minimal nonzero gap of the combined sample, which preserves
    every non-tied rank.
    """

    mode: str = "error"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("error", "jitter"):
            raise ValueError(f"unknown tie mode {self.mode!r}")


@dataclass(frozen=True)
class AugustResult:
    """Statistic plus the full decomposition it was built from."""

    statistic: float
    s_x: np.ndarray
    s_y: np.ndarray
    p_x: np.ndarray
    p_y: np.ndarray
    depth: int
    m: int
    n: int
    tie_policy_applied: str  # "none" or "jitter"

    def __post_init__(self):
        bound = (1 << self.depth) - 1
        assert abs(self.statistic + float(self.s_x @ self.s_y)) <= _EQ_TOL
        assert abs(self.statistic) <= bound + _EQ_TOL


def _resolve_ties(x, y, policy):
    """Return tie-free copies of the samples plus what was applied."""
    combined = np.concatenate([x, y])
    # A zero gap between neighbours in sorted order is a tie.
    diffs = np.diff(np.sort(combined))
    if diffs.all():
        return x, y, "none"
    if policy.mode == "error":
        raise TiesPresent(
            "combined sample contains duplicate values; pass a jitter tie "
            "policy to break them"
        )
    gaps = diffs[diffs > 0]
    if gaps.size == 0:
        raise TiesPresent("all values identical; jitter has no gap to scale by")
    rng = _seeds.replicate_rng(policy.seed, _seeds.TIE_JITTER)
    noise = rng.uniform(0.0, gaps.min() / 2, combined.size)
    jittered = combined + noise
    if not np.diff(np.sort(jittered)).all():
        raise TiesPresent("jitter failed to separate duplicate values")
    return jittered[: x.size], jittered[x.size:], "jitter"


def _check_sizes(m, n, depth):
    """The one sample-size floor: both sizes integers of at least r at ``depth``."""
    r = minimum_sample_size(depth)
    if not (_is_integer(m) and _is_integer(n)):
        raise SampleTooSmall(f"sample sizes must be integers, got {m!r} and {n!r}")
    if m < r or n < r:
        raise SampleTooSmall(
            f"need at least {r} points per sample at depth {depth}, "
            f"got sizes {m} and {n}"
        )


def _check_samples(x, y, depth):
    """Sizes and finiteness of (possibly batched) samples."""
    _check_sizes(x.shape[-1], y.shape[-1], depth)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteInput("samples must not contain NaN or infinite values")


def _prepare(x, y, depth, tie_policy):
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    _check_samples(x, y, depth)
    policy = tie_policy if tie_policy is not None else TiePolicy()
    return _resolve_ties(x, y, policy)


def _statistics(p_x, p_y):
    """Statistics and symmetry vectors from rows of averaged cell probabilities.

    The first Hadamard coordinate of each row is its total mass, which must
    be one; the remaining coordinates are the symmetry statistics.
    """
    full_x = fwht(p_x)
    full_y = fwht(p_y)
    assert np.abs(full_x[:, 0] - 1.0).max() <= 1e-9
    assert np.abs(full_y[:, 0] - 1.0).max() <= 1e-9
    s_x = full_x[:, 1:]
    s_y = full_y[:, 1:]
    return -(s_x * s_y).sum(axis=1), s_x, s_y


def _assemble(p_x, p_y, depth, m, n, applied):
    """``AugustResult`` for the single row of ``p_x`` and ``p_y``."""
    stats, s_x, s_y = _statistics(p_x, p_y)
    return AugustResult(
        float(stats[0]), s_x[0], s_y[0], p_x[0], p_y[0], depth, m, n, applied
    )


def _count_at_or_below(reference, points):
    """#{reference <= p} for each p, by direct comparison (quadratic)."""
    out = np.empty(points.size, dtype=np.int64)
    block = max(1, 16_000_000 // max(reference.size, 1))
    for start in range(0, points.size, block):
        stop = min(start + block, points.size)
        out[start:stop] = (
            points[start:stop, None] >= reference[None, :]
        ).sum(axis=1)
    return out


def august(x, y, depth, tie_policy=None):
    """Quadratic-time reference computation of the test statistic."""
    x, y, applied = _prepare(x, y, depth, tie_policy)
    m, n = x.size, y.size
    cfg = SubsampleConfig(depth)
    p_x = cell_probabilities_for_counts(
        _count_at_or_below(y, x), n, cfg
    ).mean(axis=0)
    p_y = cell_probabilities_for_counts(
        _count_at_or_below(x, y), m, cfg
    ).mean(axis=0)
    return _assemble(p_x[None], p_y[None], depth, m, n, applied)


def _run_lengths(marks, out=None):
    """Each row's run lengths of unmarked points around its marked points.

    ``marks`` is a boolean ``(rows, total)`` matrix with ``size`` marked
    points per row.  Column k of the returned float ``(rows, size + 1)``
    array, written to ``out`` if given, is how many unmarked points lie
    between a row's k-th and (k+1)-th marked points: the interior from one
    subtract of neighbouring flat positions, the first and last columns
    from the row's start and end.  With y points marked, the x points with
    exactly k y points at or below them are that run, so the row is the x
    tallies of counts 0 .. size.
    """
    rows, total = marks.shape
    at = np.flatnonzero(marks).reshape(rows, -1)
    size = at.shape[1]
    if out is None:
        out = np.empty((rows, size + 1))
    np.subtract(at[:, 1:], at[:, :-1], out=out[:, 1:size])
    out[:, 1:size] -= 1.0
    starts = np.arange(0, rows * total, total)
    np.subtract(at[:, 0], starts, out=out[:, 0])
    np.subtract(starts + (total - 1), at[:, -1], out=out[:, size])
    return out


def _pair_cells(x, y, depth):
    """Averaged cell probabilities ``(p_x, p_y)``, one row each, of one pair.

    A single pair has few distinct counts, so it builds the cell rows of
    the counts that occur only.
    """
    m, n = x.size, y.size
    is_y = np.argsort(np.concatenate([x, y]))[None] >= m
    cfg = SubsampleConfig(depth)
    cells = []
    for marks, size, other in ((is_y, n, m), (~is_y, m, n)):
        tallies = _run_lengths(marks)
        occurring = np.flatnonzero(tallies[0])
        rows = cell_probabilities_for_counts(occurring, size, cfg)
        cells.append(tallies[:, occurring] @ rows / other)
    return cells


def august_plus(x, y, depth, tie_policy=None):
    """``august`` in O(N log N): the run-length kernel on one pair."""
    x, y, applied = _prepare(x, y, depth, tie_policy)
    return _assemble(*_pair_cells(x, y, depth), depth, x.size, y.size, applied)


def august_many(xs, ys, depth):
    """Batched statistics for Monte-Carlo work.

    ``xs`` and ``ys`` are (B, m) and (B, n) matrices, B >= 1; row b is one
    replicate pair.  Returns ``(statistics, s_x, s_y)`` with shapes (B,),
    (B, 2**depth - 1), (B, 2**depth - 1).  Rows are assumed tie-free
    (continuous draws); no tie policy is applied.  A batch of one is
    ``august_plus`` exactly.  A larger one is argsorted, in chunks of about
    4e6 points, into the label masks that ``august_labels`` reads; its row
    b agrees with ``august_plus`` to within about 1e-15 in every field.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not (xs.ndim == ys.ndim == 2 and 0 < len(xs) == len(ys)):
        raise ValueError("xs and ys must be 2-D stacks of one or more rows, "
                         f"as many in each; got shapes {xs.shape} and {ys.shape}")
    _check_samples(xs, ys, depth)
    if len(xs) == 1:
        return _statistics(*_pair_cells(xs[0], ys[0], depth))
    (reps, m), n = xs.shape, ys.shape[1]
    chunk = max(1, 4_000_000 // (m + n))
    masks = (np.argsort(np.hstack([xs[i:i + chunk], ys[i:i + chunk]]), axis=1) >= m
             for i in range(0, reps, chunk))
    return tuple(map(np.concatenate, zip(*august_labels(masks, m, n, depth))))


def august_labels(chunks, m, n, depth):
    """Yield ``(statistics, s_x, s_y)`` of each chunk of boolean rows, in order.

    Each row is a label mask: True marks which of ``m + n`` sorted points
    are y points, as ``_seeds.relabellings`` draws them, ``august_many``
    argsorts them and the multivariate permutation loop sorts them.  The
    cell rows of every count are built once per side for all the chunks,
    and the run lengths of every chunk go into one buffer per side, grown
    for a longer chunk.
    """
    cfg = SubsampleConfig(depth)
    cells_x = cell_probabilities_for_counts(np.arange(n + 1), n, cfg)
    cells_y = cell_probabilities_for_counts(np.arange(m + 1), m, cfg)
    runs_x, runs_y = np.empty((0, n + 1)), np.empty((0, m + 1))
    for is_y in chunks:
        rows = len(is_y)
        if rows > len(runs_x):
            runs_x, runs_y = np.empty((rows, n + 1)), np.empty((rows, m + 1))
        p_x = _run_lengths(is_y, runs_x[:rows]) @ cells_x / m
        p_y = _run_lengths(~is_y, runs_y[:rows]) @ cells_y / n
        yield _statistics(p_x, p_y)


def cos_angle(result):
    """Cosine of the angle between the two symmetry vectors.

    Exactly separated samples give ``-(2**d - 1)**-1`` at any depth.
    """
    norm_x = float(np.linalg.norm(result.s_x))
    norm_y = float(np.linalg.norm(result.s_y))
    if norm_x == 0.0 or norm_y == 0.0:
        raise DegenerateVector(
            "symmetry vector has zero norm (exactly uniform cell "
            "probabilities); the angle is undefined"
        )
    return float(result.s_x @ result.s_y) / (norm_x * norm_y)
