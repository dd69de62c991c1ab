"""An independent reference for the AUGUST statistic, and the output checks.

The reference shares no code with ``august``: rank counts come from
``np.searchsorted``, the cell probabilities from ``scipy.stats.hypergeom``
evaluated once per distinct count, and the transform from
``scipy.linalg.hadamard``.  ``self_test`` pins it to the package's quadratic
oracle ``august.august`` on small inputs, so a fault common to both the
reference and the package's fast paths would still show.

Every check returns a list of failure messages; an empty list passes.
"""

import json
import math
import struct

import numpy as np
from scipy.linalg import hadamard
from scipy.stats import binom, hypergeom

# Agreement between the package and the reference.  Both evaluate the same
# hypergeometric probabilities through different log-gamma routes, so they
# differ by a few ulps per term; 1e-9 leaves three orders of margin.
STAT_TOL = 1e-9

# Null-table cache layout, as documented by ``save_null_table``.
_MAGIC = b"AUGNULTB"
_HEADER = "<IQQIQQI"

# Rows of hypergeometric terms evaluated at once; bounds the reference's
# memory at depth 6 to a few tens of MB.
_CHUNK_ROWS = 16384


def cell_vector(counts, n, depth):
    """Average cell-probability vector of points with the given counts.

    ``counts[i]`` is the number of reference points (out of ``n``) at or
    below point ``i``.  The subsample size is ``r = 2**(depth+1) - 1`` and
    cell ``k`` collects the subsample success counts ``{2k, 2k+1}``.
    """
    r = (1 << (depth + 1)) - 1
    distinct, multiplicity = np.unique(counts, return_counts=True)
    j = np.arange(r + 1)
    total = np.zeros(r + 1)
    for start in range(0, distinct.size, _CHUNK_ROWS):
        block = distinct[start:start + _CHUNK_ROWS, None]
        pmf = np.exp(hypergeom.logpmf(j[None, :], n, block, r))
        total += multiplicity[start:start + _CHUNK_ROWS] @ pmf
    return total.reshape(1 << depth, 2).sum(axis=1) / counts.size


def statistic(x, y, depth):
    """Return ``(S, s_x, s_y, p_x, p_y)`` for two samples."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    p_x = cell_vector(np.searchsorted(y, x, side="right"), y.size, depth)
    p_y = cell_vector(np.searchsorted(x, y, side="right"), x.size, depth)
    h = hadamard(1 << depth).astype(np.float64)
    s_x = (h @ p_x)[1:]
    s_y = (h @ p_y)[1:]
    return float(-(s_x @ s_y)), s_x, s_y, p_x, p_y


def self_test(august_module):
    """Compare the reference with the quadratic oracle ``august.august``."""
    failures = []
    rng = np.random.default_rng(20210929)
    for m, n, depth in ((40, 57, 3), (31, 31, 4), (90, 64, 2)):
        x = rng.normal(size=m)
        y = rng.normal(0.3, 1.2, size=n)
        oracle = august_module.august(x, y, depth)
        failures += compare_result(
            f"self-test m={m} n={n} d={depth}",
            oracle.statistic, oracle.s_x, oracle.s_y, oracle.p_x, oracle.p_y,
            statistic(x, y, depth),
        )
    return failures


def compare_result(label, stat, s_x, s_y, p_x, p_y, expected):
    """Field-by-field comparison of a result with ``statistic``'s tuple."""
    names = ("statistic", "s_x", "s_y", "p_x", "p_y")
    got = (stat, s_x, s_y, p_x, p_y)
    failures = []
    for name, value, want in zip(names, got, expected):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != np.shape(want):
            failures.append(f"{label}: {name} has shape {value.shape}")
        elif np.abs(value - want).max() > STAT_TOL:
            gap = float(np.abs(value - want).max())
            failures.append(f"{label}: {name} differs from the reference by {gap:.3g}")
    return failures


def consistency(label, stat, s_x, s_y, p_x, p_y, depth):
    """Checks that need no reference data: simplex cells, transform, sign."""
    failures = []
    h = hadamard(1 << depth).astype(np.float64)
    for name, p, s in (("x", p_x, s_x), ("y", p_y, s_y)):
        p = np.asarray(p, dtype=np.float64)
        if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
            failures.append(f"{label}: p_{name} is not a probability vector")
        if np.abs((h @ p)[1:] - np.asarray(s)).max() > STAT_TOL:
            failures.append(f"{label}: s_{name} is not the Hadamard transform of p_{name}")
    if abs(stat + float(np.dot(s_x, s_y))) > STAT_TOL:
        failures.append(f"{label}: statistic is not -(s_x . s_y)")
    return failures


def read_null_table(path):
    """Parse a cached null-table file; returns ``(key, stats)``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fixed = len(_MAGIC) + struct.calcsize(_HEADER)
    if blob[:len(_MAGIC)] != _MAGIC or len(blob) < fixed:
        raise ValueError(f"{path} does not start with a null-table header")
    version, m, n, depth, sims, seed, tag_len = struct.unpack(
        _HEADER, blob[len(_MAGIC):fixed]
    )
    tag = blob[fixed:fixed + tag_len].decode("ascii")
    stats = np.frombuffer(blob[fixed + tag_len:], dtype="<f8")
    key = {"version": version, "m": m, "n": n, "depth": depth,
           "sims": sims, "seed": seed, "generator_tag": tag}
    return key, stats


def check_table_p_value(label, report, want_key):
    """The report's p-value is the add-one exceedance against its table file."""
    info = report.get("null_table") or {}
    try:
        key, stats = read_null_table(info["path"])
    except (KeyError, OSError, ValueError) as exc:
        return [f"{label}: cannot read the null table: {exc}"]
    failures = []
    got_key = {k: key[k] for k in want_key}
    if got_key != want_key:
        failures.append(f"{label}: table key {got_key} != {want_key}")
    if stats.size != key["sims"]:
        failures.append(f"{label}: table holds {stats.size} of {key['sims']} statistics")
    if np.any(np.diff(stats) < 0):
        failures.append(f"{label}: table is not sorted")
    exceed = int(np.count_nonzero(stats >= report["statistic"]))
    want = (1 + exceed) / (stats.size + 1)
    if report["p_value"] != want:
        failures.append(f"{label}: p-value {report['p_value']} != exceedance {want}")
    return failures


def asymptotic_tolerance(p_mc, p_asym, sims, draws):
    """Allowed |p_asym - p_mc|: six combined Monte-Carlo standard errors.

    Each p-value is a proportion over independent null draws (``sims`` for
    the table, ``draws`` for the Gaussian limit), so the standard error of
    their difference is ``sqrt(p (1 - p) (1/sims + 1/draws))`` at their
    common value p.  The variance floor ``1/sims`` keeps the bound from
    vanishing when both p-values sit at the add-one minimum.
    """
    p = (p_mc + p_asym) / 2.0
    var = max(p * (1.0 - p), 1.0 / sims)
    return 6.0 * math.sqrt(var * (1.0 / sims + 1.0 / draws))


def check_regions(label, plot_data, summary, reference_sample, s_x, depth):
    """``interpret --reference y``: equal-count partition and top row."""
    failures = []
    ref = np.sort(np.asarray(reference_sample, dtype=np.float64))
    cells = 1 << depth
    sizes_ok = {ref.size // cells, -(-ref.size // cells)}
    reports = plot_data.get("reports", [])
    if not reports:
        return [f"{label}: plot data holds no reports"]
    for rep in reports:
        bounds = [(iv["lo"], iv["hi"]) for iv in rep["intervals"]]
        if len(bounds) != cells:
            failures.append(f"{label}: {len(bounds)} intervals, expected {cells}")
            continue
        if bounds[0][0] != ref[0] or bounds[-1][1] != ref[-1]:
            failures.append(f"{label}: intervals do not span the reference range")
        if any(bounds[i][1] != bounds[i + 1][0] for i in range(cells - 1)):
            failures.append(f"{label}: intervals are not contiguous")
        inner = np.searchsorted(ref, [hi for _, hi in bounds[:-1]], side="right")
        counts = np.diff(np.concatenate([[0], inner, [ref.size]]))
        if not set(counts.tolist()) <= sizes_ok:
            failures.append(f"{label}: interval counts {counts.tolist()} are not equal-count")
    top = reports[0]["row_index"]
    strongest = np.abs(s_x).max()
    if abs(abs(s_x[top - 2]) - strongest) > STAT_TOL:
        failures.append(f"{label}: top row {top} is not the argmax of |s_x|")
    if summary["rows"][0]["row_index"] != top:
        failures.append(f"{label}: summary and plot data disagree on the top row")
    return failures


def binomial_limit(reps, alpha, tail=1e-6):
    """Rejection count that a level-alpha test exceeds with chance <= tail."""
    return int(binom.isf(tail, reps, alpha))


def parse_power_csv(text):
    """Rows of ``august power`` output as (family, parameter, test, power)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "family,parameter,test,power":
        raise ValueError("power output lacks its header")
    rows = []
    for line in lines[1:]:
        family, param, test, power = line.split(",")
        rows.append((family, float(param), test, float(power)))
    return rows


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
