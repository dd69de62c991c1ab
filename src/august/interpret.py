"""Explain a rejection: ranked symmetry statistics and shaded regions.

A test result decomposes distributional difference into orthogonal row
contrasts; the largest entries in absolute value are the dominant sources
of asymmetry.  For each top row this module builds the reference sample's
empirical equal-count intervals and marks the intervals where the row
pattern says the other sample is in excess.  ``emit_plot_data`` serializes
everything needed to draw the shaded-histogram figure without rendering
anything itself.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import IOFailure, SampleTooSmall
from .hadamard import sylvester

__all__ = [
    "RegionReport",
    "rank_symmetries",
    "region_report",
    "emit_plot_data",
    "read_plot_data",
    "row_label",
]

SCHEMA_VERSION = 1

# Narrative names for the low-depth row contrasts.
_ROW_LABELS = {
    (1, 2): "location: left/right balance",
    (2, 2): "fine alternation",
    (2, 3): "location: left/right balance",
    (2, 4): "scale: center vs tails",
    (3, 2): "fine Venetian blind",
    (3, 3): "coarse Venetian blind",
    (3, 4): "paired-cell contrast",
    (3, 5): "location: left/right balance",
    (3, 6): "alternating half-cells",
    (3, 7): "scale: center vs tails",
    (3, 8): "tail asymmetry contrast",
}


def row_label(depth, row_index):
    """Human-readable name for a Hadamard row contrast.

    ``row_index`` is the 1-based Sylvester row number (2 .. 2**depth).
    """
    return _ROW_LABELS.get((depth, row_index), f"row {row_index} contrast")


@dataclass(frozen=True)
class RegionReport:
    """One ranked row with its reference-quantile intervals and shading."""

    reference_label: str  # "x" or "y"
    intervals: tuple  # ((lo, hi), ...), 2**depth half-open intervals
    shaded: tuple  # bool per interval: excess of the non-reference sample
    row_index: int  # 1-based Sylvester row number, in [2, 2**depth]
    row_pattern: tuple  # the +-1 entries of that row
    statistic_value: float
    rank: int  # 1-based rank by |statistic_value|


def rank_symmetries(result, reference="y"):
    """Symmetry statistics of the non-reference sample, largest |value| first.

    With reference "y" the ranked vector is ``s_x`` (how the x sample falls
    relative to y's cells), and vice versa.  Ties break by ascending row
    index.  Returns ``(row_index, row_pattern, value)`` triples.
    """
    if reference not in ("x", "y"):
        raise ValueError("reference must be 'x' or 'y'")
    values = result.s_x if reference == "y" else result.s_y
    rows = sylvester(result.depth)
    order = sorted(range(values.size), key=lambda i: (-abs(values[i]), i))
    return [
        (i + 2, tuple(int(v) for v in rows[i + 1]), float(values[i]))
        for i in order
    ]


def _quantile_intervals(reference_sample, depth):
    """Equal-count intervals of the reference sample.

    Each interval holds floor or ceil of count / 2**depth reference points,
    remainders going to the leftmost intervals; boundaries sit at midpoints
    between the adjacent order statistics, and the whole list partitions
    [min, max].
    """
    values = np.sort(np.asarray(reference_sample, dtype=np.float64).ravel())
    cells = 1 << depth
    if values.size < cells:
        raise SampleTooSmall(
            f"reference sample of size {values.size} cannot form {cells} regions"
        )
    base, remainder = divmod(values.size, cells)
    sizes = [base + 1] * remainder + [base] * (cells - remainder)
    cuts = np.cumsum(sizes)[:-1]
    bounds = [float(values[0])]
    bounds += [float((values[c - 1] + values[c]) / 2.0) for c in cuts]
    bounds += [float(values[-1])]
    return tuple((bounds[i], bounds[i + 1]) for i in range(cells))


def region_report(result, x, y, reference="y", top_k=2):
    """Region reports for the ``top_k`` strongest row contrasts.

    An interval is shaded exactly when the row pattern entry times the sign
    of the statistic is positive, i.e. where the non-reference sample holds
    excess mass relative to the reference's equal-count cells.
    """
    if reference not in ("x", "y"):
        raise ValueError("reference must be 'x' or 'y'")
    ref_sample = y if reference == "y" else x
    intervals = _quantile_intervals(ref_sample, result.depth)
    reports = []
    for rank, (row_index, pattern, value) in enumerate(
        rank_symmetries(result, reference)[:top_k], start=1
    ):
        sign = 1.0 if value > 0 else (-1.0 if value < 0 else 0.0)
        shaded = tuple(bool(entry * sign > 0) for entry in pattern)
        reports.append(
            RegionReport(
                reference_label=reference,
                intervals=intervals,
                shaded=shaded,
                row_index=row_index,
                row_pattern=pattern,
                statistic_value=value,
                rank=rank,
            )
        )
    return reports


def _format_number(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    as_float = float(value)
    if not np.isfinite(as_float):
        raise ValueError("plot data must be finite")
    return format(as_float, ".17g")


def _to_json(node):
    """Deterministic JSON text with floats at 17 significant digits."""
    if isinstance(node, dict):
        inner = ", ".join(
            f"{json.dumps(key)}: {_to_json(val)}" for key, val in node.items()
        )
        return "{" + inner + "}"
    if isinstance(node, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in node) + "]"
    if isinstance(node, str):
        return json.dumps(node)
    return _format_number(node)


def emit_plot_data(reports, reference_sample, path, histogram_bins=32):
    """Write the plot-data JSON file; returns the payload dict.

    Contains a histogram of the reference sample plus one record per region
    report; the reference label is the reports' (``"y"`` when there are
    none).  Numbers are serialized at 17 significant digits, so the file
    round-trips losslessly and identical runs produce identical bytes.
    """
    reference_sample = np.asarray(reference_sample, dtype=np.float64).ravel()
    reference_label = reports[0].reference_label if reports else "y"
    counts, edges = np.histogram(reference_sample, bins=histogram_bins)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "reference_label": reference_label,
        "histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
        "reports": [
            {
                "rank": rep.rank,
                "row_index": rep.row_index,
                "row_pattern": list(rep.row_pattern),
                "statistic_value": rep.statistic_value,
                "intervals": [
                    {"lo": lo, "hi": hi, "shaded": shaded}
                    for (lo, hi), shaded in zip(rep.intervals, rep.shaded)
                ],
            }
            for rep in reports
        ],
    }
    text = _to_json(payload) + "\n"
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"could not write plot data to {path}: {exc}") from exc
    return payload


def read_plot_data(path):
    """Parse a plot-data file back into plain dicts and lists."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IOFailure(f"could not read plot data from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IOFailure(f"{path} is not valid plot-data JSON: {exc}") from exc
