"""Command-line surface: test runs, interpretation, null tables and power.

Data files are headerless CSV.  Univariate data is either one two-column
file (value, group label) or two one-column files; multivariate data puts
the label in the final column (or uses two files of equal-width rows).
All reports are JSON and embed the configuration; power emits CSV with a
documented header.  Timing is left to ``benchmark/``, which measures the
package cold, one process per workload.

Exit codes: 0 success, 2 usage, 3 parse failure, 4 precondition violation,
5 I/O failure.  Failures, usage errors included, print a machine-readable
JSON error object to stderr.
"""

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import _seeds
from .baselines import baseline_permutation_test
from .core import TiePolicy, _check_sizes, august_plus
from .errors import (
    AugustError,
    IOFailure,
    ParseError,
)
from .families import BIVARIATE_FAMILIES, UNIVARIATE_FAMILIES, get_family
from .inference import (
    asymptotic_p_value,
    cached_null_table,
    estimate_sigma,  # noqa: F401 -- unused here; benchmark/tracer.py wraps this name
    p_value,
    power_simulation,
)
from .interpret import emit_plot_data, region_report, row_label
from .multivariate import multivariate_test, permutation_p_value
from .version import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_IO = 5

_DEFAULT_CACHE = os.path.join(os.path.expanduser("~"), ".cache", "august")


def _parse_float(text, row, column):
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ParseError(
            f"row {row}, column {column}: {text!r} is not a finite number",
            row=row, column=column,
        )
    return value


def _values(fields, width):
    """The ``(rows, width)`` float matrix of ``fields``, listed row by row.

    One ``np.array`` call converts every field with the parser ``float()``
    uses, and one ``np.isfinite`` checks them all.  Only when that fails are
    the stripped fields walked one by one, so the refusal is the first bad
    field in row order, as a row-by-row parse gives it.
    """
    try:
        values = np.array(fields, dtype=np.float64)
        finite = np.isfinite(values).all()
    except ValueError:
        finite = False
    if not finite:
        values = np.array([
            _parse_float(text.strip(), at // width + 1, at % width + 1)
            for at, text in enumerate(fields)
        ], dtype=np.float64)
    return values.reshape(-1, width)


def _read_rows(path, labelled, width):
    """Parse ``path`` into ``(values, labels)``.

    Every row holds ``width`` numbers (the first row's count when ``width``
    is None), followed by a group label when ``labelled``; ``labels`` lists
    each row's stripped label, or is empty.  Row numbers count the
    non-blank lines.

    One Python pass over the lines skips blank ones, checks each row's
    field count and takes its label; the value fields are then converted
    all at once by ``_values``.  A row with the wrong field count has the
    rows before it converted first, so a bad value there is still the error
    reported, as in a row-by-row parse.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [line for line in fh if line.strip() != ""]
    except OSError as exc:
        raise IOFailure(f"could not read {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path} contains no data rows")
    fields, labels = [], []
    for number, line in enumerate(lines, start=1):
        row = line.split(",")
        if width is None:
            width = max(len(row) - labelled, 1)
        if len(row) != width + labelled:
            _values(fields, width)
            raise ParseError(
                f"{path}: row {number} has {len(row)} fields, "
                f"expected {width + labelled}",
                row=number,
            )
        if labelled:
            labels.append(row.pop().strip())
        fields += row
    return _values(fields, width), labels


def _load_samples(paths, multivariate):
    """Return (x, y, labels) from one labelled file or two plain files.

    Univariate data holds one value per row in either layout.
    """
    if len(paths) > 2:
        raise argparse.ArgumentError(
            None, f"expected one labelled file or two plain files, got {len(paths)}"
        )
    width = None if multivariate else 1
    if len(paths) == 1:
        rows, tags = _read_rows(paths[0], True, width)
        labels = list(dict.fromkeys(tags))
        if len(labels) != 2:
            raise ParseError(
                f"{paths[0]}: expected exactly two group labels, found {labels}"
            )
        tags = np.asarray(tags)
        first, second = rows[tags == labels[0]], rows[tags == labels[1]]
    else:
        first, _ = _read_rows(paths[0], False, width)
        second, _ = _read_rows(paths[1], False, first.shape[1])
        labels = [os.path.basename(path) for path in paths]
    if not multivariate:
        first, second = first.ravel(), second.ravel()
    return first, second, labels


def _plain(value):
    """``json.dumps`` hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json(payload):
    return json.dumps(payload, indent=2, default=_plain) + "\n"


def _write(text, path):
    """Write ``text`` to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"could not write {path}: {exc}") from exc


def _tie_policy(args):
    return TiePolicy(mode=args.ties, seed=args.seed)


def _config_echo(args):
    return {
        k: v for k, v in sorted(vars(args).items())
        if k != "func" and not k.startswith("_")
    }


def _decision(args, pval):
    """The ``alpha``, ``effective_alpha`` and ``decision`` report keys."""
    effective = args.alpha / args.bonferroni
    return {
        "alpha": args.alpha,
        "effective_alpha": effective,
        "decision": "reject" if pval <= effective else "fail-to-reject",
    }


def _null_table(args, m, n):
    """Return ``(table, cache_hit, path)`` for the null table of this key."""
    cache = args.cache_dir or os.environ.get("AUGUST_CACHE_DIR", _DEFAULT_CACHE)
    return cached_null_table(m, n, args.depth, args.sims, args.seed, cache)


def cmd_test(args):
    x, y, labels = _load_samples(args.data, multivariate=False)
    result = august_plus(x, y, args.depth, _tie_policy(args))
    table_info = None
    if args.pvalue_method == "montecarlo":
        table, hit, path = _null_table(args, x.size, y.size)
        pval = p_value(result.statistic, table)
        table_info = {
            "sims": table.sims,
            "seed": table.seed,
            "cache_hit": hit,
            "path": path,
        }
    else:
        pval = asymptotic_p_value(result.statistic, x.size, y.size, args.depth)
    report = {
        "command": "test",
        "labels": labels,
        "m": result.m,
        "n": result.n,
        "depth": result.depth,
        "statistic": result.statistic,
        "p_value": pval,
        "pvalue_method": args.pvalue_method,
        **_decision(args, pval),
        "s_x": result.s_x,
        "s_y": result.s_y,
        "p_x": result.p_x,
        "p_y": result.p_y,
        "tie_policy_applied": result.tie_policy_applied,
        "null_table": table_info,
        "config": _config_echo(args),
    }
    _write(_json(report), args.report)
    return EXIT_OK


def _august_result_dict(result):
    return {
        "statistic": result.statistic,
        "s_x": result.s_x,
        "s_y": result.s_y,
        "p_x": result.p_x,
        "p_y": result.p_y,
        "tie_policy_applied": result.tie_policy_applied,
    }


def cmd_test_multi(args):
    x, y, labels = _load_samples(args.data, multivariate=True)
    outcome = multivariate_test(
        x, y, args.depth, args.permutations, args.seed,
        _tie_policy(args), args.ridge,
    )
    report = {
        "command": "test-multi",
        "labels": labels,
        "m": x.shape[0],
        "n": y.shape[0],
        "dimension": x.shape[1],
        "depth": args.depth,
        "statistic": outcome.statistic,
        "p_value": outcome.p_value,
        "pvalue_method": "permutation",
        "permutations": outcome.permutations,
        **_decision(args, outcome.p_value),
        "max_branch": outcome.max_branch,
        "branch_x": _august_result_dict(outcome.branch_x),
        "branch_y": _august_result_dict(outcome.branch_y),
        "config": _config_echo(args),
    }
    _write(_json(report), args.report)
    return EXIT_OK


def cmd_interpret(args):
    x, y, labels = _load_samples(args.data, multivariate=False)
    result = august_plus(x, y, args.depth, _tie_policy(args))
    reports = region_report(result, x, y, args.reference, args.top_k)
    reference_sample = y if args.reference == "y" else x
    out = args.report if args.report else "plot-data.json"
    emit_plot_data(reports, reference_sample, out, histogram_bins=args.bins)
    summary = {
        "command": "interpret",
        "labels": labels,
        "statistic": result.statistic,
        "reference": args.reference,
        "plot_data": out,
        "rows": [
            {
                "rank": rep.rank,
                "row_index": rep.row_index,
                "statistic_value": rep.statistic_value,
                "label": row_label(result.depth, rep.row_index),
            }
            for rep in reports
        ],
        "config": _config_echo(args),
    }
    _write(_json(summary), None)
    return EXIT_OK


def cmd_null_table(args):
    table, hit, path = _null_table(args, args.m, args.n)
    report = {
        "command": "null-table",
        "path": path,
        "cache_hit": hit,
        "m": table.m,
        "n": table.n,
        "depth": table.depth,
        "sims": table.sims,
        "seed": table.seed,
        "quantiles": {
            q: np.quantile(table.stats, float(q)) for q in ("0.90", "0.95", "0.99")
        },
    }
    _write(_json(report), args.report)
    return EXIT_OK


def _rejection_rate(test, gen_x, gen_y, args):
    """Share of replicates whose permutation test ``test`` has p <= alpha.

    Replicate i draws its pair, one at a time, as ``power_simulation``
    does, and the nested test's seed from the NESTED_TEST block stream.
    """
    pairs = _seeds.replicate_blocks(
        args.seed, _seeds.POWER_TRIAL, args.reps, gen_x, gen_y, args.m, args.n, 1
    )
    nested = _seeds.replicate_streams(args.seed, _seeds.NESTED_TEST, args.reps)
    rejections = 0
    for ((x,), (y,)), rng in zip(pairs, nested):
        seed = int(rng.integers(2**63))
        if test == "august-multi":
            pval = permutation_p_value(x, y, args.multi_depth, args.permutations, seed)
        else:
            pval = baseline_permutation_test(test, x, y, args.permutations, seed).p_value
        rejections += pval <= args.alpha
    return rejections / args.reps


def _family_tests(family, tests):
    """The tests ``power`` runs on ``family``.

    A bivariate family runs ``august-multi`` once, for ``august`` (the
    default) or ``august-multi``; a test with no bivariate form is refused.
    """
    if family.kind == "univariate":
        return tests
    for test in tests:
        if test not in ("august", "august-multi"):
            raise ValueError(
                f"test {test!r} has no bivariate form; bivariate family "
                f"{family.name!r} runs august-multi only"
            )
    return ["august-multi"]


def cmd_power(args):
    names = args.families or sorted(UNIVARIATE_FAMILIES)
    families = [get_family(name) for name in names]
    # Every sampler, and the sizes at --multi-depth, are checked before any
    # simulation, so a refused parameter leaves no table and no partial work.
    plans = [
        (family, _family_tests(family, args.tests),
         [(p, family.alternative(p)) for p in args.params or family.default_grid])
        for family in families
    ]
    if any("august-multi" in family_tests for _, family_tests, _ in plans):
        _check_sizes(args.m, args.n, args.multi_depth)
    if any("august" in family_tests for _, family_tests, _ in plans):
        table, _, _ = _null_table(args, args.m, args.n)  # serves every grid point
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["family", "parameter", "test", "power"])
    for family, family_tests, grid in plans:
        for param, gen_y in grid:
            for test in family_tests:
                if test == "august":
                    power = power_simulation(
                        family.null_sampler, gen_y, table,
                        args.alpha, args.reps, args.seed,
                    )
                else:
                    power = _rejection_rate(test, family.null_sampler, gen_y, args)
                writer.writerow([family.name, param, test, power])
    _write(out.getvalue(), args.report)
    return EXIT_OK


def _option_type(convert, valid, wanted):
    """An argparse type: ``convert(text)``, a usage error unless ``valid``."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {wanted}")
        return value

    return parse


_fraction = _option_type(float, lambda v: 0 < v < 1, "a number in (0, 1)")
_positive_int = _option_type(int, lambda v: v >= 1, "an integer >= 1")
_replicates = _option_type(int, lambda v: v >= 100, "an integer >= 100")
# The null-table cache header holds the seed as an unsigned 64-bit integer.
_seed = _option_type(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
_ridge = _option_type(float, lambda v: 0 <= v < np.inf, "a finite number >= 0")
_POWER_TESTS = ("august", "ks", "energy", "august-multi")


def _distinct(names):
    return len(set(names)) == len(names)


_test_names = _option_type(
    lambda text: text.split(","),
    lambda names: _distinct(names) and set(_POWER_TESTS).issuperset(names),
    f"a comma list of distinct names from {list(_POWER_TESTS)}",
)
# Unknown family names are refused by ``get_family`` (a precondition error).
_family_names = _option_type(
    lambda text: [name.strip() for name in text.split(",")], _distinct,
    "a comma list of distinct family names",
)
_finite_floats = _option_type(
    lambda text: [float(field) for field in text.split(",")],
    lambda v: np.isfinite(v).all(), "a comma list of finite numbers",
)


def _add_common(parser, depth_default):
    """The options every subcommand reads: depth and seed."""
    parser.add_argument("--depth", type=int, default=depth_default,
                        help="binary resolution d")
    parser.add_argument("--seed", type=_seed, default=0)


# Options that only some subcommands read; each subcommand names its own.
_OPTIONS = {
    "data": dict(nargs="+", help="one labelled CSV or exactly two plain CSVs"),
    "--report": dict(help="output path (default stdout)"),
    "--alpha": dict(type=_fraction, default=0.05, help="significance level in (0, 1)"),
    "--ties": dict(choices=("error", "jitter"), default="error"),
    "--cache-dir": dict(help="null-table cache (or env AUGUST_CACHE_DIR)"),
    "--bonferroni": dict(type=_positive_int, default=1, metavar="K",
                         help="divide alpha by K >= 1 for multi-test workflows"),
}


def _add_options(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so that ``main`` reports them like any other."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser():
    parser = _Parser(
        prog="august",
        description="Distribution-free two-sample testing with interpretable "
                    "binary-expansion symmetry statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("test", help="univariate two-sample test")
    _add_common(p, depth_default=3)
    _add_options(p, "data", "--report", "--alpha", "--ties", "--cache-dir",
                 "--bonferroni")
    p.add_argument("--pvalue-method", choices=("montecarlo", "asymptotic"),
                   default="montecarlo",
                   help="a cached null table of --sims statistics, or the "
                        "closed-form limit law (no simulation)")
    p.add_argument("--sims", type=_replicates, default=10_000,
                   help="null-table size B, at least 100")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("test-multi", help="multivariate two-sample test")
    _add_common(p, depth_default=2)
    _add_options(p, "data", "--report", "--alpha", "--ties", "--bonferroni")
    p.add_argument("--permutations", type=_replicates, default=999,
                   help="at least 100")
    p.add_argument("--ridge", type=_ridge, default=0.0, help="a finite number >= 0")
    p.set_defaults(func=cmd_test_multi)

    p = sub.add_parser("interpret", help="emit plot data explaining a rejection")
    _add_common(p, depth_default=3)
    _add_options(p, "data")
    p.add_argument("--report", help="plot-data path (default plot-data.json); "
                                    "the summary goes to stdout")
    # No null table is read here; --cache-dir stays so that callers can pass
    # the same options to every univariate command.
    _add_options(p, "--ties", "--cache-dir")
    p.add_argument("--reference", choices=("x", "y"), required=True,
                   help="which sample's quantiles define the regions")
    p.add_argument("--top-k", type=_positive_int, default=2,
                   help="contrasts to report, at least 1")
    p.add_argument("--bins", type=_positive_int, default=32,
                   help="histogram bins, at least 1")
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("null-table", help="build or inspect a cached null table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, depth_default=3)
    _add_options(p, "--report", "--cache-dir")
    p.add_argument("--sims", type=_replicates, default=10_000,
                   help="at least 100")
    p.set_defaults(func=cmd_null_table)

    p = sub.add_parser("power", help="power study over named families")
    _add_common(p, depth_default=3)
    _add_options(p, "--report", "--alpha", "--cache-dir")
    p.add_argument("--families", type=_family_names, default=None,
                   help=f"comma list from {sorted(UNIVARIATE_FAMILIES)} "
                        f"and {sorted(BIVARIATE_FAMILIES)}")
    p.add_argument("--params", type=_finite_floats, default=None,
                   help="comma list of finite numbers: override parameter grid")
    p.add_argument("--tests", type=_test_names, default="august",
                   help="comma list of august,ks,energy (univariate); "
                        "bivariate families run august-multi")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--reps", type=_replicates, default=200, help="at least 100")
    p.add_argument("--sims", type=_replicates, default=2000,
                   help="null-table size for the montecarlo p-values, "
                        "at least 100")
    p.add_argument("--permutations", type=_replicates, default=199,
                   help="at least 100")
    p.add_argument("--multi-depth", type=int, default=2)
    p.set_defaults(func=cmd_power)

    return parser


# Exit code per failure, tried in order: ParseError and IOFailure are
# AugustErrors, so they come before the catch-all precondition row.
_EXIT_CODES = (
    (argparse.ArgumentError, EXIT_USAGE),
    (ParseError, EXIT_PARSE),
    ((IOFailure, OSError), EXIT_IO),
    ((AugustError, ValueError), EXIT_PRECONDITION),
)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return exc.code
    except (argparse.ArgumentError, AugustError, OSError, ValueError) as exc:
        payload = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            payload.update(row=exc.row, column=exc.column)
        sys.stderr.write(json.dumps({"error": payload}) + "\n")
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
