"""Command-line surface: test runs, interpretation, null tables and power.

Data files are headerless CSV.  Univariate data is either one two-column
file (value, group label) or two one-column files; multivariate data puts
the label in the final column (or uses two files of equal-width rows).
All reports are JSON and embed the configuration; power emits CSV with a
documented header.  Timing is left to ``benchmark/``, which measures the
package cold, one process per workload.

Exit codes: 0 success, 2 usage, 3 parse failure, 4 precondition violation,
5 I/O failure.  Failures print a machine-readable JSON error object to
stderr.
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
from .core import TiePolicy, august_plus
from .errors import (
    AugustError,
    IOFailure,
    ParseError,
)
from .families import BIVARIATE_FAMILIES, UNIVARIATE_FAMILIES, get_family
from .inference import (
    asymptotic_p_value,
    cached_null_table,
    estimate_sigma,
    null_table_path,
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


def _cache_dir(args):
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get("AUGUST_CACHE_DIR", _DEFAULT_CACHE)


def _parse_float(text, row, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"row {row}, column {column}: {text!r} is not a number",
            row=row, column=column,
        ) from None
    if not np.isfinite(value):
        raise ParseError(
            f"row {row}, column {column}: {text!r} is not finite",
            row=row, column=column,
        )
    return value


def _read_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh if line.strip() != ""]
    except OSError as exc:
        raise IOFailure(f"could not read {path}: {exc}") from exc


def _split_by_label(rows, path, width):
    """Parse rows of ``width`` floats plus a trailing label; group by label."""
    groups = {}
    order = []
    for number, line in enumerate(rows, start=1):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width + 1:
            raise ParseError(
                f"{path}: row {number} has {len(fields)} fields, "
                f"expected {width + 1}",
                row=number,
            )
        values = [
            _parse_float(fields[i], number, i + 1) for i in range(width)
        ]
        label = fields[width]
        if label not in groups:
            groups[label] = []
            order.append(label)
        groups[label].append(values)
    if len(order) != 2:
        raise ParseError(
            f"{path}: expected exactly two group labels, found {order}"
        )
    first = np.asarray(groups[order[0]], dtype=np.float64)
    second = np.asarray(groups[order[1]], dtype=np.float64)
    return first, second, order


def _read_plain(path, width=None):
    """Parse a label-free file of fixed-width numeric rows."""
    rows = _read_rows(path)
    if not rows:
        raise ParseError(f"{path} contains no data rows")
    parsed = []
    for number, line in enumerate(rows, start=1):
        fields = [f.strip() for f in line.split(",")]
        if width is None:
            width = len(fields)
        if len(fields) != width:
            raise ParseError(
                f"{path}: row {number} has {len(fields)} fields, expected {width}",
                row=number,
            )
        parsed.append(
            [_parse_float(fields[i], number, i + 1) for i in range(width)]
        )
    return np.asarray(parsed, dtype=np.float64)


def _load_samples(paths, multivariate):
    """Return (x, y, labels) from one labeled file or two plain files."""
    if len(paths) == 1:
        rows = _read_rows(paths[0])
        if not rows:
            raise ParseError(f"{paths[0]} contains no data rows")
        width = len(rows[0].split(",")) - 1
        if width < 1:
            raise ParseError(f"{paths[0]}: rows need at least a value and a label")
        if not multivariate and width != 1:
            raise ParseError(
                f"{paths[0]}: univariate data must be (value, label) rows"
            )
        first, second, labels = _split_by_label(rows, paths[0], width)
    else:
        first = _read_plain(paths[0])
        second = _read_plain(paths[1], width=first.shape[1])
        labels = [os.path.basename(paths[0]), os.path.basename(paths[1])]
    if not multivariate:
        first, second = first.ravel(), second.ravel()
    return first, second, labels


def _plain(value):
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _write_json(payload, path):
    text = json.dumps(_plain(payload), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"could not write report to {path}: {exc}") from exc


def _write_csv(header, rows, path):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if path is None:
        sys.stdout.write(buffer.getvalue())
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buffer.getvalue())
    except OSError as exc:
        raise IOFailure(f"could not write CSV to {path}: {exc}") from exc


def _tie_policy(args):
    return TiePolicy(mode=args.ties, seed=args.seed)


def _config_echo(args, skip=("func",)):
    return {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and not k.startswith("_")
    }


def _effective_alpha(args):
    return args.alpha / args.bonferroni


def cmd_test(args):
    x, y, labels = _load_samples(args.data, multivariate=False)
    result = august_plus(x, y, args.depth, _tie_policy(args))
    table_info = None
    if args.pvalue_method == "montecarlo":
        table, hit = cached_null_table(
            x.size, y.size, args.depth, args.sims, args.seed, "uniform",
            _cache_dir(args),
        )
        pval = p_value(result.statistic, table)
        table_info = {
            "sims": table.sims,
            "seed": table.seed,
            "generator_tag": table.generator_tag,
            "cache_hit": hit,
            "path": null_table_path(
                _cache_dir(args), table.m, table.n, table.depth, table.sims,
                table.seed, table.generator_tag,
            ),
        }
    else:
        cfg = estimate_sigma(
            x.size, y.size, args.depth, max(1000, min(args.sims, 5000)), args.seed
        )
        pval = asymptotic_p_value(
            result.statistic, x.size, y.size, cfg, seed=args.seed
        )
    effective = _effective_alpha(args)
    report = {
        "command": "test",
        "labels": labels,
        "m": result.m,
        "n": result.n,
        "depth": result.depth,
        "statistic": result.statistic,
        "p_value": pval,
        "pvalue_method": args.pvalue_method,
        "alpha": args.alpha,
        "effective_alpha": effective,
        "decision": "reject" if pval <= effective else "fail-to-reject",
        "s_x": result.s_x,
        "s_y": result.s_y,
        "p_x": result.p_x,
        "p_y": result.p_y,
        "tie_policy_applied": result.tie_policy_applied,
        "null_table": table_info,
        "config": _config_echo(args),
    }
    _write_json(report, args.report)
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
    effective = _effective_alpha(args)
    report = {
        "command": "test-multi",
        "labels": labels,
        "m": int(x.shape[0]),
        "n": int(y.shape[0]),
        "dimension": int(x.shape[1]),
        "depth": args.depth,
        "statistic": outcome.statistic,
        "p_value": outcome.p_value,
        "pvalue_method": "permutation",
        "permutations": outcome.permutations,
        "alpha": args.alpha,
        "effective_alpha": effective,
        "decision": "reject" if outcome.p_value <= effective else "fail-to-reject",
        "max_branch": outcome.max_branch,
        "branch_x": _august_result_dict(outcome.branch_x),
        "branch_y": _august_result_dict(outcome.branch_y),
        "config": _config_echo(args),
    }
    _write_json(report, args.report)
    return EXIT_OK


def cmd_interpret(args):
    x, y, labels = _load_samples(args.data, multivariate=False)
    result = august_plus(x, y, args.depth, _tie_policy(args))
    reports = region_report(result, x, y, args.reference, args.top_k)
    reference_sample = y if args.reference == "y" else x
    out = args.report if args.report else "plot-data.json"
    emit_plot_data(
        reports, reference_sample, out,
        histogram_bins=args.bins, reference_label=args.reference,
    )
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
    sys.stdout.write(json.dumps(_plain(summary), indent=2) + "\n")
    return EXIT_OK


def cmd_null_table(args):
    table, hit = cached_null_table(
        args.m, args.n, args.depth, args.sims, args.seed, args.generator,
        _cache_dir(args),
    )
    path = null_table_path(
        _cache_dir(args), table.m, table.n, table.depth, table.sims,
        table.seed, table.generator_tag,
    )
    report = {
        "command": "null-table",
        "path": path,
        "cache_hit": hit,
        "m": table.m,
        "n": table.n,
        "depth": table.depth,
        "sims": table.sims,
        "seed": table.seed,
        "generator_tag": table.generator_tag,
        "quantiles": {
            "0.90": float(np.quantile(table.stats, 0.90)),
            "0.95": float(np.quantile(table.stats, 0.95)),
            "0.99": float(np.quantile(table.stats, 0.99)),
        },
    }
    _write_json(report, args.report)
    return EXIT_OK


def _rejection_rate(test, gen_x, gen_y, args):
    """Share of replicates whose nested p-value ``test(x, y, seed)`` is <= alpha.

    Replicate i draws its pair from power-trial stream i and the nested
    test's seed from nested-test stream i.
    """
    pairs = (
        pair
        for xs, ys in _seeds.replicate_blocks(
            args.seed, _seeds.POWER_TRIAL, args.reps, gen_x, gen_y, args.m, args.n
        )
        for pair in zip(xs, ys)
    )
    rejections = sum(
        test(x, y, _seeds.nested_seed(args.seed, i)) <= args.alpha
        for i, (x, y) in enumerate(pairs)
    )
    return rejections / args.reps


def _nested_test(test, args):
    """The permutation test ``(x, y, seed) -> p-value`` that ``test`` names."""
    if test == "august-multi":
        return lambda x, y, seed: permutation_p_value(
            x, y, args.multi_depth, args.permutations, seed
        )
    return lambda x, y, seed: baseline_permutation_test(
        test, x, y, args.permutations, seed
    ).p_value


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
    names = args.families.split(",") if args.families else sorted(UNIVARIATE_FAMILIES)
    tests = args.tests.split(",")
    families = [get_family(name.strip()) for name in names]
    plans = [(family, _family_tests(family, tests)) for family in families]
    table = None
    rows = []
    for family, family_tests in plans:
        grid = (
            [float(p) for p in args.params.split(",")]
            if args.params else list(family.default_grid)
        )
        for param in grid:
            gen_y = family.alternative(param)
            for test in family_tests:
                if test == "august":
                    if table is None:  # one null table serves the whole grid
                        table, _ = cached_null_table(
                            args.m, args.n, args.depth, args.sims, args.seed,
                            "uniform", _cache_dir(args),
                        )
                    power = power_simulation(
                        family.null_sampler, gen_y, args.m, args.n, args.depth,
                        args.alpha, args.reps, args.seed, null_table=table,
                    )
                else:
                    power = _rejection_rate(
                        _nested_test(test, args), family.null_sampler, gen_y, args
                    )
                rows.append([family.name, param, test, power])
    _write_csv(["family", "parameter", "test", "power"], rows, args.report)
    return EXIT_OK


def _add_common(parser, depth_default):
    parser.add_argument("--depth", type=int, default=depth_default,
                        help="binary resolution d")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ties", choices=("error", "jitter"), default="error")
    parser.add_argument("--cache-dir", default=None,
                        help="null-table cache (or env AUGUST_CACHE_DIR)")
    parser.add_argument("--report", default=None, help="output path (default stdout)")
    parser.add_argument("--bonferroni", type=int, default=1, metavar="K",
                        help="divide alpha by K for multi-test workflows")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="august",
        description="Distribution-free two-sample testing with interpretable "
                    "binary-expansion symmetry statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("test", help="univariate two-sample test")
    p.add_argument("data", nargs="+", help="one labeled CSV or two plain CSVs")
    _add_common(p, depth_default=3)
    p.add_argument("--pvalue-method", choices=("montecarlo", "asymptotic"),
                   default="montecarlo")
    p.add_argument("--sims", type=int, default=10_000,
                   help="null-table size B")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("test-multi", help="multivariate two-sample test")
    p.add_argument("data", nargs="+")
    _add_common(p, depth_default=2)
    p.add_argument("--permutations", type=int, default=999)
    p.add_argument("--ridge", type=float, default=0.0)
    p.set_defaults(func=cmd_test_multi)

    p = sub.add_parser("interpret", help="emit plot data explaining a rejection")
    p.add_argument("data", nargs="+")
    _add_common(p, depth_default=3)
    p.add_argument("--reference", choices=("x", "y"), required=True,
                   help="which sample's quantiles define the regions")
    p.add_argument("--top-k", type=int, default=2)
    p.add_argument("--bins", type=int, default=32)
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("null-table", help="build or inspect a cached null table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, depth_default=3)
    p.add_argument("--sims", type=int, default=10_000)
    p.add_argument("--generator", choices=("uniform", "normal", "cauchy"),
                   default="uniform")
    p.set_defaults(func=cmd_null_table)

    p = sub.add_parser("power", help="power study over named families")
    _add_common(p, depth_default=3)
    p.add_argument("--families", default=None,
                   help=f"comma list from {sorted(UNIVARIATE_FAMILIES)} "
                        f"and {sorted(BIVARIATE_FAMILIES)}")
    p.add_argument("--params", default=None, help="override parameter grid")
    p.add_argument("--tests", default="august",
                   help="comma list of august,ks,energy (univariate); "
                        "bivariate families run august-multi")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--sims", type=int, default=2000,
                   help="null-table size for the montecarlo p-values")
    p.add_argument("--permutations", type=int, default=199)
    p.add_argument("--multi-depth", type=int, default=2)
    p.set_defaults(func=cmd_power)

    return parser


def _emit_error(exc):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ParseError):
        payload["error"]["row"] = exc.row
        payload["error"]["column"] = exc.column
    sys.stderr.write(json.dumps(payload) + "\n")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        _emit_error(exc)
        return EXIT_PARSE
    except (IOFailure, OSError) as exc:
        _emit_error(exc)
        return EXIT_IO
    except (AugustError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
