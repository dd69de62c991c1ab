"""The three workloads: what each round calls, and how its outputs are checked.

A workload makes its inputs from ``(seed, round)`` alone.  ``prepare``
builds one round: the data and CSV files, and the list of ``Call``s the
harness then makes one after another, as a closed loop with a single caller.
``check`` runs after the timed loop and compares the outputs with
``reference``, never with stored output; it returns failure messages for
the calls that succeeded.  ``detail`` summarises the calls by kind.
"""

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import august
import august.cli
import reference
from august.families import get_family

# Timings are divided by the host speed that the probe measures around each
# call: the probe's time over PROBE_REFERENCE_S, its median on the reference
# machine.  They read as seconds at that machine's usual speed.
PROBE_POINTS = 400_000
PROBE_REFERENCE_S = 0.023


@dataclass
class Call:
    kind: str
    work: int  # points (m + n) or replicates handled by the call
    fn: object  # () -> (ok, output)
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    """A call as it ran: wall time, host speed around it, and its output."""

    call: Call
    seconds: float
    speed: float  # probe time around the call / the probe's reference time
    ok: bool
    output: object

    @property
    def kind(self):
        return self.call.kind

    @property
    def info(self):
        return self.call.info


def speed_probe():
    """Seconds taken by a fixed numpy kernel: how fast the host runs now.

    On a shared host the same call can take 0.7 to 1.2 times its usual
    time, in stretches of seconds to minutes, for every kind of work alike.
    The probe shares no code with ``august``, so a change to the package
    does not move it.  Its arrays are fresh each time, so it does not depend
    on how much of its data the previous call left in the CPU caches.
    """
    start = time.perf_counter()
    values = np.random.default_rng(0).random(PROBE_POINTS)
    np.argsort(values)
    np.bincount((values * 4096).astype(np.int64))
    np.exp(values)
    return time.perf_counter() - start


def timed(fn, before=None):
    """Run ``fn()`` between two probes: ``(result, seconds, speed, after)``.

    ``speed`` is the geometric mean of the probe times around the call over
    PROBE_REFERENCE_S; ``before`` may pass on the previous call's ``after``.
    """
    before = speed_probe() if before is None else before
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    after = speed_probe()
    return result, seconds, math.sqrt(before * after) / PROBE_REFERENCE_S, after


def run_round(calls):
    """Make each call in turn, probing the host before and after each one."""
    ops = []
    after = None
    for call in calls:
        (ok, output), seconds, speed, after = timed(call.fn, after)
        ops.append(Op(call, seconds, speed, ok, output))
    return ops


def _report_failure(label, exc):
    sys.stderr.write(f"OPERATION FAILED: {label}: {type(exc).__name__}: {exc}\n")


def _cli(argv):
    """``august.cli.main`` in-process; returns (exit code == 0, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            # Looked up at call time, so an installed tracer sees the call.
            code = august.cli.main(argv)
    except Exception as exc:  # the CLI lets assertions through
        _report_failure("august " + argv[0], exc)
        return False, None
    return code == 0, out.getvalue()


def _august_plus(x, y, depth):
    try:
        return True, august.august_plus(x, y, depth)
    except Exception as exc:  # a failed call is counted, not fatal
        _report_failure(f"august_plus m={x.size} n={y.size} d={depth}", exc)
        return False, None


def _median(values):
    return float(np.median(values)) if values else float("nan")


def _rate(ops, kinds):
    chosen = [op for op in ops if op.kind in kinds and op.ok]
    seconds = sum(op.seconds for op in chosen)
    return sum(op.call.work for op in chosen) / seconds if seconds else float("nan")


class _SizePicker:
    """Sample sizes near fixed targets, never repeated within a run.

    Every round does close to the same work, whatever the seed; the jitter
    only keeps sizes distinct, so each cache keyed by size starts cold.
    """

    def __init__(self, rng, jitter):
        self.rng = rng
        self.jitter = jitter
        self.used = set()

    def pick(self, target, tag=None):
        size = target + int(self.rng.integers(0, self.jitter))
        while (tag, size) in self.used:
            size += 1
        self.used.add((tag, size))
        return size


class CliTest:
    """An analyst session through ``august.cli.main``, one caller.

    Per dataset: ``test`` (cache miss: builds and writes the null table),
    ``test`` on a second dataset of the same (m, n) (cache hit),
    ``test --pvalue-method asymptotic`` and ``interpret --reference y``.
    """

    name = "cli-test"
    SIZES = ((300, 420), (700, 560), (1200, 1450), (1800, 1600))
    DEPTH = 3  # the CLI default, as are --sims 10000 and --alpha 0.05
    SIMS = 10_000
    ASYMPTOTIC_DRAWS = 100_000  # asymptotic_p_value's default

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cache = workdir / "cache"
        self.sizes = _SizePicker(np.random.default_rng([seed, 0]), 13)

    def prepare(self, index):
        rng = np.random.default_rng([self.seed, 1, index])
        common = ["--seed", str(self.seed), "--cache-dir", str(self.cache)]
        calls = []
        for i, (base_m, base_n) in enumerate(self.SIZES):
            m = self.sizes.pick(base_m)
            n = base_n + int(rng.integers(0, 13))
            # A shift and scale change of c / sqrt(N) keeps p-values spread
            # over (0, 1) at every size.
            c = rng.uniform(0.0, 3.0) / np.sqrt(m + n)
            data = {
                "x": rng.normal(size=m),
                "y": rng.normal(c, 1.0 + c, size=n),
                "xb": rng.normal(size=m),
                "yb": rng.normal(c, 1.0 + c, size=n),
            }
            stem = str(self.workdir / f"r{index}d{i}")
            p = {k: f"{stem}{k}.csv" for k in data}
            for key, values in data.items():
                np.savetxt(p[key], values, fmt="%.17g")
            ds = {"m": m, "n": n, "data": data, "stem": stem}
            for kind, argv in (
                ("test_miss", ["test", p["x"], p["y"], "--report", stem + "miss.json"]),
                ("test_hit", ["test", p["xb"], p["yb"], "--report", stem + "hit.json"]),
                ("asymptotic", ["test", p["x"], p["y"], "--pvalue-method",
                                "asymptotic", "--report", stem + "asym.json"]),
                ("interpret", ["interpret", p["x"], p["y"], "--reference", "y",
                               "--report", stem + "plot.json"]),
            ):
                calls.append(Call(kind, m + n, lambda a=argv + common: _cli(a),
                                  {"dataset": ds}))
        return calls

    def check(self, ops):
        failures = []
        refs = {}
        for op in ops:
            if not op.ok:
                continue
            ds = op.info["dataset"]
            stem, label = ds["stem"], f"{op.kind} {ds['m']}x{ds['n']}"
            which = "b" if op.kind == "test_hit" else ""
            key = (stem, which)
            if key not in refs:
                refs[key] = reference.statistic(
                    ds["data"]["x" + which], ds["data"]["y" + which], self.DEPTH)
            ref = refs[key]
            if op.kind == "interpret":
                summary = json.loads(op.output)
                plot = reference.load_json(stem + "plot.json")
                if abs(summary["statistic"] - ref[0]) > reference.STAT_TOL:
                    failures.append(f"{label}: statistic differs from the reference")
                failures += reference.check_regions(
                    label, plot, summary, ds["data"]["y"], ref[1], self.DEPTH)
                continue
            suffix = {"test_miss": "miss", "test_hit": "hit", "asymptotic": "asym"}
            report = reference.load_json(stem + suffix[op.kind] + ".json")
            failures += reference.compare_result(
                label, report["statistic"], report["s_x"], report["s_y"],
                report["p_x"], report["p_y"], ref)
            if op.kind == "asymptotic":
                mc = reference.load_json(stem + "miss.json")["p_value"]
                tol = reference.asymptotic_tolerance(
                    mc, report["p_value"], self.SIMS, self.ASYMPTOTIC_DRAWS)
                if abs(report["p_value"] - mc) > tol:
                    failures.append(
                        f"{label}: asymptotic p {report['p_value']:.4f} is more "
                        f"than {tol:.4f} from the Monte-Carlo p {mc:.4f}")
                continue
            want_hit = op.kind == "test_hit"
            if report["null_table"]["cache_hit"] is not want_hit:
                failures.append(f"{label}: cache_hit is not {want_hit}")
            failures += reference.check_table_p_value(label, report, {
                "m": ds["m"], "n": ds["n"], "depth": self.DEPTH,
                "sims": self.SIMS, "seed": self.seed, "generator_tag": "uniform",
            })
        return failures

    def detail(self, ops):
        return {
            f"{kind}_s": (_median([op.seconds for op in ops if op.kind == kind and op.ok]), "s")
            for kind in ("test_miss", "test_hit", "asymptotic", "interpret")
        }


class LargeSample:
    """Cold ``august_plus`` calls on uniform samples of 2e5 to 3.2e5 points.

    Every call has its own (m, n), so the count-to-cell-probability table
    is built afresh each time.  No p-value is computed.

    Each side stays at or below about 1.6e5 points (1.1e5 at depth 6).
    Above that the rows of the package's cell table can miss a sum of one by
    more than the 1e-9 that ``august_plus`` asserts, and whether a call
    fails then depends on its exact sizes.  One call on fixed inputs, the
    same in every run and round, shows that fault; it fails every time.
    """

    name = "large-sample"
    # (total N, share of it in x, depth)
    CALLS = (
        (200_000, 0.45, 3), (240_000, 0.55, 3), (270_000, 0.45, 3),
        (300_000, 0.52, 3), (310_000, 0.50, 3),
        (190_000, 0.48, 6), (210_000, 0.52, 6),
    )
    # (m, n, depth) at which the averaged y cells sum to 1 - 1.1e-9.
    FAILING = (480_127, 320_259, 3)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.sizes = _SizePicker(np.random.default_rng([seed, 0]), 400)
        m, n, depth = self.FAILING
        rng = np.random.default_rng(20210929)
        self.failing_data = (rng.random(m), rng.random(n))

    def _data(self, index, call, m, n):
        rng = np.random.default_rng([self.seed, 2, index, call])
        return rng.random(m), rng.random(n)

    def _call(self, index, call, m, n, depth, x, y):
        info = {"round": index, "call": call, "m": m, "n": n, "depth": depth}
        return Call(f"d{depth}", m + n, lambda: _august_plus(x, y, depth), info)

    def prepare(self, index):
        calls = []
        for call, (total, share, depth) in enumerate(self.CALLS):
            m = self.sizes.pick(int(total * share), depth)
            n = self.sizes.pick(total - int(total * share), depth)
            calls.append(self._call(index, call, m, n, depth,
                                    *self._data(index, call, m, n)))
        return calls + [self._call(index, None, *self.FAILING, *self.failing_data)]

    def check(self, ops):
        """Every call: invariants.  One call per round, rotating: the reference."""
        failures = []
        for op in ops:
            if not op.ok:
                continue
            i = op.info
            m, n, depth, r = i["m"], i["n"], i["depth"], op.output
            label = f"august_plus m={m} n={n} d={depth}"
            if (r.m, r.n, r.depth) != (m, n, depth):
                failures.append(f"{label}: result reports sizes {(r.m, r.n, r.depth)}")
            failures += reference.consistency(
                label, r.statistic, r.s_x, r.s_y, r.p_x, r.p_y, depth)
            if i["call"] is None:
                x, y = self.failing_data
            elif i["call"] == (i["round"] + self.seed) % len(self.CALLS):
                x, y = self._data(i["round"], i["call"], m, n)
            else:
                continue
            failures += reference.compare_result(
                label, r.statistic, r.s_x, r.s_y, r.p_x, r.p_y,
                reference.statistic(x, y, depth))
        return failures

    def detail(self, ops):
        return {
            "d3_points_per_s": (_rate(ops, {"d3"}), "1/s"),
            "d6_points_per_s": (_rate(ops, {"d6"}), "1/s"),
        }


class PowerStudy:
    """``august power`` in-process at m = n = 128, one command per grid point.

    The commands cover, for each (family, test), the grid that a single
    ``august power`` command would run; each grid point builds its own null
    table either way.  Splitting them lets the host speed be sampled every
    0.1 to 4 s rather than once per 3 to 8 s command.
    """

    name = "power-study"
    REPS = 100
    ALPHA = 0.05
    # The parameter at which each family's alternative equals its null.
    NULL_POINT = {
        "beta-skew": 0.0, "gamma-skew": 0.0, "laplace-location": 0.0,
        "laplace-scale": 1.0, "normal-location": 0.0, "normal-mixture": 0.0,
        "null": 0.0, "mvn-bimodal": 0.0,
    }
    STRONGEST_MIXTURE = 0.95  # last point of normal-mixture's default grid
    # (test, family, grid); None is the family's default grid.  The
    # permutation tests cost 25 to 50 times more per replicate, so they run
    # at the null point and the strongest point of their grid.
    COMMANDS = tuple(
        ("august", fam, None) for fam in sorted(NULL_POINT) if fam != "mvn-bimodal"
    ) + (
        ("ks", "normal-mixture", (0.0, STRONGEST_MIXTURE)),
        ("energy", "normal-mixture", (0.0, STRONGEST_MIXTURE)),
        ("august-multi", "mvn-bimodal", (0.0, 0.9)),
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cache = workdir / "cache"

    def prepare(self, index):
        common = ["--m", "128", "--n", "128", "--reps", str(self.REPS),
                  "--seed", str(self.seed * 1000 + index), "--cache-dir", str(self.cache)]
        kinds = {"august": "august", "august-multi": "multi"}
        calls = []
        for test, fam, grid in self.COMMANDS:
            argv = ["power", "--families", fam]
            if test != "august-multi":
                argv += ["--tests", test]
            for param in grid or get_family(fam).default_grid:
                calls.append(Call(
                    kinds.get(test, "baseline"), self.REPS,
                    lambda a=argv + ["--params", repr(param)] + common: _cli(a),
                    {"round": index, "test": test, "family": fam, "param": param}))
        return calls

    def check(self, ops):
        failures = []
        limit = reference.binomial_limit(self.REPS, self.ALPHA)
        strongest = {}
        for op in ops:
            if not op.ok:
                continue
            test, fam = op.info["test"], op.info["family"]
            label = f"power {fam} {test}"
            rows = reference.parse_power_csv(op.output)
            if [(r[0], r[1], r[2]) for r in rows] != [(fam, op.info["param"], test)]:
                failures.append(f"{label}: output rows do not match the command")
                continue
            for _, param, _, power in rows:
                hits = power * self.REPS
                if not 0.0 <= power <= 1.0 or abs(hits - round(hits)) > 1e-9:
                    failures.append(f"{label}: power {power} is not k/{self.REPS}")
                if param == self.NULL_POINT[fam] and round(hits) > limit:
                    failures.append(
                        f"{label}: {round(hits)} of {self.REPS} rejections at the "
                        f"null point exceed the binomial limit {limit}")
                if fam == "normal-mixture" and param == self.STRONGEST_MIXTURE:
                    strongest.setdefault(op.info["round"], {})[test] = power
        for powers in strongest.values():
            if "august" in powers and "ks" in powers and not powers["august"] > powers["ks"]:
                failures.append(
                    f"power normal-mixture {self.STRONGEST_MIXTURE}: august "
                    f"{powers['august']} does not exceed ks {powers['ks']}")
        return failures

    def detail(self, ops):
        return {
            "august_reps_per_s": (_rate(ops, {"august"}), "1/s"),
            "baseline_reps_per_s": (_rate(ops, {"baseline"}), "1/s"),
            "multi_reps_per_s": (_rate(ops, {"multi"}), "1/s"),
        }


WORKLOADS = {w.name: w for w in (CliTest, LargeSample, PowerStudy)}
