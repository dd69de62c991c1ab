"""Benchmark of the ``august`` package: one workload per process.

    python3 benchmark/run.py --workload cli-test --seed 1 --seconds 20 --trace 0

Runs rounds of the workload's calls until ``--seconds`` have passed, then
checks every output and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer ones plus
the tracing overhead.  The line before it holds the per-kind figures of
the workload.  See README.md in this directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"

# BLAS threads, fixed before numpy loads; at most nproc (2 on the reference
# machine).  One thread keeps runs apart from whatever else the host runs.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = "import august, august.cli"


def _fresh_import(env):
    """A fresh interpreter that imports the package, then exits."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                   cwd=ROOT, stdout=subprocess.DEVNULL)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # One CPU for this process and its children, so that the host-speed probe
    # runs where the measured work runs.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    os.environ.pop("AUGUST_CACHE_DIR", None)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import august
    except ImportError as exc:
        sys.stderr.write(f"cannot import august from {SRC}: {exc}\n")
        return 2
    if Path(august.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"august was imported from {august.__file__}, not {SRC}\n")
        return 2

    import numpy as np
    import scipy

    import reference
    import tracer as tracing
    from workloads import WORKLOADS, run_round, timed

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)

        # Set-up: a fresh interpreter's imports plus one round's inputs,
        # each measured SETUP_REPEATS times at reference host speed; the
        # last inputs are kept.
        imports = [timed(lambda: _fresh_import(env))
                   for _ in range(SETUP_REPEATS)]
        prepared = [timed(lambda: workload.prepare(0))
                    for _ in range(SETUP_REPEATS)]
        first = prepared[-1][0]
        setup_s = sum(statistics.median(seconds / speed for _, seconds, speed, _ in steps)
                      for steps in (imports, prepared))

        tracer = tracing.Tracer() if args.trace else None
        ops, plain, traced = [], [], []
        start = time.perf_counter()
        index = 0
        while True:
            calls = first if index == 0 else workload.prepare(index)
            trace_round = tracer is not None and index % 2 == 1
            if trace_round:
                tracer.install()
            try:
                round_ops = run_round(calls)
            finally:
                if trace_round:
                    tracer.uninstall()
            ops += round_ops
            (traced if trace_round else plain).append(round_ops)
            index += 1
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or traced):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failures = reference.self_test(august) + workload.check(ops)
        for message in failures:
            sys.stderr.write(f"CHECK FAILED: {message}\n")

        def round_s(rounds):
            return statistics.median(sum(op.seconds / op.speed for op in r) for r in rounds)

        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "round_s": (round_s(plain), "s"),
                "call_gmean_s": (statistics.geometric_mean(
                    op.seconds / op.speed for op in ops), "s"),
            }
        else:
            metrics = tracer.metrics(len(traced))
            overhead = round_s(traced) / round_s(plain) - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": index,
            "raw_round_s": [sum(op.seconds for op in r) for r in plain + traced],
            "speed": statistics.median(op.speed for op in ops),
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "cpu": cpu,
            "import_s": [seconds for _, seconds, _, _ in imports],
            "prepare_s": [seconds for _, seconds, _, _ in prepared],
            "kinds": {k: {"value": v, "unit": u}
                      for k, (v, u) in workload.detail(ops).items()},
        }
        result = {
            "correct": not failures,
            "attempted": len(ops),
            "failed": sum(not op.ok for op in ops),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        out = WORK / "results"
        out.mkdir(parents=True, exist_ok=True)
        stem = out / f"{args.workload}-s{args.seed}-t{args.trace}"
        stem.with_suffix(".json").write_text(
            json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
        if tracer is not None:
            tracer.write(str(stem) + "-spans.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
