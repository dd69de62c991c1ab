"""Per-layer tracing by wrapping the attributes through which modules call.

Each ``august`` module reaches another through a module attribute, such as
``august.inference.august_many`` or ``august._seeds.replicate_rng``.
``Tracer.install`` replaces those attributes with wrappers that record a
span (name, start, end, parent) in memory and a few work counts;
``uninstall`` puts the originals back.  Nothing in ``august`` is edited, and
a run that never installs the tracer runs the package untouched.

A layer's self time is the summed duration of its spans minus the time of
the child spans they contain.
"""

import importlib
import time
import tracemalloc
from collections import Counter

import numpy as np

# (module path, attribute, span name).  Every call edge into a traced layer
# is listed, so a span's children account for all traced work beneath it.
WRAP_POINTS = (
    ("august.cli", "main", "cli.main"),
    ("august", "august_plus", "core.august_plus"),
    ("august.cli", "august_plus", "core.august_plus"),
    ("august.multivariate", "august_plus", "core.august_plus"),
    ("august.inference", "august_many", "core.august_many"),
    ("august.multivariate", "august_many", "core.august_many"),
    ("august.core", "cell_probabilities_for_counts", "hypergeom.cell_table"),
    ("august.core", "fwht", "hadamard.fwht"),
    ("august._seeds", "replicate_rng", "seeds.replicate_rng"),
    ("august.cli", "cached_null_table", "inference.cached_null_table"),
    ("august.inference", "build_null_table", "inference.build_null_table"),
    ("august.inference", "save_null_table", "inference.save_null_table"),
    ("august.inference", "load_null_table", "inference.load_null_table"),
    ("august.cli", "estimate_sigma", "inference.estimate_sigma"),
    ("august.cli", "asymptotic_p_value", "inference.asymptotic_p_value"),
    ("august.cli", "power_simulation", "inference.power_simulation"),
    ("august.cli", "permutation_p_value", "multivariate.permutation_p_value"),
    ("august.cli", "baseline_permutation_test", "baselines.permutation_test"),
    ("august.cli", "region_report", "interpret.region_report"),
    ("august.cli", "emit_plot_data", "interpret.emit_plot_data"),
)

# Per-layer metric -> (unit, how it is derived).  "self" and "total" sum
# span time, "calls" counts spans, the rest read the tracer's counters.
LAYER_METRICS = {
    "hypergeom.cell_table_s": ("s", "self", "hypergeom.cell_table"),
    "hypergeom.cell_table_calls": ("count", "calls", "hypergeom.cell_table"),
    "hypergeom.cell_table_rows": ("count", "rows", "hypergeom.cell_table"),
    "hypergeom.cell_table_peak_mb": ("MB", "peak", "hypergeom.cell_table"),
    "core.august_plus_s": ("s", "self", "core.august_plus"),
    "core.august_many_s": ("s", "self", "core.august_many"),
    "core.august_many_rows": ("count", "rows", "core.august_many"),
    "hadamard.fwht_s": ("s", "self", "hadamard.fwht"),
    "hadamard.fwht_calls": ("count", "calls", "hadamard.fwht"),
    "seeds.replicate_rng_s": ("s", "total", "seeds.replicate_rng"),
    "seeds.replicate_rng_calls": ("count", "calls", "seeds.replicate_rng"),
    "inference.null_table_build_s": ("s", "self", "inference.build_null_table"),
    "inference.null_table_builds": ("count", "calls", "inference.build_null_table"),
    "inference.cache_write_s": ("s", "total", "inference.save_null_table"),
    "inference.cache_read_s": ("s", "total", "inference.load_null_table"),
    "inference.cache_hits": ("count", "hits", "inference.cached_null_table"),
    "inference.cache_misses": ("count", "misses", "inference.cached_null_table"),
    "inference.estimate_sigma_s": ("s", "self", "inference.estimate_sigma"),
    "inference.asymptotic_draws_s": ("s", "self", "inference.asymptotic_p_value"),
    "inference.power_simulation_s": ("s", "self", "inference.power_simulation"),
    "multivariate.permutation_s": ("s", "self", "multivariate.permutation_p_value"),
    "multivariate.permutation_tests": ("count", "calls", "multivariate.permutation_p_value"),
    "baselines.permutation_test_s": ("s", "self", "baselines.permutation_test"),
    "baselines.permutation_tests": ("count", "calls", "baselines.permutation_test"),
    "interpret.region_report_s": ("s", "total", "interpret.region_report"),
    "interpret.plot_data_s": ("s", "total", "interpret.emit_plot_data"),
    "cli.self_s": ("s", "self", "cli.main"),
}


class Tracer:
    """Spans and work counts for the calls made while installed."""

    def __init__(self):
        # One entry per span in four flat lists; floats, ints and shared
        # strings add nothing for the garbage collector to scan.
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.rows = Counter()
        self.hits = Counter()
        self.misses = Counter()
        self.peak_bytes = Counter()
        self._stack = []
        self._patched = []

    def install(self):
        for module_path, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_path)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        track_memory = name == "hypergeom.cell_table"

        def traced(*args, **kwargs):
            if track_memory:
                tracemalloc.start()
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        if name in ("hypergeom.cell_table", "core.august_many"):
            self.rows[name] += len(args[0])
        elif name == "inference.cached_null_table":
            (self.hits if result[1] else self.misses)[name] += 1

    def layer_times(self):
        """Return ``(self_time, total_time, calls)``, each keyed by span name."""
        if not self.names:
            return Counter(), Counter(), Counter()
        duration = np.array(self.ends) - np.array(self.starts)
        parent = np.array(self.parents)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=len(self.names),
        )
        own = duration - child_time
        self_time, total_time = Counter(), Counter()
        for name, d, o in zip(self.names, duration.tolist(), own.tolist()):
            total_time[name] += d
            self_time[name] += o
        return self_time, total_time, Counter(self.names)

    def metrics(self, rounds):
        """Per-layer metrics per traced round (the memory peak is a maximum)."""
        self_time, total_time, calls = self.layer_times()
        sources = {"self": self_time, "total": total_time, "calls": calls,
                   "rows": self.rows, "hits": self.hits, "misses": self.misses}
        out = {}
        for metric, (unit, kind, span) in LAYER_METRICS.items():
            if kind == "peak":
                value = self.peak_bytes[span] / 2**20
            else:
                value = sources[kind][span] / rounds
            out[metric] = (value, unit)
        out["trace.spans"] = (len(self.names) / rounds, "count")
        return out

    def write(self, path):
        """Write every span to an ``.npz`` file: names plus four columns."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        np.savez(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in self.names], dtype=np.int16),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
        )
