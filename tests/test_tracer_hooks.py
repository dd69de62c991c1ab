"""The names that ``benchmark/tracer.py`` wraps exist and are called.

``Tracer.install`` reads every ``WRAP_POINTS`` attribute with ``getattr``;
one missing name makes every traced benchmark run fail, and one that no
command calls through reports its layer's work as zero.
"""

import importlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_every_wrap_point_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    tracer = importlib.import_module("tracer")
    assert tracer.WRAP_POINTS
    for module_path, attr, _ in tracer.WRAP_POINTS:
        module = importlib.import_module(module_path)
        assert callable(getattr(module, attr, None)), f"{module_path}.{attr}"


def test_every_wrap_point_is_on_a_live_path(monkeypatch, tmp_path, capsys):
    # A wrap point that no command reaches (say, a name a module bound at
    # import time) would drop its layer's work from the traced metrics
    # without failing anything.
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    tracer = importlib.import_module("tracer")
    cli = importlib.import_module("august.cli")
    rng = np.random.default_rng(19)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, rng.normal(size=40))
    np.savetxt(y, rng.normal(0.3, 1.2, size=45))
    data = [str(x), str(y), "--cache-dir", str(tmp_path / "cache")]
    small = ["--m", "16", "--n", "16", "--reps", "100", "--sims", "100",
             "--permutations", "100", "--params", "0.5",
             "--cache-dir", str(tmp_path / "cache")]
    runs = (
        ["test", *data, "--sims", "100"],  # cache miss
        ["test", *data, "--sims", "100"],  # cache hit
        ["test", *data, "--pvalue-method", "asymptotic"],
        ["interpret", *data, "--reference", "y",
         "--report", str(tmp_path / "plot.json")],
        ["power", "--families", "normal-location", "--tests", "august,ks,energy",
         *small],
        ["power", "--families", "mvn-location", *small],
    )
    spans = tracer.Tracer()
    spans.install()
    try:
        for argv in runs:
            assert cli.main(argv) == 0, argv
    finally:
        spans.uninstall()
    capsys.readouterr()
    called = set(spans.names)
    for _, _, name in tracer.WRAP_POINTS:
        if name != "inference.estimate_sigma":  # no command calls it
            assert name in called, name
    assert spans.rows["hypergeom.cell_table"] > 0
    # Misses: the first test and power's own table; the hit: the second test.
    assert spans.misses["inference.cached_null_table"] == 2
    assert spans.hits["inference.cached_null_table"] == 1
