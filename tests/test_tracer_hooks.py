"""The names that ``benchmark/tracer.py`` wraps exist in the package.

``Tracer.install`` reads every ``WRAP_POINTS`` attribute with ``getattr``;
one missing name makes every traced benchmark run fail.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_wrap_point_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    tracer = importlib.import_module("tracer")
    assert tracer.WRAP_POINTS
    for module_path, attr, _ in tracer.WRAP_POINTS:
        module = importlib.import_module(module_path)
        assert callable(getattr(module, attr, None)), f"{module_path}.{attr}"
