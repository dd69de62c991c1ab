"""The committed benchmark records (``BENCH_*.json`` at the repository root).

Each record holds the result and detail lines that ``benchmark/run.py``
prints, for the parent commit and for the change, on every workload that
``BENCHMARK.json`` names.  Every untraced run must carry every end-to-end
metric, so a record can be compared with any later one.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_covers_every_workload_and_end_to_end_metric(path):
    record = json.loads(path.read_text())
    assert record["command"] and record["host"]
    metrics = {metric["name"] for metric in SPEC["end_to_end"]}
    for workload in (workload["name"] for workload in SPEC["workloads"]):
        for tree in ("parent", "change"):
            runs = [run for run in record["runs"] if run["workload"] == workload
                    and run["tree"] == tree and run["trace"] == 0]
            assert runs, (workload, tree)
            for run in runs:
                detail, result = run["detail"], run["result"]
                assert (detail["workload"], detail["seed"], detail["trace"]) == (
                    workload, run["seed"], 0)
                assert metrics <= set(result["metrics"]), (workload, tree)
                assert result["attempted"] > 0
                assert isinstance(result["correct"], bool)
