"""The quick demos run to completion against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_augmented_cdf.py",
    "02_symmetry_statistics.py",
    "03_two_sample_test.py",
    "04_interpretation.py",
    "05_multivariate.py",
    "06_power_study.py",
    "07_benchmark.py",
    "08_asymptotics.py",
])
def test_demo_runs(demo, tmp_path):
    # Demo 04 writes plot-data.json into its working directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
