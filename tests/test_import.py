"""Importing the package and its CLI stays light, and nothing needs scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import august

ROOT = Path(__file__).resolve().parent.parent

# Put before a child interpreter's code: from there on, importing scipy fails.
REFUSE_SCIPY = """
import importlib.abc, sys

class _RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, _RefuseScipy())
"""

# The import alone loads no scipy, not even one it could do without.
_IMPORT = """
import sys

import august, august.cli

print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""

# Then, with scipy refused, every subcommand through august.cli.main at
# sizes of 100 or less, and alternative_mu.
_EVERY_COMMAND = """
import os
from statistics import NormalDist

import numpy as np

from august import AlternativeSpec, alternative_mu

os.chdir(sys.argv[1])
rng = np.random.default_rng(0)
with open("d.csv", "w") as fh:
    fh.writelines(f"{v},a\\n" for v in rng.normal(size=40))
    fh.writelines(f"{v},b\\n" for v in rng.normal(0.5, 1.0, size=45))
with open("m.csv", "w") as fh:
    fh.writelines(f"{a},{b},a\\n" for a, b in rng.normal(size=(40, 2)))
    fh.writelines(f"{a},{b},b\\n" for a, b in rng.normal(0.5, 1.0, size=(45, 2)))
cache = ["--sims", "100", "--cache-dir", "cache"]
for argv in (
    ["test", "d.csv", "--depth", "1", *cache],
    ["test", "d.csv", "--depth", "1", *cache],
    ["test", "d.csv", "--pvalue-method", "asymptotic"],
    ["test-multi", "m.csv", "--permutations", "100"],
    ["interpret", "d.csv", "--reference", "x"],
    ["null-table", "--m", "20", "--n", "20", "--depth", "1", *cache],
    ["power", "--families", "normal-location", "--params", "0.5",
     "--tests", "august,ks,energy", "--m", "32", "--n", "32", "--reps", "100",
     "--permutations", "100", *cache],
    ["power", "--families", "mvn-location", "--params", "1.5", "--m", "32",
     "--n", "32", "--reps", "100", "--permutations", "100"],
):
    assert august.cli.main(argv) == 0, argv
normal = NormalDist()
mu = alternative_mu(AlternativeSpec(normal.cdf, NormalDist(mu=0.3).cdf,
                                    normal.inv_cdf), 3)
assert mu.shape == (14,) and np.isfinite(mu).all()
"""


def test_import_loads_no_scipy(tmp_path):
    # scipy costs about 0.3 s of a cold start, and the package runs on
    # numpy alone.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT + REFUSE_SCIPY + _EVERY_COMMAND, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "[]"


def test_package_metadata():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    test_extra = [dep.split(">")[0] for dep in project["optional-dependencies"]["test"]]
    assert sorted(test_extra) == ["pytest", "scipy"]
    assert project["version"] == august.__version__
