"""README's module map names only what each module has."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# A module-map row: | `august.X` | contents |
_ROW = re.compile(r"^\|\s*`(august\.\w+)`\s*\|(.*)\|\s*$")


def _module_rows():
    rows = {}
    for line in README.read_text().splitlines():
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = re.findall(r"`([^`]+)`", match.group(2))
    return rows


def test_module_map_is_found():
    assert len(_module_rows()) >= 8


# In the august.cli row, `august` is the console command, not a name.
@pytest.mark.parametrize("module", sorted(set(_module_rows()) - {"august.cli"}))
def test_module_map_names_resolve(module):
    loaded = importlib.import_module(module)
    names = [token for token in _module_rows()[module] if token.isidentifier()]
    missing = [name for name in names if not hasattr(loaded, name)]
    assert not missing, f"README names {missing} on {module}, which has none"
