import importlib
import inspect
import re
from pathlib import Path

import pytest

import fracbk

README = Path(__file__).resolve().parents[1] / "README.md"


def _overview_rows():
    """(module name, contents cell) for each row of the README's Library overview table."""
    section = README.read_text().split("## Library overview", 1)[1]
    rows = re.findall(r"^\| `(fracbk\.\w+)` \| (.*) \|$", section.split("\n## ", 1)[0], re.MULTILINE)
    assert rows
    return rows


PUBLIC_FUNCTIONS = [name for name in fracbk.__all__ if inspect.isfunction(getattr(fracbk, name))]


def test_public_functions_found():
    assert len(PUBLIC_FUNCTIONS) > 30


@pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
def test_every_public_function_has_a_docstring(name):
    assert (getattr(fracbk, name).__doc__ or "").strip()


def test_readme_overview_names_resolve():
    for module_name, contents in _overview_rows():
        module = importlib.import_module(module_name)
        names = [span for span in re.findall(r"`([^`]+)`", contents) if span.isidentifier()]
        assert [name for name in names if not hasattr(module, name)] == [], module_name

