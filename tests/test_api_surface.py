"""Every public name has a caller outside the tests.

A name in a module's ``__all__`` must be referenced in ``src/``, ``demos/``
or ``perfbench/tracer.py`` somewhere other than its own definition, its
``__all__`` entry and import statements.  Otherwise the tests exercise code
the pipelines never run.  The tracer looks names up by string (``"project"``
or ``"SimState.project"``), so its string constants count as references.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qlapeig

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = [info.name for info in pkgutil.iter_modules(qlapeig.__path__)]


@pytest.fixture(scope="module")
def references():
    """(name, file, top-level definition it sits in) for every name read or
    attribute accessed; import statements hold aliases, not Name nodes, and so
    do not count."""
    refs = set()
    for path in SOURCES + [TRACER]:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add((node.id, path, owner))
                elif isinstance(node, ast.Attribute):
                    refs.add((node.attr, path, owner))
                elif (path == TRACER and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    for part in node.value.split("."):
                        refs.add((part, path, owner))
    return refs


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_a_caller(references, module):
    mod = importlib.import_module(f"qlapeig.{module}")
    home = Path(mod.__file__).resolve()
    unused = [name for name in getattr(mod, "__all__", ())
              if not any(ref == name and not (path == home and owner == name)
                         for ref, path, owner in references)]
    assert unused == [], f"qlapeig.{module} exports names only tests call"
