"""Only the simulator forms a reduced state from a simulator state.

A state-preparation build hands back its purification, and
``blockenc.purified_density_encoding`` computes the reduced state from it
where a consumer reads it.  A ``partial_trace`` call in any other module of
``src/qlapeig`` would read the same state a second time, so this scan fails
on one, under any name it is imported as.  ``sim.py`` defines the function;
the tests and demos call it as the simulator-side reference.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qlapeig"
FILES = [path for path in sorted(SRC.glob("*.py")) if path.name != "sim.py"]


def partial_trace_calls(tree):
    """Line numbers of the calls to ``partial_trace``, by its own name, an
    import alias or an attribute access."""
    names = {"partial_trace"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname for alias in node.names
                         if alias.name == "partial_trace" and alias.asname)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ((isinstance(func, ast.Name) and func.id in names)
                or (isinstance(func, ast.Attribute) and func.attr == "partial_trace")):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_every_spelling():
    source = ("from .sim import partial_trace as pt\nimport qlapeig.sim as sim\n"
              "a = pt(s, ['i'])\nb = sim.partial_trace(s, ['i'])\n"
              "c = partial_trace(s, ['i'])\n")
    assert partial_trace_calls(ast.parse(source)) == [3, 4, 5]


@pytest.mark.parametrize("path", FILES, ids=[path.stem for path in FILES])
def test_only_the_simulator_calls_partial_trace(path):
    lines = partial_trace_calls(ast.parse(path.read_text()))
    assert lines == [], f"qlapeig.{path.stem} calls partial_trace at lines {lines}"
