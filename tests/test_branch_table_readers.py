"""Only the simulator reads its branch table.

A ``SimState`` keeps its amplitudes in a branch table (``amps``, ``keys``,
``split``, and the ``branches`` view of them), whose layout the simulator
may change.  The state-preparation builds act on a state only through its
gates and reads: amplitude amplification takes the flagged weight from the
projection that post-selects it, and ``label_free_row`` hands over the
amplitudes of a joined, label-free state.  So this scan fails when
``stateprep.py`` touches one of the table's attributes other than as a
method call (``d.keys()`` is a dict's), or when any module of
``src/qlapeig``, ``demos/`` or ``perfbench/`` calls ``set_branch``, which
wrote a row from outside.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STATEPREP = ROOT / "src" / "qlapeig" / "stateprep.py"
MODULES = (sorted((ROOT / "src" / "qlapeig").glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))
TABLE = {"amps", "branches", "keys", "split"}


def table_reads(tree):
    """(line, attribute) of every access to a table attribute that is not
    the function of a call."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in TABLE
                  and id(node) not in called)


def set_branch_calls(tree):
    """Line numbers of the calls to ``set_branch``, as a method or a name."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ((isinstance(func, ast.Attribute) and func.attr == "set_branch")
                or (isinstance(func, ast.Name) and func.id == "set_branch")):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scans_find_every_spelling():
    source = ("a = state.amps[0]\nfor v in state.branches.values():\n    pass\n"
              "k = state.keys\ns = state.split\nd = table.keys()\n"
              "w = text.split(',')\nstate.set_branch(key, vec)\nset_branch(key, vec)\n")
    tree = ast.parse(source)
    assert table_reads(tree) == [(1, "amps"), (2, "branches"), (4, "keys"),
                                 (5, "split")]
    assert set_branch_calls(tree) == [8, 9]


def test_stateprep_reads_no_branch_table():
    reads = table_reads(ast.parse(STATEPREP.read_text()))
    assert reads == [], f"qlapeig.stateprep reads the branch table at {reads}"


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{path.parent.name}/{path.stem}" for path in MODULES])
def test_no_module_calls_set_branch(path):
    lines = set_branch_calls(ast.parse(path.read_text()))
    assert lines == [], f"{path.name} calls set_branch at lines {lines}"
