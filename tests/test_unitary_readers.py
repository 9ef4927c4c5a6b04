"""Only an encoding's own methods read its unitary.

A dense ``BlockEncoding`` carries its unitary matrix, but a consumer of an
encoding reads ``block()`` or runs ``apply``, which every backend answers.
Inside ``src/qlapeig`` the ``unitary`` attribute is read only by the methods
of ``BlockEncoding`` itself: the metered path takes its query, the
dilation of the encoded block, in closed form from the block's spectrum.  A
read anywhere else would tie that code to the dense backend (a combination
materializing its circuit, say), so this scan fails on one, as an attribute
or through ``getattr``.  The tests and ``tests/encoding_reference.py`` read
unitaries as the dense references.

The metered path's preparations P_R and P_L stay ``_householder``
reflections, the one definition ``BlockEncoding.apply`` reflects by, run in
place on the state: a second scan fails if ``simulation``, the metered
path's module, or ``spectral`` refers to ``completion_unitary``, the dense
matrix of such a reflection.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qlapeig"
FILES = sorted(SRC.glob("*.py"))
ALLOWED = {"blockenc": "BlockEncoding"}


def unitary_reads(tree):
    """(line, enclosing definition) of every read of ``.unitary`` or
    ``getattr(..., "unitary")``; the definition is the top-level class or
    function it sits in, "<module>" outside one."""
    reads = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and node.attr == "unitary")
                    or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "getattr" and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)
                        and node.args[1].value == "unitary")):
                reads.append((node.lineno, owner))
    return sorted(reads)


def test_the_scan_finds_every_spelling():
    source = ("u = enc.unitary\nclass E:\n    def f(self):\n        return self.unitary\n"
              "def g(e):\n    def h():\n        return getattr(e, 'unitary')\n"
              "    return h() @ e.unitary[:2]\nv = BlockEncoding(1.0, 1, 0.0, 2, unitary=u)\n")
    assert unitary_reads(ast.parse(source)) == [(1, "<module>"), (4, "E"), (7, "g"),
                                                (8, "g")]


@pytest.mark.parametrize("path", FILES, ids=[path.stem for path in FILES])
def test_only_the_encoding_and_the_metered_path_read_a_unitary(path):
    reads = [(line, owner) for line, owner in unitary_reads(ast.parse(path.read_text()))
             if owner != ALLOWED.get(path.stem)]
    assert reads == [], f"qlapeig.{path.stem} reads an encoding's unitary at {reads}"


def uses_of(tree, name):
    """Lines where ``name`` is referred to, as a name or an attribute, or
    imported."""
    lines = []
    for node in ast.walk(tree):
        if (getattr(node, "id", None) == name or getattr(node, "attr", None) == name
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == name for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_use_scan_finds_every_spelling():
    source = ("from .stateprep import (PrepConfig,\n    completion_unitary as cu)\n"
              "a = completion_unitary(v)\nb = stateprep.completion_unitary(v)\n"
              "c = completion_unitary\n")
    assert uses_of(ast.parse(source), "completion_unitary") == [1, 3, 4, 5]


@pytest.mark.parametrize("stem", ["simulation", "spectral"])
def test_the_metered_path_builds_no_dense_preparation(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text())
    assert uses_of(tree, "completion_unitary") == []
