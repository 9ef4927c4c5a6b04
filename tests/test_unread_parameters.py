"""Every parameter of a public function or method is read.

A parameter the body never reads is accepted from every caller and then
ignored, as a setting no run reads would be.  The scan covers the
module-level functions of ``src/qlapeig`` and the methods of its module-level
classes whose names do not start with an underscore, so dunders such as
``__post_init__`` are left out, and so are the closures nested in a body
(label maps, predicates), whose signatures the simulator fixes.  A parameter
counts as read when its name is loaded anywhere in the body, nested closures
included, except in its own rebinding: the load in ``p = p or Default()`` or
``p += 1`` only feeds ``p`` back to itself, so a parameter loaded nowhere
else is unread.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qlapeig"
FILES = sorted(SRC.glob("*.py"))


def public_functions(tree):
    """(qualified name, def node) for each public module-level function and
    each public method of a public module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, defs + (ast.ClassDef,)) or node.name.startswith("_"):
            continue
        if isinstance(node, defs):
            yield node.name, node
        else:
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unread_parameters(fn):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    rebinding = set()  # the loads of a name inside an assignment back to it
    for stmt in fn.body:
        for node in ast.walk(stmt):
            targets = rebound_names(node)
            if targets and node.value is not None:
                rebinding.update(id(load) for load in ast.walk(node.value)
                                 if isinstance(load, ast.Name) and load.id in targets)
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and id(node) not in rebinding}
    return [p for p in params if p not in read and p not in ("self", "cls")]


def rebound_names(node):
    """The plain names an assignment statement binds; empty for any other
    node.  ``p += 1`` binds p from its own load."""
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if (isinstance(node, (ast.AnnAssign, ast.AugAssign))
            and isinstance(node.target, ast.Name)):
        return {node.target.id}
    return set()


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_public_parameters_are_read(path):
    tree = ast.parse(path.read_text())
    unread = [f"{name}({param})" for name, fn in public_functions(tree)
              for param in unread_parameters(fn)]
    assert unread == [], f"qlapeig.{path.stem}: parameters no body reads"
