"""Every function, method and class defined in the package is used.

A definition in ``src/qcblowup`` passes when its name is referenced
somewhere in the package outside its own body (a bare name counts unless it
is an argument or a local variable of the function it appears in), is
exported in ``qcblowup.__all__``, is a dunder (called by the language), or
is a name the benchmark tracer patches (``perfbench/tracer.py``
``TARGETS``, read as ``test_tracer_targets`` reads it).  What only the
tests call belongs in the tests, as an oracle or a helper.
"""

import ast
from pathlib import Path

import pytest

import qcblowup

from test_tracer_targets import load_targets

SRC = Path(qcblowup.__file__).resolve().parent


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_names(scope):
    """The arguments of a function or lambda and the names it assigns
    itself (not those of the functions nested in it)."""
    args = scope.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    names = {arg.arg for arg in every if arg}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (*SCOPES, ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def definitions_and_references(trees):
    """The (module, first line, last line, name) of every definition, and
    where each name is referenced, as a bare name or an attribute:
    ``{name: [(module, line), ...]}``.  A bare name that is an argument or a
    local variable of an enclosing function refers to that, so it is no
    reference to a definition."""
    defined = []
    references = {}

    def visit(node, module, local):
        if isinstance(node, SCOPES):
            local = local | bound_names(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((module, node.lineno, node.end_lineno, node.name))
        elif isinstance(node, ast.Name) and node.id not in local:
            references.setdefault(node.id, []).append((module, node.lineno))
        elif isinstance(node, ast.Attribute):
            references.setdefault(node.attr, []).append((module, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, local)

    for module, tree in trees.items():
        visit(tree, module, frozenset())
    return defined, references


def unused_definitions(trees, exported, traced):
    """The definitions that pass none of the module docstring's tests; a
    reference inside the definition's own body (a recursive call) does not
    count."""
    defined, references = definitions_and_references(trees)
    unused = []
    for module, start, end, name in defined:
        if name in exported or name in traced:
            continue
        if name.startswith("__") and name.endswith("__"):
            continue
        if any(
            where != module or not start <= line <= end
            for where, line in references.get(name, ())
        ):
            continue
        unused.append(f"{module}:{start} {name}")
    return unused


def package_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def traced_names():
    return {
        name for _, _, attr, member, _ in load_targets() for name in (attr, member) if name
    }


def test_every_definition_is_used():
    assert unused_definitions(package_trees(), set(qcblowup.__all__), traced_names()) == []


def test_the_guard_flags_a_helper_without_a_caller():
    trees = package_trees()
    source = (SRC / "quantum.py").read_text()
    trees["quantum.py"] = ast.parse(
        source + "\n\ndef _orphan(x):\n    return _orphan(x - 1) if x else 0\n"
    )
    unused = unused_definitions(trees, set(qcblowup.__all__), traced_names())
    assert [entry.split(" ")[1] for entry in unused] == ["_orphan"]


@pytest.mark.parametrize("user", [
    "def _user(x):\n    _orphan = x + 1\n    return _orphan\n",
    "def _user(_orphan):\n    return _orphan + 1\n",
    "def _user(xs):\n    return [_orphan for _orphan in xs]\n",
], ids=["local", "argument", "comprehension"])
def test_the_guard_flags_a_helper_whose_name_is_only_a_local_elsewhere(user):
    trees = package_trees()
    source = (SRC / "quantum.py").read_text()
    trees["quantum.py"] = ast.parse(
        source + "\n\ndef _orphan(x):\n    return x\n\n\n" + user + "\n\n_user(1)\n"
    )
    unused = unused_definitions(trees, set(qcblowup.__all__), traced_names())
    assert [entry.split(" ")[1] for entry in unused] == ["_orphan"]
