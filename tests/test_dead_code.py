"""Every function, method and class defined in the package is used.

A definition in ``src/qcblowup`` passes when its name is referenced
somewhere in the package outside its own body, is exported in
``qcblowup.__all__``, is a dunder (called by the language), or is a name
the benchmark tracer patches (``perfbench/tracer.py`` ``TARGETS``, read as
``test_tracer_targets`` reads it).  What only the tests call belongs in the
tests, as an oracle or a helper.
"""

import ast
from pathlib import Path

import qcblowup

from test_tracer_targets import load_targets

SRC = Path(qcblowup.__file__).resolve().parent


def definitions_and_references(trees):
    """The (module, first line, last line, name) of every definition, and
    where each name is referenced, as a bare name or an attribute:
    ``{name: [(module, line), ...]}``."""
    defined = []
    references = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.end_lineno, node.name))
            elif isinstance(node, ast.Name):
                references.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append((module, node.lineno))
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
