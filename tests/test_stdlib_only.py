"""The package imports nothing outside the standard library.

numpy, scipy and sympy may well be installed where the tests run, so an
accidental import of one would pass every other test there; this guard
reads the imports themselves, with ``ast``, and accepts only
``sys.stdlib_module_names``, the package itself and relative imports."""

import ast
import sys
from pathlib import Path

import qcblowup

SRC = Path(qcblowup.__file__).resolve().parent


def imported_packages(tree):
    """The top-level package of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def outside_imports(paths):
    return sorted(
        (path.name, package)
        for path in paths
        for package in imported_packages(ast.parse(path.read_text()))
        if package not in sys.stdlib_module_names and package != "qcblowup"
    )


def test_every_package_module_imports_the_standard_library_only():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    assert outside_imports(paths) == []


def test_the_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os, numpy.linalg as la\nfrom . import poly\n"
        "from sympy import Matrix\ndef f():\n    import scipy\n"
    )
    found = outside_imports([module])
    assert found == [("mod.py", "numpy"), ("mod.py", "scipy"), ("mod.py", "sympy")]
