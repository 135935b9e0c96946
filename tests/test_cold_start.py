"""What a one-shot process imports.

Every command runs in a fresh interpreter, and without cached bytecode each
module is compiled again on every start, so the package keeps the import of
``qcblowup.cli`` free of ``dataclasses`` (which pulls in ``inspect``, ``ast``
and ``dis``), loads ``qcblowup.quantum`` only in the commands that
multiply in the deformed ring, and loads the verification suites
(``qcblowup.suites``, with ``qcblowup.report``) in ``verify`` only.  Both
presentations are built in ``qcblowup.geometry``, so showing the deformed
ring multiplies nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcblowup

SRC = str(Path(__file__).resolve().parents[1] / "src")

# sorted(qcblowup.__all__) as the package exported it when every submodule
# was imported eagerly
EXPORTS = [
    "BLOWUP", "BLOWUP_TO_BUNDLE", "BUNDLE", "BUNDLE_TO_BLOWUP", "BudgetError",
    "CheckEntry", "CheckFailure", "CheckReport", "CurveClass",
    "EXCEPTIONAL_LINE", "FIBER_LINE", "GWQuery", "GeometryParams", "GroebnerBasis",
    "Ideal", "ParseError", "Polynomial", "Presentation", "QuotientRing", "Scalar",
    "StructuralError", "UsageError", "VariableSet", "anticanonical_class",
    "basis_corrections", "blowup_variables", "buchberger", "bundle_variables",
    "change_vars", "chern_coefficients", "class_representative",
    "classical_presentation", "classical_relations", "contribution_by_class",
    "curve_dual", "derive_params", "fano_positivity_check", "gw_invariant",
    "ideal_equal", "integrate", "moduli_dimension_identities", "normal_form",
    "oracle_integrate", "pair_divisor_curve", "pairing_matrix",
    "quantum_presentation", "quantum_product", "quantum_relations",
    "segre_integral_oracle", "staircase_basis", "variables_for",
    "verify_classical_geometry", "verify_gw_identities",
    "verify_quantum_presentation", "virtual_dimension",
]

# Runs in a fresh interpreter: import the CLI, optionally run one command
# with its output discarded, and print the modules each step loaded.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import qcblowup.cli
imported = set(sys.modules) - before
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qcblowup.cli.main(sys.argv[1:])
print(json.dumps({"imported": sorted(imported), "after": sorted(sys.modules), "code": code}))
"""


def run_python(code, *argv):
    """The standard output of ``code`` run in a fresh interpreter on this
    checkout's ``src``, without a degree budget."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("QC_MAX_DEGREE", None)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, check=True,
        text=True, timeout=120,
    ).stdout


def probe(*argv):
    return json.loads(run_python(PROBE, *argv))


def test_importing_the_cli_loads_no_dataclasses_inspect_or_quantum():
    imported = probe()["imported"]
    assert "qcblowup.cli" in imported and "qcblowup.geometry" in imported
    for name in ("dataclasses", "inspect", "qcblowup.quantum", "qcblowup.suites",
                 "qcblowup.report"):
        assert name not in imported, name


@pytest.mark.parametrize("command, loads_quantum", [
    ("present --m 6 --p 1", False),
    ("present --m 6 --p 1 --coords bundle", False),
    ("integrate --m 6 --p 1 --class h^4*xi^2", False),
    ("basis --m 6 --p 1", False),
    ("present --m 6 --p 1 --quantum", False),
    ("basis --m 6 --p 1 --quantum", False),
    ("gw --m 6 --p 1 --class 1,0 --alpha xi --beta xi --gamma h^4*xi", True),
    ("verify --m 6 --p 1", True),
])
def test_commands_load_quantum_only_when_they_use_it(command, loads_quantum):
    result = probe(*command.split())
    assert result["code"] == 0
    assert ("qcblowup.quantum" in result["after"]) == loads_quantum
    assert "dataclasses" not in result["after"]
    for name in ("qcblowup.suites", "qcblowup.report"):
        assert (name in result["after"]) == command.startswith("verify"), name


def test_an_invariant_loads_no_suite():
    # the gw-session client's import and one query: the suites and their
    # report stay uncompiled
    out = run_python(
        "import sys\n"
        "import qcblowup.cli\n"
        "from qcblowup import CurveClass, GWQuery, Polynomial, derive_params, gw_invariant\n"
        "from qcblowup import quantum_presentation\n"
        "qp = quantum_presentation(derive_params(8, 1), 'bundle')\n"
        "xi, h = (Polynomial.variable(qp.variables, name) for name in ('xi', 'h'))\n"
        "print(gw_invariant(GWQuery(CurveClass(1, 0), xi, xi**2, h**6 * xi**2), qp),\n"
        "      *(name in sys.modules for name in ('qcblowup.suites', 'qcblowup.report')))\n"
    )
    assert out.split() == ["1", "False", "False"]


def test_the_deformed_presentation_loads_no_quantum_module():
    out = run_python(
        "import sys\n"
        "from qcblowup import quantum_presentation\n"
        "print(quantum_presentation.__module__, 'qcblowup.quantum' in sys.modules)\n"
    )
    assert out.split() == ["qcblowup.geometry", "False"]


def test_the_package_exports_the_recorded_names():
    assert sorted(qcblowup.__all__) == EXPORTS
    assert sorted(set(dir(qcblowup)) & set(EXPORTS)) == EXPORTS


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qcblowup import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(qcblowup, name), name
