"""Every function the benchmark tracer wraps still exists where it looks.

``perfbench/tracer.py`` patches the names listed in its ``TARGETS`` table;
a refactor that moves or renames one of them silently drops a per-layer
metric.  The table is read from the file.  The tracer is installed only
in a fresh interpreter, to check that it sees the verification suites and
leaves no wrapper behind.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(target):
    _, modname, attr, member, kind = target
    owner = getattr(importlib.import_module(modname), attr)
    assert callable(owner)
    if member is not None:
        assert member in vars(owner)
    assert kind in ("self", "incl")


# Runs in a fresh interpreter, so that the suites are first imported while
# the tracer is installed: install, verify one instance, uninstall, verify
# another, and print the calls of the first run and the spans of both.
TRACED_VERIFY = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from qcblowup.cli import main
tracer = tracer_module.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "--m", "6", "--p", "1"])]
    tracer.uninstall()
    spans = len(tracer.start)
    codes.append(main(["verify", "--m", "7", "--p", "1"]))
calls = {k: v for k, v in tracer.layer_metrics().items() if k.endswith(".calls")}
print(json.dumps({"codes": codes, "calls": calls, "spans": [spans, len(tracer.start)]}))
"""


def test_the_tracer_sees_the_suites_and_only_while_installed():
    # the suites reach every traced function through its module, so the
    # tracer counts them on their first import, and leaves them unwrapped
    path = [str(TRACER.parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("QC_MAX_DEGREE", None)
    out = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, str(TRACER)], env=env, capture_output=True,
        check=True, text=True, timeout=120,
    ).stdout
    result = json.loads(out)
    assert result["codes"] == [0, 0]
    calls = result["calls"]
    for suite in ("geometry.verify_classical_geometry", "quantum.verify_gw_identities",
                  "quantum.verify_quantum_presentation"):
        assert calls[f"{suite}.calls"] == 1, suite
    assert calls["quantum.gw_invariant.calls"] > 0
    assert calls["geometry.integrate.calls"] > 0
    before, after = result["spans"]
    assert before > 0 and after == before
