"""Every function the benchmark tracer wraps still exists where it looks.

``perfbench/tracer.py`` patches the names listed in its ``TARGETS`` table;
a refactor that moves or renames one of them silently drops a per-layer
metric.  The table is read from the file; the tracer is never installed.
"""

import importlib
import importlib.util
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
