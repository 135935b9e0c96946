"""``tools/traffic.py`` on one ``present`` command, in this process, and on
two workloads, each in a process of its own."""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from test_stdlib_only import outside_imports

_PATH = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
_SPEC = importlib.util.spec_from_file_location("traffic", _PATH)
traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic)


def test_the_report_counts_the_command_and_lists_what_it_never_calls(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert traffic.main(["--", "present", "--m", "6", "--p", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["command", "1", "cli.main"] in lines
    assert ["uncalled", "-", "quantum.quantum_product"] in lines
    assert {len(line) for line in lines} == {3} and sys.getprofile() is None
    called = {function for name, _, function in lines if name == "command"}
    uncalled = {function for name, _, function in lines if name == "uncalled"}
    assert called.isdisjoint(uncalled)
    assert called | uncalled == set(traffic.package_functions())


def test_the_tool_imports_the_standard_library_only():
    assert outside_imports([_PATH]) == []


def _workload(name):
    out = subprocess.run(
        [sys.executable, str(_PATH), "--workload", name, "--seed", "1"],
        check=True, capture_output=True, text=True, timeout=300,
    ).stdout
    return json.loads(out)


def test_only_the_verify_workload_loads_the_suites():
    # the modules each workload's process held at its end: the suites and
    # their report are compiled by verify-grid only
    grid, session = _workload("verify-grid"), _workload("gw-session")
    for name in ("qcblowup.suites", "qcblowup.report"):
        assert name in grid["modules"] and name not in session["modules"], name
    assert "qcblowup.quantum" in session["modules"] and "qcblowup.cli" in grid["modules"]
    assert grid["calls"]["suites.verify"] == 1 and session["calls"]["quantum.gw_invariant"]
    lines = [line.split() for line in traffic.report(
        {"verify-grid": Counter(grid["calls"])}, {"verify-grid": grid["modules"]}
    ).splitlines()]
    loaded = [module for name, n, module in lines if n == "loaded"]
    assert loaded == grid["modules"] and lines[-len(loaded):] == [
        ["verify-grid", "loaded", module] for module in loaded]
