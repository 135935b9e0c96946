"""``tools/traffic.py`` on one ``present`` command, in this process."""

import importlib.util
import sys
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
