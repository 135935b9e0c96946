"""Command-line interface: output formats, exit codes, determinism."""

import json

from qcblowup import Polynomial, blowup_variables
from qcblowup.cli import main
from qcblowup.report import CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


# -- present ---------------------------------------------------------------------


def test_present_quantum_blowup_at_unit_parameters(capsys):
    code, doc = run_json(
        capsys, "present", "--m", "4", "--p", "0", "--coords", "blowup",
        "--quantum", "--at-q-one",
    )
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["relations"] == [
        "k^4 - 4*k^3*eta + 6*k^2*eta^2 - 4*k*eta^3 + eta^4 - eta",
        "k*eta - 1",
    ]
    assert doc["payload"]["rank"] == 8


def test_present_classical_bundle(capsys):
    code, doc = run_json(capsys, "present", "--m", "4", "--p", "0", "--coords", "bundle")
    assert code == 0
    assert doc["payload"]["relations"] == ["h^4", "xi^2 - 3*h*xi + 2*h^2"]


def test_present_out_of_range_warns_but_succeeds(capsys):
    code, doc = run_json(capsys, "present", "--m", "5", "--p", "1", "--quantum")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["in_range"] is False
    assert doc["payload"]["certified"] is False
    assert any("2p+3" in w for w in doc["payload"]["warnings"])
    code, doc = run_json(capsys, "present", "--m", "5", "--p", "1")
    assert code == 0
    assert doc["payload"]["certified"] is True
    assert doc["payload"]["warnings"] == []


def test_present_relations_round_trip_through_parser(capsys):
    code, doc = run_json(
        capsys, "present", "--m", "8", "--p", "1", "--coords", "blowup", "--quantum"
    )
    assert code == 0
    kv = blowup_variables(3, 6)
    for text in doc["payload"]["relations"] + list(doc["payload"]["staircase"]):
        assert Polynomial.parse(kv, text).render() == text


def test_at_q_one_requires_quantum(capsys):
    code, out = run(capsys, "present", "--m", "4", "--p", "0", "--at-q-one")
    assert code == 2


def test_bad_parameters_exit_2(capsys):
    code, doc = run_json(capsys, "present", "--m", "3", "--p", "2")
    assert code == 2
    assert doc["status"] == "usage-error"


# -- gw --------------------------------------------------------------------------


def test_gw_fiber_line(capsys):
    code, doc = run_json(
        capsys, "gw", "--m", "4", "--p", "0", "--class", "1,0",
        "--alpha", "xi", "--beta", "xi", "--gamma", "h^3*xi",
    )
    assert code == 0
    assert doc["payload"]["value"] == 1
    assert doc["payload"]["d"] == 0
    assert doc["payload"]["admissible"] is True
    assert doc["payload"]["reason"] is None


def test_gw_exceptional_line(capsys):
    code, doc = run_json(
        capsys, "gw", "--m", "4", "--p", "0", "--class", "0,1",
        "--alpha", "h", "--beta", "h^3", "--gamma", "h^3",
    )
    assert code == 0
    assert doc["payload"]["value"] == 1


def test_gw_degree_cutoff(capsys):
    code, doc = run_json(
        capsys, "gw", "--m", "4", "--p", "0", "--class", "2,0",
        "--alpha", "h", "--beta", "h", "--gamma", "h",
    )
    assert code == 0
    assert doc["payload"]["value"] == 0
    assert doc["payload"]["reason"] == "degree"


def test_gw_parse_failure_exit_2(capsys):
    code, doc = run_json(
        capsys, "gw", "--m", "4", "--p", "0", "--class", "1,0",
        "--alpha", "2h", "--beta", "xi", "--gamma", "h",
    )
    assert code == 2
    assert doc["status"] == "usage-error"


def test_gw_bad_curve_class_exit_2(capsys):
    code, _ = run(
        capsys, "gw", "--m", "4", "--p", "0", "--class", "1;0",
        "--alpha", "xi", "--beta", "xi", "--gamma", "h",
    )
    assert code == 2


# -- integrate -------------------------------------------------------------------


def test_integrate_with_oracle_column(capsys):
    code, doc = run_json(capsys, "integrate", "--m", "4", "--p", "0", "--class", "xi^4")
    assert code == 0
    assert doc["payload"] == {
        "class": "xi^4",
        "groebner": "15",
        "oracle": "15",
        "equal": True,
    }


def test_integrate_normalization(capsys):
    code, doc = run_json(capsys, "integrate", "--m", "4", "--p", "0", "--class", "h^3*xi")
    assert code == 0
    assert doc["payload"]["groebner"] == "1" and doc["payload"]["oracle"] == "1"


def test_integrate_81(capsys):
    code, doc = run_json(capsys, "integrate", "--m", "8", "--p", "1", "--class", "h^5*xi^3")
    assert code == 0
    assert doc["payload"]["groebner"] == doc["payload"]["oracle"] == "4"


def test_integrate_off_degree_class_is_zero(capsys):
    code, doc = run_json(capsys, "integrate", "--m", "4", "--p", "0", "--class", "xi^12800")
    assert code == 0
    assert doc["payload"]["groebner"] == doc["payload"]["oracle"] == "0"


def test_integrate_rejects_parameters(capsys):
    code, _ = run(capsys, "integrate", "--m", "4", "--p", "0", "--class", "h*q1")
    assert code == 2


# -- basis -----------------------------------------------------------------------


def test_basis_lists_staircase_and_pairing(capsys):
    code, doc = run_json(capsys, "basis", "--m", "4", "--p", "0", "--coords", "bundle")
    assert code == 0
    assert doc["payload"]["rank"] == 8
    assert doc["payload"]["staircase"][0] == "1"
    matrix = doc["payload"]["pairing_matrix"]
    assert len(matrix) == 8 and all(len(row) == 8 for row in matrix)


def test_basis_quantum_has_no_pairing(capsys):
    code, doc = run_json(capsys, "basis", "--m", "4", "--p", "0", "--quantum")
    assert code == 0
    assert doc["payload"]["pairing_matrix"] is None


# -- verify ----------------------------------------------------------------------


def test_verify_single_instance(capsys):
    code, doc = run_json(capsys, "verify", "--m", "4", "--p", "0")
    assert code == 0
    assert doc["payload"]["ok"] is True
    names = {c["name"] for c in doc["payload"]["instances"][0]["checks"]}
    assert "pairing_unimodular" in names
    assert "fiber_point_count" in names
    assert "unit_parameter_relations" in names


def test_verify_out_of_range_skips_quantum(capsys):
    code, doc = run_json(capsys, "verify", "--m", "5", "--p", "1")
    assert code == 0
    checks = doc["payload"]["instances"][0]["checks"]
    skipped = [c for c in checks if c["skipped"]]
    assert any(c["name"] == "quantum_suite" for c in skipped)
    assert all(c["passed"] for c in checks)


def test_verify_grid_marks_invalid_combinations(capsys):
    code, doc = run_json(
        capsys, "verify", "--grid-m", "4..5", "--grid-p", "2..3", "--b-max", "1"
    )
    assert code == 0
    instances = {(i["m"], i["p"]): i for i in doc["payload"]["instances"]}
    assert instances[(4, 3)]["checks"][0]["name"] == "parameters_valid"
    assert instances[(4, 3)]["checks"][0]["skipped"] is True
    assert instances[(4, 2)]["ok"] and instances[(5, 2)]["ok"]


def test_verify_invalid_single_instance_is_a_usage_error(capsys):
    code, doc = run_json(capsys, "verify", "--m", "4", "--p", "9")
    assert code == 2
    assert doc["status"] == "usage-error"
    assert "0 <= p <= m-2" in doc["payload"]["error"]


def test_verify_rejects_bounds_below_one_before_any_instance(capsys):
    for argv in (
        ("--m", "4", "--p", "1", "--b-max", "0"),
        ("--m", "4", "--p", "0", "--grid-bound", "0"),
        ("--grid-m", "4..5", "--grid-p", "3..4", "--b-max", "-1"),
    ):
        code, doc = run_json(capsys, "verify", *argv)
        assert code == 2
        assert "must be at least 1" in doc["payload"]["error"]


def test_verify_grid_without_a_valid_pair_is_a_usage_error(capsys, monkeypatch):
    from qcblowup import cli

    ran = []
    monkeypatch.setattr(cli, "_verify_instance", lambda *a: ran.append(a))
    code, doc = run_json(capsys, "verify", "--grid-m", "2..3", "--grid-p", "4..5")
    assert code == 2
    assert doc["status"] == "usage-error"
    assert "no valid (m, p) pair" in doc["payload"]["error"]
    assert ran == []


def test_verify_reversed_grid_is_a_usage_error(capsys):
    code, doc = run_json(capsys, "verify", "--grid-m", "12..4", "--grid-p", "0..3")
    assert code == 2
    assert doc["status"] == "usage-error"
    assert "empty range" in doc["payload"]["error"]


def test_gw_blowup_reports_degree_bookkeeping(capsys):
    code, doc = run_json(
        capsys, "gw", "--m", "6", "--p", "1", "--coords", "blowup", "--class", "1,0",
        "--alpha", "k", "--beta", "k*eta^4", "--gamma", "k^3",
    )
    assert code == 0
    assert doc["payload"]["value"] == -1
    assert (doc["payload"]["d"], doc["payload"]["admissible"]) == (3, True)


def test_verify_requires_instance_or_grid(capsys):
    code, _ = run(capsys, "verify")
    assert code == 2


def test_verify_exit_1_on_failure(capsys, monkeypatch):
    from qcblowup import cli

    failing = CheckReport()
    failing.add("synthetic", False, "forced failure")
    monkeypatch.setattr(cli.geometry, "verify_classical_geometry", lambda *a, **k: failing)
    code, doc = run_json(capsys, "verify", "--m", "4", "--p", "0")
    assert code == 1
    assert doc["status"] == "check-failed"


# -- global behaviour --------------------------------------------------------------


def test_json_output_is_deterministic(capsys):
    _, first = run(capsys, "verify", "--m", "4", "--p", "0", "--json")
    _, second = run(capsys, "verify", "--m", "4", "--p", "0", "--json")
    assert first == second


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("QC_MAX_DEGREE", "4")
    code, doc = run_json(capsys, "present", "--m", "4", "--p", "0", "--coords", "blowup")
    assert code == 1
    assert doc["status"] == "check-failed"
    monkeypatch.setenv("QC_MAX_DEGREE", "not-a-number")
    code, _ = run(capsys, "present", "--m", "4", "--p", "0")
    assert code == 2


def test_verify_budget_env_variable(capsys, monkeypatch):
    for raw in ("abc", "0"):
        monkeypatch.setenv("QC_MAX_DEGREE", raw)
        code, doc = run_json(capsys, "verify", "--m", "6", "--p", "1")
        assert code == 2
        assert doc["status"] == "usage-error"
    monkeypatch.setenv("QC_MAX_DEGREE", "3")
    for argv in (("--m", "6", "--p", "1"), ("--grid-m", "4..6", "--grid-p", "0..1")):
        code, doc = run_json(capsys, "verify", *argv)
        assert code == 1
        assert doc["status"] == "check-failed"
        assert "exceeds budget 3" in doc["payload"]["error"]


def test_verify_builds_each_presentation_once_without_a_budget(capsys, monkeypatch):
    from qcblowup.geometry import _presentation

    monkeypatch.delenv("QC_MAX_DEGREE", raising=False)
    _presentation.cache_clear()
    code, _ = run(capsys, "verify", "--m", "6", "--p", "1")
    assert code == 0
    assert _presentation.cache_info().misses == 4
    monkeypatch.setenv("QC_MAX_DEGREE", "200")
    code, doc = run_json(capsys, "verify", "--m", "6", "--p", "1")
    assert code == 0
    assert doc["payload"]["ok"]


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
