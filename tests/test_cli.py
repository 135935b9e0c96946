"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("command", [
    "integrate --m 4 --p 0 --class 2/0*xi^4",
    "gw --m 4 --p 0 --class 1,0 --alpha 1/0*xi --beta xi --gamma h^3*xi",
])
def test_zero_denominator_is_a_usage_error(capsys, command):
    code, doc = run_json(capsys, *command.split())
    assert code == 2
    assert doc["status"] == "usage-error"
    assert "zero denominator" in doc["payload"]["error"]


@pytest.mark.parametrize("command", [
    "gw --m 4 --p 0 --class 100000,0 --alpha xi^200000 --beta 1 --gamma h^3*xi",
    "gw --m 4 --p 0 --coords blowup --class 4000,0 --alpha k^8000 --beta 1 --gamma k^4",
])
def test_gw_class_above_the_top_degree_is_zero_at_once(capsys, command):
    code, doc = run_json(capsys, *command.split())
    assert code == 0
    payload = doc["payload"]
    assert (payload["value"], payload["d"], payload["admissible"]) == (0, 0, True)


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


def test_integrate_reduces_in_the_budget_built_ring(capsys, monkeypatch):
    # h^201 is over the default budget of 200, so only the ring built under
    # the command's own budget, and stored, can reduce the class
    argv = ("integrate", "--m", "202", "--p", "0", "--class", "h^201*xi")
    monkeypatch.setenv("QC_MAX_DEGREE", "210")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["payload"]["groebner"] == doc["payload"]["oracle"] == "1"


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


def test_verify_refuses_a_single_instance_beside_a_grid(capsys, monkeypatch):
    # --m or --p given with the grid flags is a usage error before any
    # instance runs, not a grid that silently drops the single instance
    from qcblowup import cli

    ran = []
    monkeypatch.setattr(cli, "_verify_instance", lambda *a: ran.append(a))
    for argv in (
        ("--m", "4", "--p", "0", "--grid-m", "5", "--grid-p", "0"),
        ("--m", "4", "--grid-m", "5", "--grid-p", "0"),
        ("--p", "0", "--grid-m", "5", "--grid-p", "0"),
        ("--m", "4", "--p", "0", "--grid-m", "5"),
    ):
        code, doc = run_json(capsys, "verify", *argv)
        assert code == 2, argv
        assert doc["status"] == "usage-error"
        assert doc["payload"]["error"] == "give either --m and --p or --grid-m and --grid-p"
    assert ran == []


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


def test_a_reader_closing_the_pipe_early_is_not_a_failure():
    # about 95 KB of JSON, more than a 64 KB pipe buffer holds, so the
    # command is still writing when the reader stops after one line
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-m", "qcblowup.cli", "basis", "--m", "18", "--p", "5", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


# sha256 of the output bytes, recorded before the product moved onto the
# integer ring model; a change that alters output on purpose records them again.
GOLDEN = [
    ("verify --grid-m 4..6 --grid-p 0..3 --json",
     "1cbc08512cad48ca6241e7c888a8d9a8294d6d988b50fe1ced6d9fb54be7b5bb"),
    # the benchmark's verify grid, whose correction solves reach (10,3)
    ("verify --grid-m 4..10 --grid-p 0..3 --json",
     "3eb6397bd5064de28f9128796da51fb2bb33c5516f29cf48251a372c21ec9011"),
    # the README grid, up to m = 12
    ("verify --grid-m 4..12 --grid-p 0..3 --json",
     "e5aca2e521a3767b9c28416f9bf0cc09e1548bdf7808e612e0aa906364a2d627"),
    ("gw --json --m 8 --p 1 --class 1,0 --alpha xi --beta xi^2 --gamma h^6*xi^2",
     "3165fb93161687b34c18c5d019a3a1dc47c379aa7df3310bcca553d797ba9777"),
    ("gw --json --m 6 --p 1 --coords blowup --class 1,0 --alpha k*eta^4 --beta k^3 --gamma k",
     "2e42fd1081376b8941a5ca65cca732d63be1b04314889c3f03dc0608cb3ee16b"),
    ("gw --json --m 3 --p 1 --class 1,1 --alpha h*xi --beta xi^2 --gamma h",
     "272fc56d586d02191a1f3403787a863b143fc127409b24a56b0cb2a2c3972cca"),
    ("gw --json --m 3 --p 1 --class 1,1 --alpha h*xi --beta h*xi^2 --gamma xi^2",
     "c32cc024b2c4f6d1bbf2e79f9da616c8dc999e75cb03b1250aac04a9b8860132"),
    # recorded before the pairing matrix and the correspondence checks read
    # each ring's own Groebner basis
    ("basis --m 6 --p 1 --coords blowup --json",
     "5cd2330b5fcda96d2c8c939a6ceba7d4b3719f2a2e274decd71690fc4e45e4a4"),
    ("basis --m 8 --p 1 --coords blowup --json",
     "013fcd27394311d22a368a9735dff0b266527441f3fe01e0fe7abf4a23c1c3f4"),
    ("basis --m 11 --p 3 --coords blowup --json",
     "c09afebaab8729eefde46448e11c1b5e967e4c6ccdebe614f5e396f446a3e151"),
    ("basis --m 5 --p 3 --coords blowup --json",
     "4dc75b7401783f4974b1b556e121d8e493212cb56dea7412c493673fe92be211"),
    ("verify --m 11 --p 3 --json",
     "decb6d5825f4d8234aa07f57bcee56cac51e3f9d1c0e97c8c57256839a71204d"),
    # the largest blow-up basis of the benchmark ladder, recorded before the
    # chain criterion and the integer-preserving elimination
    ("basis --m 20 --p 4 --coords blowup --json",
     "d553aa59593d32df4af146bdef7e248786f6b0f989891b59418aa0de1c3359e2"),
    # dense blow-up queries on the two largest rungs of the ladder, whose
    # classes go through the coordinate change and a classical normal form;
    # recorded before the memoised binary forms and the one-pass sums
    ("gw --json --m 16 --p 5 --coords blowup --class 0,1 --alpha k^3-2*k*eta^2"
     " --beta k^6*eta^3+3*eta^9-k^9 --gamma k^7*eta^7-eta^14",
     "e87694c6853cf3493caa56073d308f828ad77ebc39397fa26ffeb36c9340a9cf"),
    ("gw --json --m 20 --p 4 --coords blowup --class 1,1 --alpha k^2*eta^8+eta^10"
     " --beta k^5*eta^10-2*k^15+eta^15 --gamma k^8*eta^8-eta^16",
     "3ff1eb9ac59f12245402b5036d33e942950372b0041f695df2d8204a5e6ef1f4"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_output_bytes_match_the_recorded_digests(capsys, command, digest):
    _, out = run(capsys, *command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("coords, classes", [
    ("blowup", ("k", "eta", "eta^5")),
    ("bundle", ("xi", "h", "h^5")),
])
def test_gw_builds_the_bundle_rings_under_the_budget(capsys, monkeypatch, coords, classes):
    # The bundle rings at (6,4) need intermediate degrees up to 12; the
    # deformed blow-up ring alone stays within 9.
    alpha, beta, gamma = classes
    argv = ("gw", "--m", "6", "--p", "4", "--coords", coords, "--class", "0,1",
            "--alpha", alpha, "--beta", beta, "--gamma", gamma)
    monkeypatch.setenv("QC_MAX_DEGREE", "9")
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["status"] == "check-failed"
    assert doc["payload"]["error"] == "intermediate degree 10 exceeds budget 9"
    monkeypatch.setenv("QC_MAX_DEGREE", "12")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["status"] == "ok"


def test_verify_builds_each_presentation_once_without_a_budget(capsys, monkeypatch):
    from qcblowup.geometry import _rings

    monkeypatch.delenv("QC_MAX_DEGREE", raising=False)
    _rings.clear()
    code, _ = run(capsys, "verify", "--m", "6", "--p", "1")
    assert code == 0
    assert len(_rings) == 4
    monkeypatch.setenv("QC_MAX_DEGREE", "200")
    code, doc = run_json(capsys, "verify", "--m", "6", "--p", "1")
    assert code == 0
    assert doc["payload"]["ok"]


@pytest.mark.parametrize("argv, runs", [
    (("verify", "--m", "8", "--p", "1"), 4),
    (("gw", "--m", "8", "--p", "1", "--coords", "blowup", "--class", "1,0",
      "--alpha", "k", "--beta", "k^2", "--gamma", "k^5*eta^3"), 3),
    (("gw", "--m", "8", "--p", "1", "--class", "1,0",
      "--alpha", "xi", "--beta", "xi^2", "--gamma", "h^6*xi^2"), 2),
])
def test_a_budget_builds_no_second_ring(capsys, monkeypatch, argv, runs):
    # A budgeted request reads the stored ring when that ring's Buchberger
    # run stayed within the budget, so the budget adds no run.
    from qcblowup import geometry

    calls = []
    buchberger = geometry.buchberger
    monkeypatch.setattr(
        geometry, "buchberger", lambda *a, **k: calls.append(1) or buchberger(*a, **k)
    )
    for budget in (None, "40"):
        if budget is None:
            monkeypatch.delenv("QC_MAX_DEGREE", raising=False)
        else:
            monkeypatch.setenv("QC_MAX_DEGREE", budget)
        geometry._rings.clear()
        calls.clear()
        code, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == runs, budget


def test_an_exceeded_budget_fails_on_a_cached_ring(capsys, monkeypatch):
    # the blow-up rings at (8,1) reach intermediate degree 9
    monkeypatch.delenv("QC_MAX_DEGREE", raising=False)
    code, _ = run(capsys, "verify", "--m", "8", "--p", "1")
    assert code == 0
    for budget, error in (("8", "intermediate degree 9 exceeds budget 8"),
                          ("6", "generator degree 7 exceeds budget 6")):
        monkeypatch.setenv("QC_MAX_DEGREE", budget)
        code, doc = run_json(capsys, "verify", "--m", "8", "--p", "1")
        assert code == 1
        assert doc["status"] == "check-failed"
        assert doc["payload"]["error"] == error
    monkeypatch.setenv("QC_MAX_DEGREE", "9")
    code, doc = run_json(capsys, "verify", "--m", "8", "--p", "1")
    assert code == 0 and doc["payload"]["ok"]


def test_a_budget_above_the_default_builds_what_the_default_refuses(capsys, monkeypatch):
    # (k - eta)^202 is over the default budget of 200; the default build
    # fails and the budgeted request builds the ring under its own budget.
    # A ring an earlier test stored under a raised budget would serve the
    # default, so the table starts empty.
    from qcblowup import geometry

    argv = ("present", "--m", "202", "--p", "0")
    geometry._rings.clear()
    monkeypatch.delenv("QC_MAX_DEGREE", raising=False)
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["payload"]["error"] == "generator degree 202 exceeds budget 200"
    monkeypatch.setenv("QC_MAX_DEGREE", "210")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["payload"]["rank"] == 404


@pytest.mark.parametrize("argv, text", [
    (("gw", "--m", "202", "--p", "0", "--class", "1,0",
      "--alpha", "xi", "--beta", "xi", "--gamma", "h^201*xi"),
     "I_(1,0)(xi, xi, h^201*xi) = 1"),
    (("verify", "--m", "201", "--p", "0"), "overall: all checks passed"),
])
def test_every_reader_gets_the_ring_a_raised_budget_admits(capsys, monkeypatch, argv, text):
    # The bundle rings are over the default budget of 200: without a budget
    # the command fails as the prebuild does, and with one the query kernel
    # and the suites read the rings the prebuild stored.
    from qcblowup import geometry

    geometry._rings.clear()
    monkeypatch.delenv("QC_MAX_DEGREE", raising=False)
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.startswith("check failed: generator degree 20") and "exceeds budget 200" in out
    monkeypatch.setenv("QC_MAX_DEGREE", "210")
    code, out = run(capsys, *argv)
    assert code == 0
    assert text in out


def _default_budget_8(monkeypatch):
    """A default degree budget of 8, below the blow-up rings at (8,1), the
    deformed bundle ring at (6,4) and the bundle rings at (10,1), and a
    command budget of 12 above them.  The stored rings, and the kernels and
    corrections keyed by equal rings, are dropped, so each ring is built
    anew and every reader goes to the table for it."""
    from qcblowup import geometry, groebner, quantum

    geometry._rings.clear()
    quantum.basis_corrections.cache_clear()
    quantum._kernel.cache_clear()
    monkeypatch.setattr(groebner, "DEFAULT_MAX_DEGREE", 8)
    monkeypatch.setenv("QC_MAX_DEGREE", "12")


@pytest.mark.parametrize("argv", [
    ("verify", "--m", "8", "--p", "1"),
    ("gw", "--m", "6", "--p", "4", "--coords", "blowup", "--class", "0,1",
     "--alpha", "k", "--beta", "k", "--gamma", "k^7*eta^2"),
])
def test_a_raised_budget_serves_the_readers_without_one(capsys, monkeypatch, argv):
    _default_budget_8(monkeypatch)
    code, out = run(capsys, *argv)
    assert code == 0, out


@pytest.mark.parametrize("argv", [
    ("present", "--m", "8", "--p", "1"),
    ("present", "--m", "8", "--p", "1", "--quantum"),
    ("basis", "--m", "8", "--p", "1"),
    ("integrate", "--m", "10", "--p", "1", "--class", "h^7*xi^3"),
    ("gw", "--m", "10", "--p", "1", "--class", "1,0",
     "--alpha", "xi", "--beta", "xi^2", "--gamma", "h^7*xi^3"),
])
def test_a_raised_budget_prints_what_the_default_prints(capsys, monkeypatch, argv):
    monkeypatch.delenv("QC_MAX_DEGREE", raising=False)
    code, want = run(capsys, *argv)
    assert code == 0
    _default_budget_8(monkeypatch)
    assert run(capsys, *argv) == (0, want)


@pytest.mark.parametrize("argv, error", [
    (("integrate", "--m", "4", "--p", "0", "--class", "xi^12800"),
     "class degree 12800 exceeds budget 40"),
    (("gw", "--m", "4", "--p", "0", "--class", "100000,0", "--alpha", "xi^200000",
      "--beta", "1", "--gamma", "h^3*xi"), "class degree 200000 exceeds budget 40"),
    (("gw", "--m", "4", "--p", "0", "--coords", "blowup", "--class", "0,1",
      "--alpha", "k", "--beta", "k", "--gamma", "k^2*eta^39+eta^41"),
     "class degree 41 exceeds budget 40"),
])
def test_a_budget_bounds_the_parsed_classes(capsys, monkeypatch, argv, error):
    monkeypatch.setenv("QC_MAX_DEGREE", "40")
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["status"] == "check-failed"
    assert doc["payload"]["error"] == error
    monkeypatch.delenv("QC_MAX_DEGREE")
    code, doc = run_json(capsys, *argv)
    assert code == 0


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
