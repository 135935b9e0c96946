"""The decision rule of ``tools/bench_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs: median 10.5, quartiles 9.25 and 11.75 (spread 2.5)
PARENT = [9.0, 10.0, 11.0, 12.0, 8.0, 13.0, 10.0, 11.0, 9.0, 12.0]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread():
    change = [p - 3.0 for p in PARENT]  # every pair won, medians 3.0 apart
    d = bench_pairs.decide(PARENT, change, "lower")
    assert d["parent"] == (9.25, 10.5, 11.75)
    assert d["change"] == (6.25, 7.5, 8.75)
    assert (d["wins"], d["pairs"]) == (10, 10)
    assert d["relative"] == pytest.approx(-3.0 / 10.5)
    assert d["gain"]


def test_eight_wins_in_ten_are_not_a_gain():
    change = [p - 3.0 for p in PARENT]
    change[0] = change[1] = 20.0
    d = bench_pairs.decide(PARENT, change, "lower")
    assert d["wins"] == 8 and not d["gain"]


def test_ties_count_for_neither_side():
    change = [p - 4.0 for p in PARENT]
    change[4] = PARENT[4]
    d = bench_pairs.decide(PARENT, change, "lower")
    assert d["wins"] == 9 and d["gain"]  # nine of ten is enough
    change[5] = PARENT[5]
    assert bench_pairs.decide(PARENT, change, "lower")["wins"] == 8


def test_every_pair_won_inside_the_parent_spread_is_not_a_gain():
    change = [p - 2.0 for p in PARENT]  # medians 2.0 apart, spread 2.5
    d = bench_pairs.decide(PARENT, change, "lower")
    assert d["wins"] == 10 and not d["gain"]


def test_higher_is_better_reverses_the_direction():
    faster = [p + 3.0 for p in PARENT]
    assert bench_pairs.decide(PARENT, faster, "higher")["gain"]
    assert bench_pairs.decide(PARENT, faster, "higher")["wins"] == 10
    assert not bench_pairs.decide(PARENT, faster, "lower")["gain"]
    assert bench_pairs.decide(PARENT, faster, "lower")["wins"] == 0


def test_a_median_worse_by_more_than_the_bound_is_worse():
    # spread 2.5 is 24% of the parent's median 10.5, inside a bound of 25%
    assert bench_pairs.decide(PARENT, [p + 3.0 for p in PARENT], "lower", 0.25)["verdict"] == (
        "worse")  # +29%
    assert bench_pairs.decide(PARENT, [p + 2.0 for p in PARENT], "lower", 0.25)["verdict"] == (
        "ok")  # +19%
    slower = [p - 3.0 for p in PARENT]
    assert bench_pairs.decide(PARENT, slower, "higher", 0.25)["verdict"] == "worse"
    assert bench_pairs.decide(PARENT, slower, "lower", 0.25)["verdict"] == "ok"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # spread 24% against a bound of 20%: a change within the bound is
    # unresolved, unless every change run beats every parent run
    d = bench_pairs.decide(PARENT, [p + 1.0 for p in PARENT], "lower", 0.2)
    assert d["relative"] < 0.2 and d["verdict"] == "unresolved"
    assert bench_pairs.decide(PARENT, [p - 1.0 for p in PARENT], "lower", 0.2)["verdict"] == (
        "unresolved")  # better in every pair, yet not than every parent run
    assert bench_pairs.decide(PARENT, [7.9] * 10, "lower", 0.2)["verdict"] == "ok"
    assert bench_pairs.decide(PARENT, [13.1] * 10, "higher", 0.2)["verdict"] == "ok"
    assert bench_pairs.decide(PARENT, [8.0] * 10, "lower", 0.2)["verdict"] == "unresolved"
    assert bench_pairs.decide(PARENT, [p + 3.0 for p in PARENT], "lower", 0.2)["verdict"] == (
        "worse")


def test_without_a_bound_every_verdict_is_ok():
    assert bench_pairs.decide(PARENT, [p * 10 for p in PARENT], "lower")["verdict"] == "ok"


def test_the_runs_must_pair_up():
    with pytest.raises(ValueError):
        bench_pairs.decide(PARENT, PARENT[:9], "lower")
    with pytest.raises(ValueError):
        bench_pairs.decide([], [], "lower")


def _fake_run(runs):
    def run(checkout, workload, seed):
        runs.append(checkout)
        metrics = {m["name"]: {"value": 1.0} for m in bench_pairs.SPEC["end_to_end"]}
        return {"correct": True, "failed": 0, "metrics": metrics}
    return run


def test_checkouts_that_differ_in_cached_bytecode_are_refused(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "qcblowup").mkdir(parents=True)
    (parent / "src" / "qcblowup" / "__pycache__").mkdir()
    runs = []
    monkeypatch.setattr(bench_pairs, "run", _fake_run(runs))
    argv = ["--workload", "gw-session", "--seed", "1", "--pairs", "2"]
    assert bench_pairs.main([str(parent), str(change), *argv]) == 2
    assert runs == []
    assert f"{parent} holds cached bytecode" in capsys.readouterr().err
    assert bench_pairs.main([str(change), str(parent), *argv]) == 2
    assert runs == []
    (change / "src" / "qcblowup" / "__pycache__").mkdir()  # both warm: compared
    assert bench_pairs.main([str(parent), str(change), *argv]) == 0
    assert runs == [parent, change, change, parent]
    header, *rows = capsys.readouterr().out.splitlines()[1:]
    assert header.split()[-2:] == ["gain", "verdict"]
    metrics = len(bench_pairs.SPEC["end_to_end"])
    assert [row.split()[-2:] for row in rows] == [["no", "ok"]] * metrics
