"""The ``verify`` wall times and output digests of
``tools/bench_trajectory.py``, on a small instance and on stubbed runs."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def test_verify_wall_is_the_best_of_fresh_runs_or_none_on_failure(monkeypatch):
    monkeypatch.setattr(bench_trajectory, "VERIFY_REPEATS", 2)
    assert bench_trajectory.VERIFY_RUNGS == ((32, 8), (48, 12), (64, 16))
    wall, digest = bench_trajectory.verify_rung(8, 1)
    assert isinstance(wall, float) and 0 < wall < 30
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert bench_trajectory.verify_rung(8, 9) == (None, None)  # p >= m - 1 is a usage error


def test_verify_digest_is_none_when_repeated_runs_differ(monkeypatch):
    # stubbed runs: the digest is that of the one output all runs print,
    # and None as soon as one run prints another
    outputs = []

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, outputs.pop(0), b"")

    monkeypatch.setattr(bench_trajectory.subprocess, "run", fake_run)
    outputs[:] = [b"same\n"] * 3
    assert bench_trajectory.verify_rung(8, 1)[1] == hashlib.sha256(b"same\n").hexdigest()
    outputs[:] = [b"same\n", b"same\n", b"other\n"]
    wall, digest = bench_trajectory.verify_rung(8, 1)
    assert isinstance(wall, float) and digest is None


def test_the_trajectory_records_the_digests_and_fails_on_a_difference(monkeypatch, tmp_path):
    # the benchmark runs stubbed: the file holds each rung's digest under
    # "M,P", and one rung whose runs differ makes the exit code 1
    result = {"correct": True}
    monkeypatch.setattr(bench_trajectory, "run", lambda workload, trace: result)
    for last, code in ((None, 1), ("0" * 64, 0)):
        rungs = {(m, p): (1.0, f"{m:064x}") for m, p in bench_trajectory.VERIFY_RUNGS}
        rungs[64, 16] = (1.0, last)
        monkeypatch.setattr(bench_trajectory, "verify_rung", lambda m, p: rungs[m, p])
        out = tmp_path / "BENCH.json"
        assert bench_trajectory.main([str(out)]) == code
        document = json.loads(out.read_text())
        assert document["verify_wall_s"] == {f"{m},{p}": 1.0 for m, p in rungs}
        assert document["verify_sha256"] == {f"{m},{p}": d for (m, p), (_, d) in rungs.items()}
