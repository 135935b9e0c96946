"""The ``verify`` wall times, output digests and peak RSS of
``tools/bench_trajectory.py``, on a small instance and on stubbed runs."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def test_verify_wall_is_the_best_of_fresh_runs_or_none_on_failure(monkeypatch):
    monkeypatch.setattr(bench_trajectory, "VERIFY_REPEATS", 2)
    assert bench_trajectory.VERIFY_RUNGS == ((32, 8), (48, 12), (64, 16), (96, 24))
    wall, digest, peak = bench_trajectory.verify_rung(8, 1)
    assert isinstance(wall, float) and 0 < wall < 30
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert isinstance(peak, float) and 1 < peak < 1024
    # p >= m - 1 is a usage error
    assert bench_trajectory.verify_rung(8, 9) == (None, None, None)


def test_the_peak_rss_is_the_childs_own():
    # a child that held 64 MB reads at least that, and the child run after
    # it, which holds none, reads well below: each peak is read off that
    # child's rusage, not the cumulative one of every child.  A child's peak
    # starts at that of the process spawning it, so the runs come from a
    # driver that holds 64 MB itself, which floors none of the readings
    code = "import sys; data = bytearray({} << 20); sys.stdout.write('done')"
    driver = (
        "import json, os, runpy, sys; held = bytearray(64 << 20); "
        f"run_child = runpy.run_path({str(_PATH)!r})['run_child']; "
        f"runs = [run_child([sys.executable, '-c', {code!r}.format(size)], dict(os.environ))"
        " for size in (64, 0)]; "
        "print(json.dumps([(status, out.decode(), wall, peak)"
        " for status, out, wall, peak in runs]))"
    )
    done = subprocess.run([sys.executable, "-c", driver], capture_output=True, check=True)
    run = json.loads(done.stdout)
    assert [(status, out) for status, out, _, _ in run] == [(0, "done")] * 2
    assert all(0 < wall < 30 for _, _, wall, _ in run)
    assert run[0][3] > 64 and run[1][3] < run[0][3] - 32 and run[1][3] < 48
    code, out, _, _ = bench_trajectory.run_child(
        [sys.executable, "-c", "import sys; print('x'); print('y', file=sys.stderr); exit(3)"],
        dict(os.environ))
    assert (code, out) == (3, b"x\n")  # the child's standard error is discarded


def test_verify_digest_is_none_when_repeated_runs_differ(monkeypatch):
    # stubbed runs: the digest is that of the one output all runs print,
    # and None as soon as one run prints another
    outputs = []
    monkeypatch.setattr(bench_trajectory, "run_child",
                        lambda argv, env: (0, outputs.pop(0), 1.5, 30.0))
    outputs[:] = [b"same\n"] * 3
    assert bench_trajectory.verify_rung(8, 1)[1] == hashlib.sha256(b"same\n").hexdigest()
    outputs[:] = [b"same\n", b"same\n", b"other\n"]
    wall, digest, peak = bench_trajectory.verify_rung(8, 1)
    assert wall == 1.5 and digest is None and peak == 30.0


def test_the_trajectory_records_the_digests_and_fails_on_a_difference(monkeypatch, tmp_path):
    # the benchmark runs stubbed: the file holds each rung's digest under
    # "M,P", and one rung whose runs differ makes the exit code 1
    result = {"correct": True}
    monkeypatch.setattr(bench_trajectory, "run", lambda workload, trace: result)
    for last, code in ((None, 1), ("0" * 64, 0)):
        rungs = {(m, p): (1.0, f"{m:064x}", m / 2) for m, p in bench_trajectory.VERIFY_RUNGS}
        rungs[64, 16] = (1.0, last, 32.0)
        monkeypatch.setattr(bench_trajectory, "verify_rung", lambda m, p: rungs[m, p])
        out = tmp_path / "BENCH.json"
        assert bench_trajectory.main([str(out)]) == code
        document = json.loads(out.read_text())
        assert document["verify_wall_s"] == {f"{m},{p}": 1.0 for m, p in rungs}
        assert document["verify_sha256"] == {f"{m},{p}": d for (m, p), (_, d, _) in rungs.items()}
        assert document["verify_peak_rss_mb"] == {f"{m},{p}": m / 2 for m, p in rungs}
