"""The ``verify`` wall times of ``tools/bench_trajectory.py`` on a small
instance."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def test_verify_wall_is_the_best_of_fresh_runs_or_none_on_failure(monkeypatch):
    monkeypatch.setattr(bench_trajectory, "VERIFY_REPEATS", 2)
    assert bench_trajectory.VERIFY_RUNGS == ((32, 8), (48, 12), (64, 16))
    wall = bench_trajectory.verify_wall(8, 1)
    assert isinstance(wall, float) and 0 < wall < 30
    assert bench_trajectory.verify_wall(8, 9) is None  # p >= m - 1 is a usage error
