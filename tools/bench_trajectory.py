"""Run the benchmark on every workload and write one point of the trajectory.

    python3 tools/bench_trajectory.py BENCH_<n>.json

For each workload of ``BENCHMARK.json`` the benchmark (``perfbench/run.py``,
seed 1, 10 seconds) runs twice in fresh processes from the root of this
checkout: with ``--trace 0`` for the six end-to-end metrics and with
``--trace 1`` for the per-layer table.  Then ``verify --m M --p P`` runs
three times in fresh processes on each of the larger instances
``VERIFY_RUNGS``, which lie above the benchmark's ladder; the best wall
time of each goes to ``verify_wall_s`` and the sha256 of its output to
``verify_sha256``, both under ``"M,P"``.  The file written holds both
results of each workload as the benchmark prints them (``correct``,
``attempted``, ``failed`` and every metric with its unit), those wall
times and digests, the line count of ``src/`` and the host the numbers
come from.  The exit code is 1 when a run reports a wrong output, prints
no result, a ``verify`` run fails or the repeated ``verify`` runs of a
rung print different output, else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SECONDS = 10
VERIFY_RUNGS = ((32, 8), (48, 12), (64, 16))
VERIFY_REPEATS = 3


def run(workload: str, trace: int) -> dict:
    """The JSON result of one benchmark run (its last line of output)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def verify_rung(m: int, p: int) -> tuple[float | None, str | None]:
    """The best wall time, in seconds, of ``verify --m M --p P`` over
    ``VERIFY_REPEATS`` fresh processes run from ``src/``, and the sha256 of
    the output they all print; the time is None if a run fails, the digest
    None if a run fails or two runs print different output."""
    path = (str(ROOT / "src"), os.environ.get("PYTHONPATH", ""))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-m", "qcblowup.cli", "verify", "--m", str(m), "--p", str(p)]
    times, digests = [], set()
    for _ in range(VERIFY_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
        times.append(time.perf_counter() - start)
        if done.returncode:
            return None, None
        digests.add(hashlib.sha256(done.stdout).hexdigest())
    return min(times), digests.pop() if len(digests) == 1 else None


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        workloads[workload] = {"end_to_end": run(workload, 0), "per_layer": run(workload, 1)}
        print(workload, {trace: result["correct"] for trace, result in workloads[workload].items()})
    rungs = {f"{m},{p}": verify_rung(m, p) for m, p in VERIFY_RUNGS}
    verify_wall_s = {rung: wall for rung, (wall, _) in rungs.items()}
    verify_sha256 = {rung: digest for rung, (_, digest) in rungs.items()}
    print("verify_wall_s", verify_wall_s)
    print("verify_sha256", verify_sha256)
    document = {
        "seed": SEED,
        "seconds": SECONDS,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "src_lines": src_lines(),
        "verify_sha256": verify_sha256,
        "verify_wall_s": verify_wall_s,
        "workloads": workloads,
    }
    Path(argv[0]).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    runs = [result for both in workloads.values() for result in both.values()]
    ok = all(result["correct"] for result in runs) and None not in verify_sha256.values()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
