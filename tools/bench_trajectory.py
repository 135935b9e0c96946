"""Run the benchmark on every workload and write one point of the trajectory.

    python3 tools/bench_trajectory.py BENCH_<n>.json

For each workload of ``BENCHMARK.json`` the benchmark (``perfbench/run.py``,
seed 1, 10 seconds) runs twice in fresh processes from the root of this
checkout: with ``--trace 0`` for the six end-to-end metrics and with
``--trace 1`` for the per-layer table.  The file written holds both results
of each workload as the benchmark prints them (``correct``, ``attempted``,
``failed`` and every metric with its unit), the line count of ``src/`` and
the host the numbers come from.  The exit code is 1 when a run reports a
wrong output or prints no result, else 0.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SECONDS = 10


def run(workload: str, trace: int) -> dict:
    """The JSON result of one benchmark run (its last line of output)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


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
    document = {
        "seed": SEED,
        "seconds": SECONDS,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "src_lines": src_lines(),
        "workloads": workloads,
    }
    Path(argv[0]).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    runs = [result for both in workloads.values() for result in both.values()]
    return 0 if all(result["correct"] for result in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
