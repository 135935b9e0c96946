"""Run the benchmark on every workload and write one point of the trajectory.

    python3 tools/bench_trajectory.py BENCH_<n>.json

For each workload of ``BENCHMARK.json`` the benchmark (``perfbench/run.py``,
seed 1, 10 seconds) runs twice in fresh processes from the root of this
checkout: with ``--trace 0`` for the six end-to-end metrics and with
``--trace 1`` for the per-layer table.  Then ``verify --m M --p P`` runs
three times in fresh processes on each of the larger instances
``VERIFY_RUNGS``, which lie above the benchmark's ladder; the best wall
time of each goes to ``verify_wall_s``, the sha256 of its output to
``verify_sha256`` and the largest peak RSS of its runs, each read off
that process's own rusage by a small launcher that spawns it, to
``verify_peak_rss_mb``, all under
``"M,P"``.  The file written holds both results of each workload as the
benchmark prints them (``correct``, ``attempted``, ``failed`` and every
metric with its unit), those wall times, digests and peaks, the line
count of ``src/`` and the host the numbers come from.  The exit code is 1
when a run reports a wrong output, prints no result, a ``verify`` run
fails or the repeated ``verify`` runs of a rung print different output,
else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SECONDS = 10
VERIFY_RUNGS = ((32, 8), (48, 12), (64, 16), (96, 24))
VERIFY_REPEATS = 3


def run(workload: str, trace: int) -> dict:
    """The JSON result of one benchmark run (its last line of output)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


#: Spawns ``argv[1:]`` with its standard error discarded, waits for it and
#: writes its exit code, its wall time and its own ``ru_maxrss`` to
#: standard error.
LAUNCHER = (
    "import os, sys, time; start = time.perf_counter();"
    " pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ,"
    " file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]);"
    " _, status, usage = os.wait4(pid, 0); print(os.waitstatus_to_exitcode(status),"
    " time.perf_counter() - start, usage.ru_maxrss, file=sys.stderr)"
)


def run_child(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, float, float]:
    """Run one process from the root of this checkout to its end: its exit
    code, its standard output, its wall time in seconds and its own peak
    RSS in MB, read off the rusage that ``os.wait4`` returns for that child
    alone (``ru_maxrss`` counts kilobytes on Linux), not the cumulative
    ``RUSAGE_CHILDREN``.  Linux keeps a high-water mark across exec, so a
    child reads at least the peak RSS of the process that spawned it: a
    small fresh launcher (:data:`LAUNCHER`, about 13 MB on CPython 3.11)
    spawns and times it, so this process's own peak floors no reading and
    the launcher's start-up counts in no wall time."""
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    code, wall, kilobytes = done.stderr.split()
    return int(code), done.stdout, float(wall), int(kilobytes) / 1024


def verify_rung(m: int, p: int) -> tuple[float | None, str | None, float | None]:
    """The best wall time, in seconds, of ``verify --m M --p P`` over
    ``VERIFY_REPEATS`` fresh processes run from ``src/``, the sha256 of
    the output they all print and their largest peak RSS, in MB; the time
    and the RSS are None if a run fails, the digest None if a run fails or
    two runs print different output."""
    path = (str(ROOT / "src"), os.environ.get("PYTHONPATH", ""))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-m", "qcblowup.cli", "verify", "--m", str(m), "--p", str(p)]
    times, digests, peaks = [], set(), []
    for _ in range(VERIFY_REPEATS):
        code, out, wall, peak = run_child(argv, env)
        times.append(wall)
        if code:
            return None, None, None
        digests.add(hashlib.sha256(out).hexdigest())
        peaks.append(peak)
    return min(times), digests.pop() if len(digests) == 1 else None, max(peaks)


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
    verify_wall_s = {rung: wall for rung, (wall, _, _) in rungs.items()}
    verify_sha256 = {rung: digest for rung, (_, digest, _) in rungs.items()}
    verify_peak_rss_mb = {rung: peak for rung, (_, _, peak) in rungs.items()}
    print("verify_wall_s", verify_wall_s)
    print("verify_sha256", verify_sha256)
    print("verify_peak_rss_mb", verify_peak_rss_mb)
    document = {
        "seed": SEED,
        "seconds": SECONDS,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "src_lines": src_lines(),
        "verify_peak_rss_mb": verify_peak_rss_mb,
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
