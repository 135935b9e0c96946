"""Benchmark of qcblowup: one command runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads, each driven by a single closed-loop client (one
operation at a time, no threads, no pool, all on one CPU):

* ``verify-grid``: ``qcblowup verify --grid-m 4..10 --grid-p 0..3 --json``
  (the README grid up to m = 10) in one fresh process; the grid is fixed
  and the seed is unused.
* ``gw-session``: one library process sets up the ladder (8,1), (11,3),
  (16,5), (20,4), then answers a seeded stream of three-point queries
  interleaved over the four instances, one in ten in blow-up coordinates
  (carried to bundle coordinates and reduced before they are asked, since
  the program's blow-up path of ``gw_invariant`` gives wrong values).
* ``cli-oneshot``: seeded sweeps of one-shot ``qcblowup ... --json``
  processes (present, integrate, gw, basis) on (4,0), (6,1), (8,1), (11,3).

Every run does a fixed amount of work, so that a slow moment of the machine
changes the times but not what is measured: the grid; three sweeps; and
2 x ``--seconds`` passes of 120 queries (about ``--seconds`` seconds at the
baseline); ``wall_s`` is the mean time of one of them.  The speed of the
host drifts, so every time metric is given in reference seconds: each
timed stretch (a step of the grid, a set-up step, a pass, a command) is
bracketed by probes of a fixed stdlib kernel and scaled by them (see
``reference.py``).  The measured wall and CPU seconds are printed on the
lines above the result.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the same work runs untraced and under the span tracer, and the per-layer
metrics are printed in measured seconds; ``tracing_overhead_s`` is traced
minus untraced time: CPU seconds of the grid and of each sweep's commands
run in adjacent pairs, reference seconds of each pass run in adjacent
pairs (the median over pairs).  Every output is checked; the last line of standard
output is the JSON result, whose ``correct`` field is false when any
output was wrong.  The exit code is 0 when a result was printed and 2 when
the program source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402

# The README grid runs m up to 12 and takes about a minute; with m up to 10
# it takes half that, so that the repeated runs of all three workloads fit
# in an hour.
GRID_ARGS = ["verify", "--grid-m", "4..10", "--grid-p", "0..3", "--json"]
IMPORT_PROBES = 15
SESSION_SETUPS = 2
# Passes of a traced gw-session run.
TRACE_PASSES = 10

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# -- child processes -----------------------------------------------------------


@dataclass
class Child:
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def spawn(argv: list[str]) -> Child:
    """Run a child to completion from the checkout root with ``src`` on the
    path; its wall time runs from spawn to reaping, and its CPU time and
    peak RSS are read from ``wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, wall_s, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that each probe of
    the reference kernel runs on the CPU of the work next to it: the CPUs
    of the baseline host change speed each on their own."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def program(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "qcblowup.cli", *args]


def child_py(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def import_probe_s() -> float:
    """Median time, in reference seconds, for a fresh interpreter to start
    and import the CLI."""
    probes = [reference.probe()]
    times = []
    for _ in range(IMPORT_PROBES):
        times.append(spawn([sys.executable, "-c", "import qcblowup.cli"]).wall_s)
        probes.append(reference.probe())
    return statistics.median(reference.scale(times, probes))


# -- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); with fewer than eleven samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_digest(doc: dict) -> str:
    return sha256(json.dumps(doc["payload"], sort_keys=True).encode())


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str]


def latency_metrics(busy_s: float, rounds: int, ops: int, lat_s: list[float],
                    notes: list[str]) -> dict[str, float]:
    """The time metrics of ``rounds`` rounds of work (the grid, sweeps,
    passes) that took ``busy_s`` in all and did ``ops`` operations with
    the latencies ``lat_s``."""
    value, pct = tail(lat_s)
    notes.append(f"latency samples {len(lat_s)}; tail is p{pct:.2f}")
    return {
        "wall_s": busy_s / rounds,
        "throughput_per_s": ops / busy_s,
        "latency_p50_ms": 1000 * statistics.median(lat_s),
        "latency_tail_ms": 1000 * value,
    }


def layer_totals(children: list[dict]) -> dict[str, float]:
    """Sum the tracer metrics of several traced processes."""
    total: dict[str, float] = {}
    for child in children:
        for key, value in child["metrics"].items():
            total[key] = total.get(key, 0) + value
        hits, misses = child["cache"]
        total["quantum.basis_corrections.cache_hits"] = (
            total.get("quantum.basis_corrections.cache_hits", 0) + hits)
        total["quantum.basis_corrections.cache_misses"] = (
            total.get("quantum.basis_corrections.cache_misses", 0) + misses)
    return total


def per_layer(totals: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    metrics = {name: 0 for name in metric_units("per_layer")}
    metrics.update({k: v for k, v in totals.items() if k in metrics})
    metrics.update(extra)
    return metrics


# -- verify-grid ---------------------------------------------------------------


def grid_failures(child: Child, expected: dict, notes: list[str]) -> tuple[int, dict]:
    """Failed instances of a grid run: exit code, ``ok``, the digest of the
    whole output and the digest of each instance must all match."""
    attempted = len(expected["instances"])
    try:
        doc = json.loads(child.stdout)
    except ValueError:
        notes.append("verify-grid: output is not JSON")
        return attempted, {}
    instances = doc.get("payload", {}).get("instances", [])
    failed = 0
    for i, want in enumerate(expected["instances"]):
        got = instances[i] if i < len(instances) else None
        if got is None or not got["ok"] or sha256(
            json.dumps(got, sort_keys=True).encode()
        ) != want:
            failed += 1
    if child.code != 0 or doc.get("payload", {}).get("ok") is not True:
        notes.append(f"verify-grid: exit {child.code}, ok {doc.get('payload', {}).get('ok')}")
        failed = max(failed, 1)
    if sha256(child.stdout) != expected["sha256"]:
        notes.append("verify-grid: output digest differs from the recorded one")
        failed = max(failed, 1)
    counts = {"report.checks_passed": 0, "report.checks_failed": 0,
              "report.checks_skipped": 0}
    for inst in instances:
        for check in inst["checks"]:
            key = ("report.checks_skipped" if check["skipped"] else
                   "report.checks_passed" if check["passed"] else "report.checks_failed")
            counts[key] += 1
    return failed, counts


def verify_grid(args) -> Outcome:
    expected = load_expected()["verify-grid"]
    notes: list[str] = []
    attempted = len(expected["instances"])
    if not args.trace:
        setup_s = import_probe_s()
        report = OUT / "verify-grid.json"
        child = spawn(child_py("probed", "--out", str(report), "--", *GRID_ARGS))
        failed, _ = grid_failures(child, expected, notes)
        data = json.loads(report.read_text())
        wall_s = sum(reference.scale(data["durations_s"], data["probe_s"]))
        notes.append(f"measured: wall_s {sum(data['durations_s']):.6g} cpu_s {child.cpu_s:.6g}")
        metrics = {"setup_s": setup_s, "peak_rss_mb": child.maxrss_mb}
        metrics.update(latency_metrics(wall_s, 1, attempted, [wall_s], notes))
        return Outcome(attempted, failed, metrics, notes)
    plain = spawn(program(GRID_ARGS))
    failed, counts = grid_failures(plain, expected, notes)
    report = OUT / "verify-grid.json"
    traced = spawn(child_py("cli", "--out", str(report), "--unit-per-instance", "--",
                            *GRID_ARGS))
    traced_failed, _ = grid_failures(traced, expected, notes)
    if traced.stdout != plain.stdout:
        notes.append("verify-grid: traced output differs from untraced output")
        traced_failed = max(traced_failed, 1)
    failed = max(failed, traced_failed)
    data = json.loads(report.read_text())
    extra = dict(counts)
    extra.update({
        "cli.import_s": data["import_s"],
        "unattributed_s": data["wall_s"] - data["covered_s"],
        "tracing_overhead_s": traced.cpu_s - plain.cpu_s,
        "failed_ratio": failed / attempted,
    })
    return Outcome(attempted, failed, per_layer(layer_totals([data]), extra), notes)


# -- gw-session ----------------------------------------------------------------


def session_failures(result: dict, expected: list[list[int]] | None, notes: list[str]) -> int:
    """Failed queries of a session: every value must be an integer, match
    the recorded value where one exists (the default seed) and, for the
    sampled queries, equal its values with the slots permuted."""
    bad: set[tuple[int, int]] = set()
    for p, values in enumerate(result["values"]):
        want = expected[p % len(expected)] if expected else None
        for q, value in enumerate(values):
            if not isinstance(value, int) or (want is not None and value != want[q]):
                bad.add((p, q))
    for item in result["symmetry"]:
        if any(v != item["value"] for v in item["permuted"]):
            bad.add((0, item["index"]))
    for error in result["errors"][:3]:
        notes.append(f"gw-session: {error}")
    if bad:
        notes.append(f"gw-session: {len(bad)} wrong queries, first {sorted(bad)[:3]}")
    return len(bad)


def session_setup_s(result: dict) -> float:
    """Reference seconds a session process took to set up the ladder."""
    return sum(reference.scale(result["setup_s"], result["setup_probe_s"]))


def gw_session(args) -> Outcome:
    notes: list[str] = []
    inputs = gen.session_inputs(args.seed)
    path = OUT / "gw-session-inputs.json"
    path.write_text(json.dumps(inputs))
    recorded = load_expected()["gw-session"]
    expected = recorded["values"] if args.seed == recorded["seed"] else None
    report = OUT / "gw-session.json"
    passes = (TRACE_PASSES if args.trace
              else max(1, round(gen.PASSES_PER_SECOND * args.seconds)))
    cmd = child_py("session", "--inputs", str(path), "--out", str(report),
                   "--passes", str(passes))
    if args.trace:
        cmd.append("--trace")
    ready = []
    if not args.trace:
        for _ in range(SESSION_SETUPS - 1):
            setup = spawn(child_py("session", "--inputs", str(path), "--out", str(report),
                                   "--passes", "0", "--setup-only"))
            if setup.code != 0:
                raise RuntimeError("gw-session set-up process failed")
            ready.append(session_setup_s(json.loads(report.read_text())))
    child = spawn(cmd)
    if child.code != 0:
        raise RuntimeError(f"gw-session process failed with exit code {child.code}")
    result = json.loads(report.read_text())
    attempted = sum(len(v) for v in result["values"])
    failed = session_failures(result, expected, notes)
    if not args.trace:
        pass_s = reference.scale(result["pass_s"], result["probe_s"])
        lat_s = [t * scaled / measured for scaled, measured, block in
                 zip(pass_s, result["pass_s"], result["lat_s"]) for t in block]
        ready.append(session_setup_s(result))
        metrics = {"setup_s": statistics.median(ready), "peak_rss_mb": child.maxrss_mb}
        metrics.update(latency_metrics(sum(pass_s), len(pass_s), attempted, lat_s, notes))
        notes.append(f"set-ups {len(ready)}; passes {len(pass_s)} of "
                     f"{len(inputs['passes'][0])} queries; measured: set-up wall_s "
                     f"{result['setup_wall_s']:.6g}, median pass wall_s "
                     f"{statistics.median(result['pass_s']):.6g} cpu_s "
                     f"{statistics.median(result['pass_cpu_s']):.6g}")
        return Outcome(attempted, failed, metrics, notes)
    traced = result["traced"]
    if not traced["same_values"]:
        notes.append("gw-session: traced values differ from untraced values")
        failed = max(failed, 1)
    extra = {
        "cli.import_s": result["import_s"],
        "unattributed_s": traced["wall_s"] - traced["covered_s"],
        "tracing_overhead_s": statistics.median(traced["overhead_s"]),
        "failed_ratio": failed / attempted,
    }
    return Outcome(attempted, failed, per_layer(layer_totals([traced]), extra), notes)


# -- cli-oneshot ---------------------------------------------------------------


def command_failure(args: list[str], child: Child, expected: dict) -> str | None:
    """Why a one-shot command's output is wrong, or None."""
    try:
        doc = json.loads(child.stdout)
    except ValueError:
        return "output is not JSON"
    if child.code != 0 or doc.get("status") != "ok":
        return f"exit {child.code}, status {doc.get('status')}"
    payload = doc["payload"]
    if args[0] == "integrate" and payload.get("equal") is not True:
        return "integrate: Groebner and oracle integrals differ"
    if args[0] == "gw" and not isinstance(payload.get("value"), int):
        return f"gw: non-integer value {payload.get('value')!r}"
    want = expected.get(" ".join(args))
    if want is not None and payload_digest(doc) != want:
        return "payload digest differs from the recorded one"
    return None


@dataclass
class Sweeps:
    sweep_s: list[float]
    cpu_s: list[float]
    lat_s: list[float]
    probe_s: list[float]
    peak_rss_mb: float
    failed: int
    gw_done: list[tuple[list[str], int]]
    reports: list[dict]
    overhead_s: list[float]


def run_sweeps(commands: list[list[list[str]]], traced: bool, expected: dict,
               notes: list[str]) -> Sweeps:
    """Run every sweep, one command at a time, with a probe of the reference
    kernel before the first command and after each, and sum the wall and
    CPU seconds of each sweep's commands.  With ``traced`` each command also
    runs under the tracer right after its untraced run, so that the pair
    sees the same state of the machine; ``overhead_s`` holds each sweep's
    traced minus untraced CPU seconds."""
    done = Sweeps([], [], [], [reference.probe()], 0.0, 0, [], [], [])
    for index, sweep in enumerate(commands):
        wall = cpu = overhead = 0.0
        for ci, args in enumerate(sweep):
            child = spawn(program(args))
            wall += child.wall_s
            cpu += child.cpu_s
            done.lat_s.append(child.wall_s)
            done.probe_s.append(reference.probe())
            done.peak_rss_mb = max(done.peak_rss_mb, child.maxrss_mb)
            why = command_failure(args, child, expected)
            if traced:
                report = OUT / f"cli-{index}-{ci}.json"
                traced_child = spawn(child_py("cli", "--out", str(report), "--unit",
                                              f"sweep{index}.{ci}", "--", *args))
                done.reports.append(json.loads(report.read_text()))
                overhead += traced_child.cpu_s - child.cpu_s
                if not why and traced_child.stdout != child.stdout:
                    why = "traced output differs from untraced output"
            if why:
                done.failed += 1
                notes.append(f"cli-oneshot: {' '.join(args)}: {why}")
            elif args[0] == "gw":
                done.gw_done.append((args, json.loads(child.stdout)["payload"]["value"]))
        done.sweep_s.append(wall)
        done.cpu_s.append(cpu)
        done.overhead_s.append(overhead)
    return done


def symmetry_failures(gw_done: list, notes: list[str]) -> int:
    """Re-evaluate each answered gw command with its slots permuted, in one
    library process outside the timed region."""
    queries = [gen.gw_args_query(args) for args, _ in gw_done]
    path = OUT / "cli-check-inputs.json"
    path.write_text(json.dumps(queries))
    out = OUT / "cli-check.json"
    child = spawn(child_py("check", "--inputs", str(path), "--out", str(out)))
    if child.code != 0:
        raise RuntimeError("symmetry check process failed")
    permuted = json.loads(out.read_text())["permuted"]
    failed = 0
    for (args, value), values in zip(gw_done, permuted):
        if any(v != value for v in values):
            failed += 1
            notes.append(f"cli-oneshot: {' '.join(args)}: permuted slots give {values}")
    return failed


def cli_oneshot(args) -> Outcome:
    notes: list[str] = []
    commands = gen.cli_sweeps(args.seed)
    recorded = load_expected()["cli-oneshot"]
    expected = dict(recorded["fixed"])
    if args.seed == recorded["seed"]:
        expected.update(recorded["seeded"])
    if not args.trace:
        setup_s = import_probe_s()
        done = run_sweeps(commands, False, expected, notes)
        failed = done.failed + symmetry_failures(done.gw_done, notes)
        attempted = len(done.lat_s)
        lat_s = reference.scale(done.lat_s, done.probe_s)
        metrics = {"setup_s": setup_s, "peak_rss_mb": done.peak_rss_mb}
        metrics.update(latency_metrics(sum(lat_s), len(commands), attempted, lat_s, notes))
        notes.append(f"sweeps {len(commands)} of {len(commands[0])} commands; measured: "
                     f"median sweep wall_s {statistics.median(done.sweep_s):.6g} cpu_s "
                     f"{statistics.median(done.cpu_s):.6g}")
        return Outcome(attempted, failed, metrics, notes)
    done = run_sweeps(commands, True, expected, notes)
    failed = done.failed + symmetry_failures(done.gw_done, notes)
    attempted = len(done.lat_s)
    reports = done.reports
    extra = {
        "cli.import_s": statistics.median(r["import_s"] for r in reports),
        "unattributed_s": sum(r["wall_s"] - r["covered_s"] for r in reports),
        "tracing_overhead_s": statistics.median(done.overhead_s),
        "failed_ratio": failed / attempted,
    }
    return Outcome(attempted, failed, per_layer(layer_totals(reports), extra), notes)


WORKLOADS = {"verify-grid": verify_grid, "gw-session": gw_session, "cli-oneshot": cli_oneshot}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcblowup" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    pin_to_one_cpu()
    outcome = WORKLOADS[args.workload](args)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for note in outcome.notes:
        print(note)
    for name, unit in units.items():
        print(f"{name} {outcome.metrics[name]:.6g} {unit}")
    correct = outcome.failed == 0
    print(f"attempted {outcome.attempted} failed {outcome.failed} "
          f"failed_ratio {outcome.failed / outcome.attempted:.6g} correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
