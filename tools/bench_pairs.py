"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, in a
fresh process from the checkout's root, for the ``run_seconds`` of
``BENCHMARK.json``; the parent runs first in even pairs and the change in
odd ones.  For each end-to-end metric of ``BENCHMARK.json`` the script
prints both sides' medians and quartiles, the pairs the change won (ties
count for neither side) and whether a gain may be claimed: the change wins
at least nine tenths of the pairs, and its median is better than the
parent's by more than the distance between the parent's quartiles.  The
exit code is 1 when a run reports a wrong output or failed operations,
else 0.  Before any run, the script exits with 2 when one checkout's
``src/`` holds cached bytecode (a ``__pycache__``) and the other's does
not: the cold metrics of the side without it would read slower.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, the median and the upper quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def decide(parent: list[float], change: list[float], better: str) -> dict:
    """Compare the runs of one metric, pair by pair (``parent[i]`` and
    ``change[i]`` ran as pair i); ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (pm - cm)  # positive when the change's median is better
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "pairs": len(parent),
        "relative": (cm - pm) / pm if pm else 0.0,
        "gain": wins >= 0.9 * len(parent) and gap > p3 - p1,
    }


def has_bytecode(checkout: Path) -> bool:
    """Whether the checkout's ``src/`` holds a ``__pycache__``."""
    return any((checkout / "src").rglob("__pycache__"))


def run(checkout: Path, workload: str, seed: int) -> dict:
    """The JSON result of one benchmark run (its last line of output)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    cached = [path for path in sides.values() if has_bytecode(path)]
    if len(cached) == 1:
        print(f"{cached[0]} holds cached bytecode in src/ and the other checkout does not;"
              " remove it, or run both checkouts once first", file=sys.stderr)
        return 2
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run(sides[side], args.workload, args.seed)
            results[side].append(result)
            ok = ok and result["correct"] and not result["failed"]
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, alternating who runs first")
    print(f"{'metric':18} {'parent median (q1-q3)':36} {'change median (q1-q3)':36} "
          f"{'change':>8} {'wins':>6}  gain")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        d = decide(values["parent"], values["change"], metric["better"])
        cells = ["{1:.4g} ({0:.4g}-{2:.4g})".format(*d[side]) for side in sides]
        print(f"{name:18} {cells[0]:36} {cells[1]:36} {d['relative']:+8.1%} "
              f"{d['wins']:>3}/{d['pairs']:<2}  {'yes' if d['gain'] else 'no'}")
    if not ok:
        print("a run reported a wrong output or failed operations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
