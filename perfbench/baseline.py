"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py

For every workload of BENCHMARK.json, makes two sets of ten untraced runs
with the seeds 1 to 10, one set after the other, and one traced run with
seed 1, then writes ``perfbench/baseline.json``: per set and end-to-end
metric the median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them), how much worse the second
set's median is than the first's, the per-layer metrics of the traced run,
the environment and the line count of each ``src/`` module.  It also holds the table of which end-to-end metric each layer should move.
Run it from the root of a source checkout.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
SETS = 2

# Which end-to-end metric each layer's metrics should move, and on which
# workload.
LAYER_TABLE = [
    {"layer": "poly", "metrics": ["poly.mul", "poly.add", "poly.map_variables",
                                  "poly.substitute", "poly.parse"],
     "moves": ["wall_s", "latency_tail_ms"],
     "workloads": ["verify-grid", "gw-session (blow-up queries)"]},
    {"layer": "groebner", "metrics": ["groebner.normal_form", "groebner.buchberger",
                                      "groebner.ideal_equal (incl)"],
     "moves": ["wall_s (normal_form, cold memo)", "latency_p50_ms (normal_form, warm memo)",
               "buchberger: predicted flat, about 1%"],
     "workloads": ["verify-grid", "gw-session", "cli-oneshot"]},
    {"layer": "geometry", "metrics": ["geometry.change_vars", "geometry.integrate",
                                      "geometry.pairing_matrix (incl)",
                                      "geometry.classical_presentation (incl)",
                                      "geometry.verify_classical_geometry (incl)"],
     "moves": ["wall_s", "latency_tail_ms"],
     "workloads": ["verify-grid", "gw-session"]},
    {"layer": "quantum", "metrics": ["quantum.basis_corrections (self, about the exact solve)",
                                     "quantum.basis_corrections.cache_hits",
                                     "quantum.basis_corrections.cache_misses",
                                     "quantum.quantum_product", "quantum.gw_invariant (incl)",
                                     "quantum.quantum_presentation (incl)",
                                     "quantum.verify_gw_identities (incl)",
                                     "quantum.verify_quantum_presentation (incl)"],
     "moves": ["basis_corrections: setup_s (gw-session) and wall_s (verify-grid, "
               "cli-oneshot); cli-oneshot's tail (p83 of 60 commands) lies below its three "
               "(11,3) gw solves, so there the solve reaches wall_s only",
               "quantum_product: throughput_per_s and latency_p50_ms"],
     "workloads": ["gw-session", "cli-oneshot", "verify-grid"]},
    {"layer": "report", "metrics": ["report.checks_passed", "report.checks_failed",
                                    "report.checks_skipped"],
     "moves": ["failed_ratio; the counts must repeat exactly"],
     "workloads": ["verify-grid"]},
    {"layer": "cli", "metrics": ["cli.main (incl)", "cli.self_s", "cli.import_s"],
     "moves": ["latency_p50_ms", "setup_s (verify-grid, cli-oneshot)"],
     "workloads": ["cli-oneshot"]},
]


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    result = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "machine": platform.machine()},
        "src_lines": {p.name: len(p.read_text().splitlines())
                      for p in sorted((ROOT / "src" / "qcblowup").glob("*.py"))},
        "layer_table": LAYER_TABLE,
        "seeds": SEEDS,
        "workloads": {name: {"sets": []} for name in names},
    }
    result["src_lines_total"] = sum(result["src_lines"].values())
    # Two sets of runs, one after the other, as a regression check would
    # compare a parent's runs with a child's.
    for index in range(SETS):
        for name in names:
            runs = [bench_run(name, seed, spec["run_seconds"], 0) for seed in SEEDS]
            end_to_end = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                          for m in spec["end_to_end"]}
            result["workloads"][name]["sets"].append({
                "correct": [r["correct"] for r in runs],
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "end_to_end": end_to_end,
            })
            for metric, s in end_to_end.items():
                print(f"set {index + 1} {name} {metric} median {s['median']:.6g} "
                      f"spread {s['spread']:.3f}", flush=True)
    for name in names:
        entry = result["workloads"][name]
        first, second = (entry["sets"][i]["end_to_end"] for i in (0, 1))
        entry["second_worse_by"] = {
            m["name"]: worse_by(first[m["name"]]["median"], second[m["name"]]["median"],
                                m["better"])
            for m in spec["end_to_end"]}
        traced = bench_run(name, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    (HERE / "baseline.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
