"""Which functions of the package each benchmark workload calls.

    python3 tools/traffic.py [--seed S]
    python3 tools/traffic.py -- ARGS...

The first form runs the three workloads, each in a fresh process of its
own, under ``sys.setprofile``:

* ``cli-oneshot``: the commands of ``cli_sweeps(seed)`` from
  ``perfbench/gen.py``, one after another through ``qcblowup.cli.main``;
* ``verify-grid``: ``verify --grid-m 4..10 --grid-p 0..3 --json`` through
  ``qcblowup.cli.main``;
* ``gw-session``: the client's set-up of the ladder rings, then the
  warm-up and timed queries of ``session_inputs(seed)``, each parsed and
  evaluated by the client's own ``_parse_query`` and ``_evaluate``
  (``perfbench/child.py``).

The second form runs the one command ``ARGS`` in this process, as the
workload ``command``.  Every line of the report names a workload, a count
and a function of the package (``module.qualname``; lambdas and
comprehensions are left out): first each function a workload called, with
its number of calls, most called first, then ``uncalled`` and ``-`` for
every function that no workload called.  The commands' own output is
discarded, and ``perfbench/`` is only read.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import io
import json
import subprocess
import sys
from collections import Counter
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("cli-oneshot", "verify-grid", "gw-session")
GRID = ("verify", "--grid-m", "4..10", "--grid-p", "0..3", "--json")


def _package() -> Path:
    """The directory of the imported package, this checkout's by default."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import qcblowup

    return Path(qcblowup.__file__).resolve().parent


def _load(name: str, path: Path):
    """A module of ``perfbench/``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _named(code) -> bool:
    """A function's code, not a module's, a class body's, a lambda's or a
    comprehension's."""
    return bool(code.co_flags & inspect.CO_NEWLOCALS) and not code.co_name.startswith("<")


def package_functions() -> list[str]:
    """Every named function and method defined in the package."""
    names = []
    for path in sorted(_package().glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_qualname")]
            if _named(code):
                names.append(f"{path.stem}.{code.co_qualname}")
    return sorted(names)


def count_calls(run) -> Counter:
    """The calls of each named package function while ``run()`` runs."""
    package, inside, codes = _package(), {}, Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            found = inside.get(code.co_filename)
            if found is None:
                found = inside[code.co_filename] = (
                    Path(code.co_filename).resolve().parent == package
                )
            if found and _named(code):
                codes[code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    counts = Counter()
    for code, n in codes.items():
        counts[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += n
    return counts


def _commands(argvs) -> Callable[[], None]:
    """A run of CLI commands through ``qcblowup.cli.main``, output discarded."""
    _package()
    from qcblowup import cli

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                cli.main(list(argv))

    return run


def _session(seed: int) -> Callable[[], None]:
    """The gw-session client's work: its ladder set-up and its queries."""
    _package()
    from qcblowup import geometry, quantum

    gen = _load("perfbench_gen", PERFBENCH / "gen.py")
    child = _load("perfbench_child", PERFBENCH / "child.py")
    inputs = gen.session_inputs(seed)
    queries = inputs["warmup"] + [q for block in inputs["passes"] for q in block]

    def run():
        for m, p in inputs["ladder"]:  # as the client's set-up builds them
            params = geometry.derive_params(m, p)
            bundle = quantum.quantum_presentation(params, geometry.BUNDLE)
            quantum.quantum_presentation(params, geometry.BLOWUP)
            geometry.classical_presentation(params, geometry.BUNDLE)
            quantum.basis_corrections(bundle)
        presentations = {}
        for q in queries:
            child._evaluate(*child._parse_query(q, presentations))

    return run


def workload(name: str, seed: int) -> Callable[[], None]:
    """The run of a named workload; its inputs are drawn beforehand."""
    if name == "cli-oneshot":
        gen = _load("perfbench_gen", PERFBENCH / "gen.py")
        return _commands([argv for sweep in gen.cli_sweeps(seed) for argv in sweep])
    if name == "verify-grid":
        return _commands([GRID])
    return _session(seed)


def report(counts: dict[str, Counter]) -> str:
    """One line per (workload, called function), then one per function
    that no workload called."""
    width = max(map(len, [*counts, "uncalled"]))
    lines = []
    for name, calls in counts.items():
        for function, n in sorted(calls.items(), key=lambda item: (-item[1], item[0])):
            lines.append(f"{name:<{width}}  {n:>9}  {function}")
    called = set().union(*counts.values())
    lines += [f"{'uncalled':<{width}}  {'-':>9}  {function}"
              for function in package_functions() if function not in called]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = None
    if "--" in argv:
        argv, command = argv[: argv.index("--")], argv[argv.index("--") + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="count one workload here and print its counts as JSON")
    args = parser.parse_args(argv)
    if command is not None:
        counts = {"command": count_calls(_commands([command]))}
    elif args.workload:
        print(json.dumps(count_calls(workload(args.workload, args.seed))))
        return 0
    else:
        counts = {}
        for name in WORKLOADS:
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)],
                check=True, capture_output=True, text=True,
            ).stdout
            counts[name] = Counter(json.loads(out))
    print(report(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
