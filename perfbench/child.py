"""Code that runs inside the benchmark's measured child processes.

    python3 perfbench/child.py session --inputs F --out F --passes N [--setup-only] [--trace]
    python3 perfbench/child.py probed --out F -- ARGS...
    python3 perfbench/child.py cli --out F [--unit U] [--unit-per-instance] -- ARGS...
    python3 perfbench/child.py check --inputs F --out F

``session`` is the gw-session library process: it sets up the ladder,
answers the query stream in a closed loop and writes its measurements as
JSON.  ``probed`` runs one untraced ``qcblowup`` command under a sampler
of the reference kernel (see ``reference.py``).
``cli`` runs one traced ``qcblowup`` command.  The standard output of both
is the command's own.  ``check`` re-evaluates three-point queries with
their slots permuted (the Frobenius symmetry check).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _import_program() -> float:
    """Import the package and its CLI; returns seconds since process start."""
    import qcblowup.cli  # noqa: F401

    return time.perf_counter() - T0


def _write(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def _parse_query(q: dict, presentations):
    from qcblowup import geometry, quantum
    from qcblowup.poly import Polynomial

    params = geometry.derive_params(q["m"], q["p"])
    vs = geometry.variables_for(params, q["coords"])
    classes = [Polynomial.parse(vs, q[slot]) for slot in ("alpha", "beta", "gamma")]
    key = (q["m"], q["p"], q["coords"])
    if key not in presentations:
        presentations[key] = quantum.quantum_presentation(params, q["coords"])
    return geometry.CurveClass(*q["curve"]), classes, presentations[key]


def _evaluate(curve, classes, qp):
    """The invariant of a query.  A blow-up query is asked in bundle
    coordinates: its classes are carried over with ``change_vars`` and
    reduced to the classical staircase first, the form whose invariants are
    slot-symmetric.  The program's own blow-up path of ``gw_invariant``
    skips that reduction and gives wrong values, so it is not used."""
    from qcblowup import geometry, quantum

    if qp.coords == geometry.BLOWUP:
        reduce = geometry.classical_presentation(qp.params, geometry.BUNDLE).quotient.normal_form
        classes = [reduce(geometry.change_vars(c, geometry.BLOWUP_TO_BUNDLE)) for c in classes]
        qp = quantum.quantum_presentation(qp.params, geometry.BUNDLE)
    value = quantum.gw_invariant(quantum.GWQuery(curve, *classes), qp)
    return int(value) if value.denominator == 1 else str(value)


def _symmetry(curve, classes, qp) -> list:
    """Values of the query with its slots rotated and with the first two
    swapped; both must equal the original value."""
    a, b, c = classes
    return [_evaluate(curve, (b, c, a), qp), _evaluate(curve, (b, a, c), qp)]


def session(args) -> int:
    import reference
    from tracer import Tracer

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    tracer = Tracer() if args.trace else None
    # The untraced set-up (the import and the ladder) runs under a sampler
    # of the reference kernel.
    sampler = reference.Sampler()
    with contextlib.nullcontext() if tracer else sampler:
        start = time.perf_counter()
        _import_program()
        import_s = time.perf_counter() - start
        from qcblowup import geometry, quantum

        if tracer:
            tracer.install()
        for m, p in inputs["ladder"]:
            if tracer:
                tracer.set_unit(f"setup:{m},{p}")
            params = geometry.derive_params(m, p)
            bundle = quantum.quantum_presentation(params, geometry.BUNDLE)
            quantum.quantum_presentation(params, geometry.BLOWUP)
            geometry.classical_presentation(params, geometry.BUNDLE)
            quantum.basis_corrections(bundle)
        if tracer:
            tracer.uninstall()
        setup_wall_s = time.perf_counter() - start
    setup_s, setup_probe_s = sampler.stretches()
    result = {"import_s": import_s, "setup_wall_s": setup_wall_s, "setup_s": setup_s,
              "setup_probe_s": setup_probe_s}
    if args.setup_only:
        _write(args.out, result)
        return 0

    presentations: dict = {}
    for q in inputs["warmup"]:
        _evaluate(*_parse_query(q, presentations))
    parsed: dict[int, list] = {}

    def parse_pass(index: int) -> list:
        """The queries of a pass; the first pass (for the symmetry sample)
        and, in a traced run, the replayed passes are kept, so that parsing
        never runs under the tracer."""
        if index in parsed:
            return parsed[index]
        block = [_parse_query(q, presentations) for q in inputs["passes"][index]]
        if index == 0 or tracer:
            parsed[index] = block
        return block

    def run_pass(index: int, traced: bool):
        """One pass in a closed loop, one query at a time, parsed before its
        clock starts: its wall and CPU seconds, latencies, values, errors."""
        block = parse_pass(index % len(inputs["passes"]))
        lat_s, values, errors = [], [], []
        clock = time.perf_counter
        start, cpu = clock(), time.process_time()
        for qi, (curve, classes, qp) in enumerate(block):
            if traced:
                tracer.set_unit(f"q{index}.{qi}")
            t = clock()
            try:
                values.append(_evaluate(curve, classes, qp))
            except Exception as exc:  # a failed query is counted, not fatal
                values.append(None)
                errors.append(f"pass {index} query {qi}: {exc!r}")
            lat_s.append(clock() - t)
        return clock() - start, time.process_time() - cpu, lat_s, values, errors

    result.update(pass_s=[], pass_cpu_s=[], probe_s=[reference.probe()], lat_s=[], values=[],
                  errors=[])
    if tracer:
        # The traced run goes through its passes once to fill the memos for
        # them; then each pass runs untraced and at once traced, between
        # probes of the reference kernel, and the pair is compared in
        # reference seconds.
        for index in range(args.passes):
            run_pass(index, False)
        traced = {"pass_s": [], "overhead_s": [], "values": []}
    for index in range(args.passes):
        pass_s, cpu_s, lat_s, values, errors = run_pass(index, False)
        result["probe_s"].append(reference.probe())
        result["pass_s"].append(pass_s)
        result["pass_cpu_s"].append(cpu_s)
        result["lat_s"].append(lat_s)
        result["values"].append(values)
        result["errors"] += errors
        if tracer:
            tracer.install()
            traced_s, _, _, traced_values, _ = run_pass(index, True)
            tracer.uninstall()
            result["probe_s"].append(reference.probe())
            plain_ref, traced_ref = reference.scale([pass_s, traced_s], result["probe_s"][-3:])
            traced["pass_s"].append(traced_s)
            traced["overhead_s"].append(traced_ref - plain_ref)
            traced["values"].append(traced_values)

    result["symmetry"] = [
        {"index": i, "value": result["values"][0][i], "permuted": _symmetry(*parsed[0][i])}
        for i in inputs["sample"]
    ]

    if tracer:
        result["traced"] = {
            "overhead_s": traced["overhead_s"],
            "same_values": traced["values"] == result["values"],
            "wall_s": setup_wall_s + sum(traced["pass_s"]),
            "covered_s": tracer.covered(),
            "metrics": tracer.layer_metrics(),
            "cache": tracer.cache,
        }
        tracer.dump(args.out + ".spans")
    _write(args.out, result)
    return 0


def probed(args) -> int:
    """Run a command untraced under a sampler of the reference kernel."""
    import reference

    with reference.Sampler() as sampler:
        _import_program()
        from qcblowup import cli as program

        code = program.main(args.argv)
        sys.stdout.flush()
    durations_s, probe_s = sampler.stretches()
    _write(args.out, {"durations_s": durations_s, "probe_s": probe_s})
    return code


def cli(args) -> int:
    from tracer import Tracer

    import_s = _import_program()
    from qcblowup import cli as program
    from qcblowup import geometry

    tracer = Tracer()
    tracer.install()
    if args.unit:
        tracer.set_unit(args.unit)
    if args.unit_per_instance:
        traced_verify = geometry.verify_classical_geometry

        def per_instance(params, *rest, **kwargs):
            tracer.set_unit(f"{params.m},{params.p}")
            return traced_verify(params, *rest, **kwargs)

        geometry.verify_classical_geometry = per_instance
    code = program.main(args.argv)
    sys.stdout.flush()
    wall_s = time.perf_counter() - T0
    tracer.uninstall()
    _write(args.out, {
        "import_s": import_s,
        "wall_s": wall_s,
        "covered_s": tracer.covered(),
        "metrics": tracer.layer_metrics(),
        "cache": tracer.cache,
    })
    tracer.dump(args.out + ".spans")
    return code


def check(args) -> int:
    _import_program()
    with open(args.inputs) as fh:
        queries = json.load(fh)
    presentations: dict = {}
    out = [_symmetry(*_parse_query(q, presentations)) for q in queries]
    _write(args.out, {"permuted": out})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_session = sub.add_parser("session")
    p_session.add_argument("--inputs", required=True)
    p_session.add_argument("--out", required=True)
    p_session.add_argument("--trace", action="store_true")
    p_session.add_argument("--passes", type=int, required=True)
    p_session.add_argument("--setup-only", action="store_true")
    p_probed = sub.add_parser("probed")
    p_probed.add_argument("--out", required=True)
    p_probed.add_argument("argv", nargs=argparse.REMAINDER)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--out", required=True)
    p_cli.add_argument("--unit", default="")
    p_cli.add_argument("--unit-per-instance", action="store_true")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_check = sub.add_parser("check")
    p_check.add_argument("--inputs", required=True)
    p_check.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode in ("probed", "cli") and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"session": session, "probed": probed, "cli": cli, "check": check}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
