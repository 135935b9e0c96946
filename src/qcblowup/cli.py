"""Command-line front end.

Subcommands: ``present`` (ring presentations), ``gw`` (single three-point
invariant), ``verify`` (full verification suites, optionally over a grid),
``integrate`` (Groebner integral against the series oracle) and ``basis``
(staircase basis and intersection pairing).

Output is human-readable text by default; ``--json`` switches to a
deterministic JSON document (sorted keys, exact values only).  Exit codes:
0 ok, 1 check failure, 2 usage error.  The environment variable
``QC_MAX_DEGREE`` bounds the degree of intermediate basis computations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import geometry, quantum
from .errors import BudgetError, CheckFailure, StructuralError, UsageError
from .geometry import CurveClass, derive_params
from .poly import Polynomial
from .report import CheckReport

SCHEMA = "qcblowup/1"

STATUS_OK = "ok"
STATUS_CHECK_FAILED = "check-failed"
STATUS_USAGE_ERROR = "usage-error"

EXIT_FOR_STATUS = {STATUS_OK: 0, STATUS_CHECK_FAILED: 1, STATUS_USAGE_ERROR: 2}


def _max_degree() -> int | None:
    raw = os.environ.get("QC_MAX_DEGREE")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"QC_MAX_DEGREE must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError("QC_MAX_DEGREE must be positive")
    return value


def _parse_curve(text: str) -> CurveClass:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"curve class must be 'a,b', got {text!r}")
    try:
        return CurveClass(int(parts[0]), int(parts[1]))
    except ValueError:
        raise UsageError(f"curve class must be two integers, got {text!r}") from None


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        bounds = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise UsageError(f"bad range {text!r}") from None
    if not bounds:
        raise UsageError(f"empty range {text!r}")
    return bounds


def _document(command: str, request: dict, payload: dict, status: str) -> dict:
    return {
        "schema": SCHEMA,
        "status": status,
        "request": {"command": command, **request},
        "payload": payload,
    }


def _emit(doc: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)


# -- subcommand handlers -----------------------------------------------------


def cmd_present(args) -> tuple[dict, str, str]:
    params = derive_params(args.m, args.p)
    budget = _max_degree()
    if args.at_q_one and not args.quantum:
        raise UsageError("--at-q-one requires --quantum")
    build = quantum.quantum_presentation if args.quantum else geometry.classical_presentation
    pres = build(params, args.coords, max_degree=budget)
    relations = pres.relations
    if args.at_q_one:
        relations = tuple(g.substitute({"q1": 1, "q2": 1}) for g in relations)
    quotient = pres.quotient
    warnings: list[str] = []
    if not pres.certified:
        warnings.append(
            f"hypothesis 2p+3 < m fails (2p+3 = {2 * params.p + 3}, m = {params.m});"
            " quantum presentation is formal"
        )
    payload = {
        "m": params.m,
        "p": params.p,
        "n": params.n,
        "r": params.r,
        "in_range": params.in_range,
        "coords": args.coords,
        "quantum": args.quantum,
        "at_q_one": args.at_q_one,
        "certified": pres.certified,
        "relations": [str(g) for g in relations],
        "staircase": list(quotient.staircase_strings()),
        "rank": quotient.rank,
        "warnings": warnings,
    }
    lines = [
        f"blow-up of P^{params.m} along a P^{params.p}"
        f"  (n = {params.n}, r = {params.r}, in_range = {params.in_range})",
        f"coordinates: {args.coords}"
        + (" / quantum" if args.quantum else " / classical")
        + (" at q1 = q2 = 1" if args.at_q_one else ""),
    ]
    lines += [f"relation: {g}" for g in relations]
    lines.append(f"rank: {quotient.rank}")
    lines.append("basis: " + ", ".join(quotient.staircase_strings()))
    lines += [f"warning: {w}" for w in warnings]
    return payload, STATUS_OK, "\n".join(lines)


def cmd_gw(args) -> tuple[dict, str, str]:
    params = derive_params(args.m, args.p)
    budget = _max_degree()
    vs = geometry.variables_for(params, args.coords)
    curve = _parse_curve(args.curve_class)
    alpha = Polynomial.parse(vs, args.alpha)
    beta = Polynomial.parse(vs, args.beta)
    gamma = Polynomial.parse(vs, args.gamma)
    qp = quantum.quantum_presentation(params, args.coords, max_degree=budget)
    query = quantum.GWQuery(curve, alpha, beta, gamma)
    value = quantum.gw_invariant(query, qp)
    d = query.degree_budget
    admissible = query.admissible
    payload = {
        "value": int(value) if value.denominator == 1 else str(value),
        "curve_class": [curve.a, curve.b],
        "alpha": str(alpha),
        "beta": str(beta),
        "gamma": str(gamma),
        "d": d,
        "admissible": admissible,
        "reason": None if admissible else "degree",
        "certified": params.in_range,
    }
    text = (
        f"I_({curve.a},{curve.b})({alpha}, {beta}, {gamma}) = {value}"
        f"   [d = {d}"
        + ("" if admissible else ", inadmissible degrees: value 0")
        + ("]" if params.in_range else "; formal: 2p+3 < m fails]")
    )
    return payload, STATUS_OK, text


def cmd_integrate(args) -> tuple[dict, str, str]:
    params = derive_params(args.m, args.p)
    budget = _max_degree()
    vs = geometry.variables_for(params, args.coords)
    cls = Polynomial.parse(vs, args.cls)
    pres = geometry.classical_presentation(params, geometry.BUNDLE, max_degree=budget)
    groebner_value = geometry.integrate(cls, pres)
    oracle_value = geometry.oracle_integrate(cls, params)
    equal = groebner_value == oracle_value
    payload = {
        "class": str(cls),
        "groebner": str(groebner_value),
        "oracle": str(oracle_value),
        "equal": equal,
    }
    status = STATUS_OK if equal else STATUS_CHECK_FAILED
    text = f"integral of {cls}: groebner {groebner_value}, oracle {oracle_value}, equal {str(equal).lower()}"
    return payload, status, text


def cmd_basis(args) -> tuple[dict, str, str]:
    params = derive_params(args.m, args.p)
    build = quantum.quantum_presentation if args.quantum else geometry.classical_presentation
    pres = build(params, args.coords, max_degree=_max_degree())
    quotient = pres.quotient
    matrix = None if pres.quantum else geometry.pairing_matrix(pres)
    payload = {
        "coords": args.coords,
        "quantum": args.quantum,
        "staircase": list(quotient.staircase_strings()),
        "rank": quotient.rank,
        "pairing_matrix": matrix,
    }
    lines = [f"rank: {quotient.rank}"]
    lines.append("basis: " + ", ".join(quotient.staircase_strings()))
    if matrix is not None:
        lines.append("pairing matrix:")
        lines += ["  " + " ".join(f"{v:3d}" for v in row) for row in matrix]
    return payload, STATUS_OK, "\n".join(lines)


def _valid(m: int, p: int) -> bool:
    try:
        derive_params(m, p)
    except UsageError:
        return False
    return True


def _verify_instance(
    m: int, p: int, b_max: int, grid_bound: int, budget: int | None
) -> tuple[bool, CheckReport]:
    """The range flag and the check report of one (m, p) instance.

    The presentations the suites use are built under the degree budget
    first, so that an exceeded budget fails the command; without a budget
    they are the very cache entries the suites read.
    """
    try:
        params = derive_params(m, p)
    except UsageError as exc:
        report = CheckReport()
        report.skip("parameters_valid", str(exc))
        return False, report
    for coords in (geometry.BUNDLE, geometry.BLOWUP):
        geometry.classical_presentation(params, coords, max_degree=budget)
        if params.in_range:
            quantum.quantum_presentation(params, coords, max_degree=budget)
    report = geometry.verify_classical_geometry(params, grid_bound)
    if params.in_range:
        report.merge(quantum.verify_gw_identities(params, b_max))
        report.merge(quantum.verify_quantum_presentation(params))
    else:
        report.skip(
            "quantum_suite",
            f"hypothesis 2p+3 < m fails (2p+3 = {2 * p + 3}, m = {m}); quantum checks skipped",
        )
    return params.in_range, report


def cmd_verify(args) -> tuple[dict, str, str]:
    budget = _max_degree()
    for flag, value in (("--b-max", args.b_max), ("--grid-bound", args.grid_bound)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    if args.grid_m or args.grid_p:
        if not (args.grid_m and args.grid_p):
            raise UsageError("--grid-m and --grid-p must be given together")
        ms = _parse_range(args.grid_m)
        ps = _parse_range(args.grid_p)
        pairs = [(m, p) for m in ms for p in ps]
        if not any(_valid(m, p) for m, p in pairs):
            raise UsageError(
                f"no valid (m, p) pair in --grid-m {args.grid_m} x --grid-p {args.grid_p}"
            )
    else:
        if args.m is None or args.p is None:
            raise UsageError("give either --m and --p or --grid-m and --grid-p")
        derive_params(args.m, args.p)  # a bad single instance is a usage error, not a skip
        pairs = [(args.m, args.p)]
    instances: list[dict] = []
    lines: list[str] = []
    for m, p in pairs:
        in_range, report = _verify_instance(m, p, args.b_max, args.grid_bound, budget)
        instances.append(
            {"m": m, "p": p, "in_range": in_range, "ok": report.ok, "checks": report.as_dicts()}
        )
        lines += [f"== (m, p) = ({m}, {p}) ==", str(report)]
    ok = all(inst["ok"] for inst in instances)
    payload = {"instances": instances, "ok": ok}
    lines.append(f"overall: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    return payload, STATUS_OK if ok else STATUS_CHECK_FAILED, "\n".join(lines)


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcblowup",
        description=(
            "Exact classical and quantum cohomology presentations for the"
            " blow-up of projective space along a linear subspace."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, coords_default):
        p.add_argument("--m", type=int, required=True, help="ambient dimension")
        p.add_argument("--p", type=int, required=True, help="center dimension")
        p.add_argument(
            "--coords",
            choices=(geometry.BUNDLE, geometry.BLOWUP),
            default=coords_default,
            help=f"coordinate system (default {coords_default})",
        )
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    p_present = sub.add_parser("present", help="print a ring presentation")
    add_common(p_present, geometry.BLOWUP)
    p_present.add_argument("--quantum", action="store_true", help="deformed relations")
    p_present.add_argument(
        "--at-q-one", action="store_true", help="substitute q1 = q2 = 1"
    )
    p_present.set_defaults(handler=cmd_present)

    p_gw = sub.add_parser("gw", help="evaluate one three-point invariant")
    add_common(p_gw, geometry.BUNDLE)
    p_gw.add_argument(
        "--class", dest="curve_class", required=True, metavar="A,B",
        help="curve class as 'a,b'",
    )
    p_gw.add_argument("--alpha", required=True, help="first class (canonical format)")
    p_gw.add_argument("--beta", required=True, help="second class")
    p_gw.add_argument("--gamma", required=True, help="third class")
    p_gw.set_defaults(handler=cmd_gw)

    p_int = sub.add_parser(
        "integrate", help="integrate a class, with the series-oracle cross-check"
    )
    add_common(p_int, geometry.BUNDLE)
    p_int.add_argument(
        "--class", dest="cls", required=True, help="class in canonical format"
    )
    p_int.set_defaults(handler=cmd_integrate)

    p_basis = sub.add_parser("basis", help="staircase basis and pairing matrix")
    add_common(p_basis, geometry.BLOWUP)
    p_basis.add_argument("--quantum", action="store_true", help="deformed quotient")
    p_basis.set_defaults(handler=cmd_basis)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--m", type=int, help="ambient dimension")
    p_verify.add_argument("--p", type=int, help="center dimension")
    p_verify.add_argument("--grid-m", help="range of m, e.g. 4..12")
    p_verify.add_argument("--grid-p", help="range of p, e.g. 0..3")
    p_verify.add_argument(
        "--b-max", type=int, default=2, help="fiber-class multiplicity bound"
    )
    p_verify.add_argument(
        "--grid-bound", type=int, default=5, help="effective-class grid bound"
    )
    p_verify.add_argument("--json", action="store_true", help="emit a JSON document")
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def _request_echo(args) -> dict:
    skip = {"handler", "command", "json"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, status, text = args.handler(args)
    except UsageError as exc:
        doc = _document(args.command, _request_echo(args), {"error": str(exc)}, STATUS_USAGE_ERROR)
        _emit(doc, args.json, f"error: {exc}")
        return EXIT_FOR_STATUS[STATUS_USAGE_ERROR]
    except (CheckFailure, StructuralError, BudgetError) as exc:
        doc = _document(args.command, _request_echo(args), {"error": str(exc)}, STATUS_CHECK_FAILED)
        _emit(doc, args.json, f"check failed: {exc}")
        return EXIT_FOR_STATUS[STATUS_CHECK_FAILED]
    doc = _document(args.command, _request_echo(args), payload, status)
    _emit(doc, args.json, text)
    return EXIT_FOR_STATUS[status]


if __name__ == "__main__":
    sys.exit(main())
