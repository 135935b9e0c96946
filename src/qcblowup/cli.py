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

from . import geometry
from .errors import BudgetError, CheckFailure, StructuralError, UsageError
from .geometry import CurveClass, derive_params
from .poly import Polynomial

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


def _parse_class(vs, text: str, budget: int | None) -> Polynomial:
    """A class given on the command line; under a budget its total degree is
    bounded as the degrees of a basis computation are."""
    cls = Polynomial.parse(vs, text)
    if budget is not None and cls.total_degree() > budget:
        raise BudgetError(f"class degree {cls.total_degree()} exceeds budget {budget}")
    return cls


def _document(command: str, request: dict, payload: dict, status: str) -> dict:
    return {
        "schema": SCHEMA,
        "status": status,
        "request": {"command": command, **request},
        "payload": payload,
    }


def _emit(doc: dict, as_json: bool, text: str) -> None:
    """Print the document.  A reader that closes the pipe early (``| head``)
    is not a failed check: the rest is dropped, and stdout is pointed at
    devnull so that the interpreter's final flush cannot raise again."""
    try:
        print(json.dumps(doc, indent=2, sort_keys=True) if as_json else text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# -- subcommand handlers -----------------------------------------------------


def cmd_present(args) -> tuple[dict, str, str]:
    params = derive_params(args.m, args.p)
    budget = _max_degree()
    if args.at_q_one and not args.quantum:
        raise UsageError("--at-q-one requires --quantum")
    build = geometry.quantum_presentation if args.quantum else geometry.classical_presentation
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
    from . import quantum

    params = derive_params(args.m, args.p)
    budget = _max_degree()
    vs = geometry.variables_for(params, args.coords)
    curve = _parse_curve(args.curve_class)
    alpha, beta, gamma = (
        _parse_class(vs, text, budget) for text in (args.alpha, args.beta, args.gamma)
    )
    # The invariant is read off the bundle rings in either coordinate
    # system; building them under the budget first lets an exceeded budget
    # fail the command, and stores the rings a raised budget admits for the
    # query kernel.
    geometry.classical_presentation(params, geometry.BUNDLE, max_degree=budget)
    geometry.quantum_presentation(params, geometry.BUNDLE, max_degree=budget)
    qp = geometry.quantum_presentation(params, args.coords, max_degree=budget)
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
        "certified": qp.certified,
    }
    text = (
        f"I_({curve.a},{curve.b})({alpha}, {beta}, {gamma}) = {value}"
        f"   [d = {d}"
        + ("" if admissible else ", inadmissible degrees: value 0")
        + ("]" if qp.certified else "; formal: 2p+3 < m fails]")
    )
    return payload, STATUS_OK, text


def cmd_integrate(args) -> tuple[dict, str, str]:
    params = derive_params(args.m, args.p)
    budget = _max_degree()
    vs = geometry.variables_for(params, args.coords)
    cls = _parse_class(vs, args.cls, budget)
    # integrate reads the stored bundle ring; building it under the budget
    # first lets an exceeded budget fail the command.
    geometry.classical_presentation(params, geometry.BUNDLE, max_degree=budget)
    groebner_value = geometry.integrate(cls, params)
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
    build = geometry.quantum_presentation if args.quantum else geometry.classical_presentation
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


def cmd_verify(args) -> tuple[dict, str, str]:
    from . import suites  # compiled only by the command that runs a suite

    payload, text = suites.verify(args, _max_degree())
    return payload, STATUS_OK if payload["ok"] else STATUS_CHECK_FAILED, text


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
        payload, status, text = {"error": str(exc)}, STATUS_USAGE_ERROR, f"error: {exc}"
    except (CheckFailure, StructuralError, BudgetError) as exc:
        payload, status, text = {"error": str(exc)}, STATUS_CHECK_FAILED, f"check failed: {exc}"
    _emit(_document(args.command, _request_echo(args), payload, status), args.json, text)
    return EXIT_FOR_STATUS[status]


if __name__ == "__main__":
    sys.exit(main())
