"""The verification suites that ``verify`` runs, their helpers, and the
body of that command.  Only a process that verifies compiles this module
and :mod:`qcblowup.report`, which only this module imports: the entry points
``geometry.verify_classical_geometry``, ``quantum.verify_gw_identities``,
``quantum.verify_quantum_presentation`` and ``cli.cmd_verify`` import it on
their first call.  It never imports :mod:`qcblowup.cli`, which under
``python -m qcblowup.cli`` runs as ``__main__`` and would be compiled twice.

Functions that are patched from outside (by the tests, or by the span
tracer of ``perfbench/tracer.py``, which wraps the names it finds in the
package's namespaces when installed) are called through their modules
(``geometry.integrate``, ``quantum.gw_invariant``): a from-import here
would keep the object that stood there when this module was first
imported, such as the wrapper of a tracer since uninstalled.
"""

from __future__ import annotations

from collections import Counter

from . import geometry, quantum
from .errors import UsageError
from .geometry import (
    BLOWUP, BUNDLE, EXCEPTIONAL_LINE, FIBER_LINE, CurveClass, GeometryParams, Presentation,
    _in_coords, anticanonical_class, derive_params, pair_divisor_curve, segre_integral_oracle,
    variables_for, virtual_dimension,
)
from .groebner import QuotientRing, _in_ideal
from .poly import Mono, Polynomial, mono_mul
from .quantum import GWQuery
from .report import CheckReport


def _carries_ideal(source: Presentation, target: Presentation) -> bool:
    """True iff the coordinate change carries the ideal of ``source`` into
    that of ``target``: each relation of ``source``, mapped, lies in the
    ideal of the basis ``target`` already holds (one reduction of the whole
    relation, which memoises nothing).  The inclusions both ways prove the
    two ideals equal."""
    basis = target.quotient.basis
    return all(_in_ideal(_in_coords(g, target.coords), basis) for g in source.relations)


def _bareiss(block: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): each division by the last pivot is exact, so all stay ``int``."""
    a, sign, prev = [list(row) for row in block], 1, 1
    for i in range(len(a)):
        p = next((j for j in range(i, len(a)) if a[j][i]), None)
        if p is None:
            return 0
        a[i], a[p], sign = a[p], a[i], sign if p == i else -sign
        pivot, tail = a[i][i], a[i][i + 1:]
        for row in a[i + 1:]:
            row[i + 1:] = [(x * pivot - row[i] * y) // prev for x, y in zip(row[i + 1:], tail)]
        prev = pivot
    return sign * prev


def block_determinant(matrix: list[list[int]], sizes: list[int]) -> int:
    """Determinant of an integer matrix whose rows and columns split into
    consecutive blocks of the given sizes s_0..s_k, row block i being zero
    outside column block k - i.  Reversing the column blocks, at the sign
    (-1)^(sum of s_i*s_j over i < j), leaves the diagonal blocks, each taken
    by :func:`_bareiss`; one that is not square makes the matrix singular.
    A pairing matrix qualifies with the group sizes of
    ``QuotientRing.by_degree``: graded-lex lists the staircase by degree, so
    the blocks are contiguous, and degree d pairs only with top - d (a
    degree with no complement has zero rows, and so a zero block)."""
    starts, k = [sum(sizes[:i]) for i in range(len(sizes))], len(sizes) - 1
    det = -1 if sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:]) % 2 else 1
    for i, (start, size) in enumerate(zip(starts, sizes)):
        if sizes[k - i] != size:
            return 0
        col = starts[k - i]
        det *= _bareiss([row[col:col + size] for row in matrix[start:start + size]])
    return det


def fano_positivity_check(params: GeometryParams, grid_bound: int = 5) -> CheckReport:
    """Verify anticanonical positivity and nef pairings on the grid of
    effective classes a, b in 0..grid_bound, (a, b) != (0, 0).  Pairings
    are linear in the class, so only the six extremal ones are integrated."""
    if grid_bound < 1:
        raise UsageError("grid_bound must be at least 1")
    xi, h = (Polynomial.variable(variables_for(params, BUNDLE), name) for name in ("xi", "h"))
    extremal = [
        [pair_divisor_curve(d, c, params) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
        for d in (anticanonical_class(params), xi - h, h)
    ]
    grid = range(grid_bound + 1)
    effective = [(a, b) for a in grid for b in grid if CurveClass(a, b).is_effective]
    violations = []
    for a, b in effective:
        deg, nef_fiber, nef_base = (a * d1 + b * d2 for d1, d2 in extremal)
        if deg <= 0:
            violations.append(f"-K.({a},{b}) = {deg}")
        if nef_fiber < 0:
            violations.append(f"(xi-h).({a},{b}) < 0")
        if nef_base < 0:
            violations.append(f"h.({a},{b}) < 0")
    report = CheckReport()
    detail = "; ".join(violations) or f"{len(effective)} effective classes checked"
    report.add("fano_positivity", not violations, detail)
    return report


def moduli_dimension_identities(params: GeometryParams) -> CheckReport:
    """The two dimension identities tying the unparametrized moduli spaces of
    the extremal classes to their expected dimensions."""
    n, r = params.n, params.r
    anti, report = anticanonical_class(params), CheckReport()
    for name, curve, expected in (
        ("fiber_moduli_dimension", FIBER_LINE, n + 2 * r - 4),
        ("exceptional_moduli_dimension", EXCEPTIONAL_LINE, 2 * n + r - 4),
    ):
        dimension = pair_divisor_curve(anti, curve, params) + params.top_degree - 3
        report.add(name, expected == dimension, f"{expected} vs {dimension}")
    return report


def classical_geometry_suite(params: GeometryParams, grid_bound: int = 5) -> CheckReport:
    """Run every classical cross-check for one (m, p) instance
    (``geometry.verify_classical_geometry``)."""
    report = CheckReport()
    n, r = params.n, params.r
    bundle = geometry.classical_presentation(params, BUNDLE)
    blowup = geometry.classical_presentation(params, BLOWUP)

    for pres in (bundle, blowup):
        rank = pres.quotient.rank
        report.add(f"staircase_rank_{pres.coords}", rank == params.rank,
                   f"rank {rank}, expected {params.rank}")

    # Coordinate change carries each classical ideal into the other, so
    # the two inclusions prove them equal.
    report.add("ideal_correspondence_to_bundle", _carries_ideal(blowup, bundle))
    report.add("ideal_correspondence_to_blowup", _carries_ideal(bundle, blowup))

    # Duality pairings: {xi-h, h} against {A1, A2} is the identity table;
    # the blow-up pairings of {k, eta} against the same classes.
    xi, h = (Polynomial.variable(bundle.variables, name) for name in ("xi", "h"))
    k, eta = (Polynomial.variable(blowup.variables, name) for name in ("k", "eta"))
    for name, divisors, expected in (("duality_pairing_table", (xi - h, h), [[1, 0], [0, 1]]),
                                     ("blowup_pairing_table", (k, eta), [[1, 0], [1, -1]])):
        table = [[int(pair_divisor_curve(d, c, params)) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
                 for d in divisors]
        report.add(name, table == expected, f"{table}")

    # Anticanonical degrees of the extremal classes.
    anti = anticanonical_class(params)
    report.add(
        "anticanonical_degrees",
        pair_divisor_curve(anti, FIBER_LINE, params) == r
        and pair_divisor_curve(anti, EXCEPTIONAL_LINE, params) == n,
    )

    # Integration normalization and top-row values.
    report.add(
        "integration_normalization",
        geometry.integrate(h**n * xi ** (r - 1), params) == 1
        and geometry.integrate(h ** (n - 1) * xi**r, params) == r + 1,
    )

    # Groebner integration agrees with the series oracle in every top degree.
    oracle_ok = all(
        geometry.integrate(h**a * xi ** (params.top_degree - a), params)
        == segre_integral_oracle(params, a, params.top_degree - a)
        for a in range(n + 1)
    )
    report.add("integration_oracle_agreement", oracle_ok)

    # The intersection pairing on the bundle staircase is unimodular (that
    # staircase is an integral basis of the cohomology).  The blow-up
    # staircase only spans a finite-index sublattice for p >= 1, so there
    # the pairing is merely required to be nondegenerate.
    det, det_blowup = (
        block_determinant(geometry.pairing_matrix(pres),
                          list(map(len, pres.quotient.by_degree.values())))
        for pres in (bundle, blowup)
    )
    report.add("pairing_unimodular", det in (1, -1), f"det {det}")
    report.add("pairing_nondegenerate_blowup", det_blowup != 0, f"det {det_blowup}")

    # Expected dimensions of the genus-0 moduli spaces.
    report.add(
        "virtual_dimensions",
        virtual_dimension(params, FIBER_LINE) == r + params.top_degree
        and virtual_dimension(params, EXCEPTIONAL_LINE) == n + params.top_degree
        and virtual_dimension(params, CurveClass(0, 0)) == params.top_degree,
    )

    report.merge(moduli_dimension_identities(params))
    report.merge(fano_positivity_check(params, grid_bound))
    return report


def _product_monomials(columns: dict[int, int]) -> list[Mono]:
    """The distinct products w = s*u of a staircase with ``columns[x]``
    monomials of xi degree x.  A staircase is a down-set, so column x holds
    h^0..h^(c-1) and the products' column at x + y runs to h^(c+d-2): pairs
    of columns are walked, not pairs of monomials."""
    tops: dict[int, int] = {}
    for x, c in columns.items():
        for y, d in columns.items():
            tops[x + y] = max(tops.get(x + y, 0), c + d - 1)
    return [(z, e, 0, 0) for z, top in sorted(tops.items()) for e in range(top)]


def _offenders(quotient: QuotientRing, failed: dict[Mono, str]) -> str:
    """Each pair i <= j of staircase positions, in order, whose product
    monomial w failed, named with the note ``failed[w]``: pairs are walked
    only to name offenders, once some piece has failed."""
    staircase, polys = quotient.staircase, quotient.staircase_polynomials()
    return "; ".join(
        f"{polys[i]} * {polys[j]}{failed[w]}" for i, s in enumerate(staircase)
        for j in range(i, len(staircase)) if (w := mono_mul(s, staircase[j])) in failed
    )


def gw_identity_suite(params: GeometryParams, b_max: int = 2) -> CheckReport:
    """The three families of three-point identities plus the deformed ring
    relations they imply (``quantum.verify_gw_identities``)."""
    if not params.in_range:
        raise UsageError("three-point identity suite requires 2p+3 < m (equivalently r < n)")
    if b_max < 1:
        raise UsageError("b_max must be at least 1")
    n, r = params.n, params.r
    qp = geometry.quantum_presentation(params, BUNDLE)
    vs = qp.variables
    xi, h, q1, q2 = (Polynomial.variable(vs, name) for name in ("xi", "h", "q1", "q2"))
    report = CheckReport()

    # Fiber-line count: one line in the fiber through a point, meeting one
    # hyperplane section of the fiber and the complementary power.
    point = h**n * xi ** (r - 1)
    val = quantum.gw_invariant(GWQuery(CurveClass(1, 0), xi, xi ** (r - 1), point), qp)
    report.add("fiber_point_count", val == 1, f"value {val}")

    # Exceptional-line counts for every split j + (n+1-j) of the base power.
    dual_a1 = h**n * xi ** (r - 2)
    section = h ** (n - 1) * xi ** (r - 1)
    combo = section + (1 - r) * dual_a1
    for j in range(1, n + 1):
        alpha, beta = h**j, h ** (n + 1 - j)
        v_point = quantum.gw_invariant(GWQuery(CurveClass(0, 1), alpha, beta, dual_a1), qp)
        v_section = quantum.gw_invariant(GWQuery(CurveClass(0, 1), alpha, beta, section), qp)
        v_combo = quantum.gw_invariant(GWQuery(CurveClass(0, 1), alpha, beta, combo), qp)
        report.add(f"exceptional_point_count[j={j}]", v_point == 1, f"value {v_point}")
        report.add(
            f"exceptional_section_count[j={j}]",
            v_section == r - 1,
            f"value {v_section}, expected {r - 1}",
        )
        report.add(f"exceptional_combination_vanishes[j={j}]", v_combo == 0, f"value {v_combo}")

    # Multiple-fiber-class vanishing: the (b, 0) contribution of a product of
    # basis classes dies whenever the fiber degrees sum below b*r.  phi and
    # the correction step only add q2 powers, so that piece of the quantum
    # product is the deformed ring's product w of the two staircase
    # monomials, read once per w.  The pairs i <= j are counted by column
    # (the ordered pairs plus the diagonal, halved) and named by _offenders.
    columns = Counter(s[0] for s in qp.quotient.staircase)  # s[0]: the xi degree
    for b in range(1, b_max + 1):
        failed = {
            w: f" -> {Polynomial._from_clean(vs, piece)}" for w in _product_monomials(columns)
            if w[0] < b * r and (piece := qp.quotient.product(w).get((b, 0)))
        }
        pairs = sum(c * d for x, c in columns.items() for y, d in columns.items() if x + y < b * r)
        checked = (pairs + sum(c for x, c in columns.items() if 2 * x < b * r)) // 2
        report.add(
            f"fiber_multiple_vanishing[b={b}]",
            not failed,
            _offenders(qp.quotient, failed) if failed else f"{checked} basis pairs checked",
        )

    # The deformed ring relations the counts above assemble into.
    nf = qp.quotient.normal_form
    base, fiber = nf(h ** (n + 1)), nf((xi - h) ** (r - 1) * (xi - 2 * h))
    report.add("deformed_base_relation", base == (xi - 2 * h) * q2, f"h^{n + 1} -> {base}")
    report.add("deformed_fiber_relation", fiber == q1, f"-> {fiber}")
    return report


def quantum_presentation_suite(params: GeometryParams) -> CheckReport:
    """Structural checks of the deformed presentation for one instance
    (``quantum.verify_quantum_presentation``)."""
    if not params.in_range:
        raise UsageError("quantum certification requires 2p+3 < m")
    report = CheckReport()
    qpb = geometry.quantum_presentation(params, BLOWUP)
    qpf = geometry.quantum_presentation(params, BUNDLE)

    # (k - eta)^(m-p) - eta and k^(p+1) eta - 1 at unit parameters.
    bvs = qpb.variables
    k, eta = (Polynomial.variable(bvs, name) for name in ("k", "eta"))
    expected = ((k - eta) ** (params.m - params.p) - eta, k ** (params.p + 1) * eta - 1)
    at_one = tuple(g.substitute({"q1": 1, "q2": 1}) for g in qpb.relations)
    report.add("unit_parameter_relations", at_one == expected, f"{[str(g) for g in at_one]}")

    # The coordinate change carries each deformed ideal into the other.
    report.add(
        "deformed_ideal_correspondence", _carries_ideal(qpb, qpf) and _carries_ideal(qpf, qpb)
    )

    # Homogeneity and rank preservation under deformation.
    report.add("relations_homogeneous",
               all(g.is_homogeneous() for g in qpb.relations + qpf.relations))
    report.add(
        "deformed_rank",
        qpb.quotient.rank == params.rank and qpf.quotient.rank == params.rank,
        f"blowup {qpb.quotient.rank}, bundle {qpf.quotient.rank}, expected {params.rank}",
    )

    # q -> 0, which keeps the parameter-free terms of each relation,
    # recovers the classical presentations exactly.
    for qp, coords in ((qpb, BLOWUP), (qpf, BUNDLE)):
        classical = geometry.classical_presentation(params, coords).relations
        free = qp.variables.is_parameter_free
        kept = ({m: c for m, c in g.terms.items() if free(m)} for g in qp.relations)
        specialized = tuple(Polynomial._from_clean(qp.variables, terms) for terms in kept)
        report.add(f"classical_specialization_{coords}", specialized == classical)

    # Products specialize too: the classical-class piece of the deformed
    # product is the classical product on every basis pair.  That piece of
    # the quantum product is the deformed ring's product (phi and the
    # correction step only add q2 powers), read once per product monomial.
    rings = (qpf.quotient, geometry.classical_presentation(params, BUNDLE).quotient)
    failed = {
        w: "" for w in _product_monomials(Counter(s[0] for s in qpf.quotient.staircase))
        if rings[0].product(w).get((0, 0)) != rings[1].product(w).get((0, 0))
    }
    report.add(
        "product_specialization",
        not failed,
        _offenders(qpf.quotient, failed) if failed else f"{qpf.quotient.rank} basis classes",
    )
    return report


# -- the verify command ---------------------------------------------------------


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        bounds = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise UsageError(f"bad range {text!r}") from None
    if not bounds:
        raise UsageError(f"empty range {text!r}")
    return bounds


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
    first, so that an exceeded budget fails the command; the suites then
    read the very rings stored, whatever the budget.
    """
    try:
        params = derive_params(m, p)
    except UsageError as exc:
        report = CheckReport()
        report.skip("parameters_valid", str(exc))
        return False, report
    for coords in (BUNDLE, BLOWUP):
        geometry.classical_presentation(params, coords, max_degree=budget)
        if params.in_range:
            geometry.quantum_presentation(params, coords, max_degree=budget)
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


def verify(args, budget: int | None) -> tuple[dict, str]:
    """The payload and the text of ``verify`` (``cli.cmd_verify``, which
    reads the degree budget and sets the status from ``payload["ok"]``)."""
    for flag, value in (("--b-max", args.b_max), ("--grid-bound", args.grid_bound)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    grid = args.grid_m or args.grid_p  # a grid takes neither --m nor --p, one instance both
    if sum(value is not None for value in (args.m, args.p)) != (0 if grid else 2):
        raise UsageError("give either --m and --p or --grid-m and --grid-p")
    if grid:
        if not (args.grid_m and args.grid_p):
            raise UsageError("--grid-m and --grid-p must be given together")
        ms, ps = _parse_range(args.grid_m), _parse_range(args.grid_p)
        pairs = [(m, p) for m in ms for p in ps]
        if not any(_valid(m, p) for m, p in pairs):
            raise UsageError(
                f"no valid (m, p) pair in --grid-m {args.grid_m} x --grid-p {args.grid_p}"
            )
    else:
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
    lines.append(f"overall: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    return {"instances": instances, "ok": ok}, "\n".join(lines)
