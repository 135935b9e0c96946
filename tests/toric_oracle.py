"""The presentations' data as ``qcblowup.geometry`` wrote it out by hand
before one toric table built it, kept as the reference that table is
compared with: the classical and deformed relations in both coordinate
systems, the coordinate change with its two hand-written images, and the
anticanonical class.  The bodies are the former library code.
"""

from qcblowup import CheckFailure, Polynomial, UsageError, chern_coefficients
from qcblowup.geometry import (
    BLOWUP,
    BLOWUP_TO_BUNDLE,
    BUNDLE_TO_BLOWUP,
    _binary_form,
    variables_for,
)
from qcblowup.poly import _canonical_terms, blowup_variables, bundle_variables


def classical_relations(params, coords):
    """The two classical relations in the requested coordinates, read off
    integer binomial rows with no polynomial power; in bundle coordinates
    the factored fiber relation must equal its Chern expansion."""
    vs = variables_for(params, coords)
    n, r = params.n, params.r
    # (k - eta)^(m-p) by eta power, or (xi - h)^(r-1) (xi - 2h) by h power
    a, b = (params.m - params.p, 0) if coords == BLOWUP else (r - 1, 1)
    row = _binary_form(a, b, ((1, -1), (1, -2)))
    first = Polynomial._from_clean(vs, {(a + b - j, j, 0, 0): c for j, c in enumerate(row) if c})
    if coords == BLOWUP:
        return first, Polynomial._from_clean(vs, {(params.p + 1, 1, 0, 0): 1})
    xi, h = Polynomial.variable(vs, "xi"), Polynomial.variable(vs, "h")
    chern = chern_coefficients(params)
    expanded = Polynomial.zero(vs)
    for k_ in range(r + 1):
        expanded = expanded + (-1) ** k_ * chern[k_] * h ** k_ * xi ** (r - k_)
    if first != expanded:
        raise CheckFailure("factored and Chern-expanded fiber relations disagree")
    return Polynomial._from_clean(vs, {(0, n + 1, 0, 0): 1}), first


def quantum_relations(params, coords):
    """The classical relations minus eta*q2 (E*q2 = (xi - 2h)*q2 in bundle
    coordinates) and minus q1."""
    base, fiber = classical_relations(params, coords)
    shift = {(0, 1, 0, 1): -1} if coords == BLOWUP else {(1, 0, 0, 1): -1, (0, 1, 0, 1): 2}
    deformed = tuple(
        Polynomial._from_clean(base.variables, {**rel.terms, **extra})
        for rel, extra in ((base, shift), (fiber, {(0, 0, 1, 0): -1}))
    )
    for rel in deformed:
        if not rel.is_homogeneous():
            raise CheckFailure(f"deformed relation {rel} is not graded-homogeneous")
    return deformed


def change_vars(f, direction):
    """k -> xi - h, eta -> xi - 2h forward; h -> k - eta, xi -> 2k - eta
    back; each monomial goes to one memoised binary form."""
    vs = f.variables
    if direction == BLOWUP_TO_BUNDLE:
        if vs.names != ("k", "eta", "q1", "q2"):
            raise UsageError("expected a polynomial in blow-up coordinates")
        target = bundle_variables(vs.weights[2], vs.weights[3])
        images = ((1, -1), (1, -2))  # k, eta in terms of (xi, h)
    elif direction == BUNDLE_TO_BLOWUP:
        if vs.names != ("xi", "h", "q1", "q2"):
            raise UsageError("expected a polynomial in bundle coordinates")
        target = blowup_variables(vs.weights[2], vs.weights[3])
        images = ((2, -1), (1, -1))  # xi, h in terms of (k, eta)
    else:
        raise UsageError(
            f"direction must be {BLOWUP_TO_BUNDLE!r} or {BUNDLE_TO_BLOWUP!r}, got {direction!r}"
        )
    out = {}
    for (a, b, s, t), coeff in f.terms.items():
        d = a + b
        for j, c in enumerate(_binary_form(a, b, images)):
            mono = (d - j, j, s, t)
            out[mono] = out.get(mono, 0) + coeff * c
    return Polynomial._from_clean(target, _canonical_terms(out))


def anticanonical_class(params):
    """The anticanonical divisor r*(xi - h) + n*h = r*xi + (n - r)*h."""
    vs = bundle_variables(params.r, params.n)
    xi = Polynomial.variable(vs, "xi")
    h = Polynomial.variable(vs, "h")
    return params.r * (xi - h) + params.n * h
