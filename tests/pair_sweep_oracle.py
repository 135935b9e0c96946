"""The pair-by-pair sweeps of two verify checks, kept as test oracles for
``qcblowup.quantum``, which reads each product monomial w = s_i * s_j once
and only counts and names the pairs: :func:`model_piece` reads one pair's
piece off a ring's products, :func:`fiber_multiple_vanishing` and
:func:`product_specialization` give the (passed, detail) of the report
entries of the same names, as the checks gave them pair by pair."""

from qcblowup import Polynomial, classical_presentation
from qcblowup.poly import mono_mul


def model_piece(ring, x, y, key):
    """The nonzero terms of the piece at q-power ``key`` of x * y in a
    quotient ring (``QuotientRing.product``)."""
    return {t: c for t, c in ring.product(mono_mul(x, y)).get(key, {}).items() if c}


def fiber_multiple_vanishing(qp, b):
    """The (b, 0) piece of every basis pair whose xi degrees sum below b*r."""
    staircase = qp.quotient.staircase
    polys = qp.quotient.staircase_polynomials()
    offenders = []
    checked = 0
    for i in range(len(staircase)):
        for j in range(i, len(staircase)):
            if staircase[i][0] + staircase[j][0] >= b * qp.params.r:
                continue
            checked += 1
            if terms := model_piece(qp.quotient, staircase[i], staircase[j], (b, 0)):
                piece = Polynomial._from_clean(qp.variables, terms)
                offenders.append(f"{polys[i]} * {polys[j]} -> {piece}")
    return not offenders, "; ".join(offenders) if offenders else f"{checked} basis pairs checked"


def product_specialization(qpf):
    """The (0, 0) piece of every basis pair in the deformed bundle ring
    against the classical product."""
    rings = (qpf.quotient, classical_presentation(qpf.params, "bundle").quotient)
    staircase = qpf.quotient.staircase
    polys = qpf.quotient.staircase_polynomials()
    mismatches = []
    for i, si in enumerate(staircase):
        for j in range(i, len(staircase)):
            piece, expected = (model_piece(ring, si, staircase[j], (0, 0)) for ring in rings)
            if piece != expected:
                mismatches.append(f"{polys[i]} * {polys[j]}")
    return not mismatches, "; ".join(mismatches) if mismatches else f"{len(polys)} basis classes"
