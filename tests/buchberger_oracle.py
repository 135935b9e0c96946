"""Buchberger as it ran before the chain criterion, the cached leading
monomials and the integer kernel, kept as a test oracle for
``qcblowup.groebner``: plain Buchberger over ``Fraction`` with the
coprime-leading-term criterion and normal pair selection, reading every
leading monomial off its polynomial, and its monic division :func:`_reduce`,
the reference of ``normal_form``."""

from fractions import Fraction

from qcblowup.errors import BudgetError
from qcblowup.groebner import DEFAULT_MAX_DEGREE, DEFAULT_MAX_PAIRS, GroebnerBasis, Ideal
from qcblowup.poly import (
    Polynomial,
    _canonical,
    grlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def leading_term(f):
    """The leading monomial of a nonzero polynomial and its coefficient."""
    m = max(f.terms, key=grlex_key)
    return m, f.terms[m]


def leading_monomial(f):
    return leading_term(f)[0]


def spolynomial(f, g):
    """S-polynomial of f and g: the leading terms cancel against their lcm."""
    lmf, lcf = leading_term(f)
    lmg, lcg = leading_term(g)
    lcm = mono_lcm(lmf, lmg)
    tf = Polynomial._from_clean(f.variables, {mono_div(lcm, lmf): _canonical(Fraction(1, 1) / lcf)})
    tg = Polynomial._from_clean(g.variables, {mono_div(lcm, lmg): _canonical(Fraction(1, 1) / lcg)})
    return tf * f - tg * g


def _reduce(f, reducers):
    """Full remainder of f under division by monic reducers (lt, poly),
    scanning the remaining terms for the leading one at every step."""
    rest = dict(f.terms)
    get = rest.get
    out = {}
    while rest:
        mono = max(rest, key=grlex_key)
        coeff = rest.pop(mono)
        for lt, g in reducers:
            if mono_divides(lt, mono):
                t = mono_div(mono, lt)
                factor = -coeff
                for m2, c2 in g.terms.items():
                    if m2 != lt:
                        m = mono_mul(m2, t)
                        if c := get(m, 0) + factor * c2:
                            rest[m] = c
                        else:
                            del rest[m]  # cancelled
                break
        else:
            out[mono] = _canonical(coeff)
    return Polynomial._from_clean(f.variables, out)


def _monic(f):
    _, lc = leading_term(f)
    return f if lc == 1 else f * (Fraction(1) / lc)


def monic_reducers(gb):
    """The (leading monomial, polynomial) pairs of a basis, for :func:`_reduce`."""
    return tuple((leading_monomial(p), p) for p in gb.polys)


def oracle_buchberger(
    ideal: Ideal, *, max_degree: int | None = None, max_pairs: int | None = None
) -> GroebnerBasis:
    """The reduced Groebner basis of an ideal, by the former loop, with the
    largest total degree among the generators and the remainders."""
    degree_budget = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    pair_budget = DEFAULT_MAX_PAIRS if max_pairs is None else max_pairs

    basis = []
    peak = max(g.total_degree() for g in ideal.generators)
    for g in ideal.generators:
        if g.total_degree() > degree_budget:
            raise BudgetError(
                f"generator degree {g.total_degree()} exceeds budget {degree_budget}"
            )
        basis.append(_monic(g))

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    treated = 0

    def pair_key(pair):
        i, j = pair
        lcm = mono_lcm(leading_monomial(basis[i]), leading_monomial(basis[j]))
        return (grlex_key(lcm), i, j)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        treated += 1
        if treated > pair_budget:
            raise BudgetError(f"pair budget {pair_budget} exceeded")
        lmi = leading_monomial(basis[i])
        lmj = leading_monomial(basis[j])
        if mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
            continue  # coprime leading terms: S-polynomial reduces to zero
        reducers = tuple((leading_monomial(p), p) for p in basis)
        remainder = _reduce(spolynomial(basis[i], basis[j]), reducers)
        if remainder.is_zero:
            continue
        peak = max(peak, remainder.total_degree())
        if remainder.total_degree() > degree_budget:
            raise BudgetError(
                f"intermediate degree {remainder.total_degree()} exceeds budget {degree_budget}"
            )
        basis.append(_monic(remainder))
        pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))

    # Minimalize: drop elements whose leading term is divisible by another's.
    basis.sort(key=lambda p: grlex_key(leading_monomial(p)))
    minimal = []
    for p in basis:
        lm = leading_monomial(p)
        if not any(mono_divides(leading_monomial(q), lm) for q in minimal):
            minimal.append(p)

    # Interreduce: every element fully reduced against the others.
    reduced = []
    for idx, p in enumerate(minimal):
        others = tuple(
            (leading_monomial(q), q) for k, q in enumerate(minimal) if k != idx
        )
        reduced.append(_monic(_reduce(p, others)))
    reduced.sort(key=lambda p: grlex_key(leading_monomial(p)))
    return GroebnerBasis(ideal, tuple(reduced), peak)
