"""Buchberger as it ran before the chain criterion and the cached leading
monomials, kept as a test oracle for ``qcblowup.groebner.buchberger``: plain
Buchberger with the coprime-leading-term criterion and normal pair selection,
reading every leading monomial off its polynomial."""

from qcblowup.errors import BudgetError
from qcblowup.groebner import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_PAIRS,
    GroebnerBasis,
    Ideal,
    _monic,
    _reduce,
    spolynomial,
)
from qcblowup.poly import grlex_key, mono_divides, mono_lcm, mono_mul


def oracle_buchberger(
    ideal: Ideal, *, max_degree: int | None = None, max_pairs: int | None = None
) -> GroebnerBasis:
    """The reduced Groebner basis of an ideal, by the former loop."""
    degree_budget = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    pair_budget = DEFAULT_MAX_PAIRS if max_pairs is None else max_pairs

    basis = []
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
        lcm = mono_lcm(basis[i].leading_monomial(), basis[j].leading_monomial())
        return (grlex_key(lcm), i, j)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        treated += 1
        if treated > pair_budget:
            raise BudgetError(f"pair budget {pair_budget} exceeded")
        lmi = basis[i].leading_monomial()
        lmj = basis[j].leading_monomial()
        if mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
            continue  # coprime leading terms: S-polynomial reduces to zero
        reducers = tuple((p.leading_monomial(), p) for p in basis)
        remainder = _reduce(spolynomial(basis[i], basis[j]), reducers)
        if remainder.is_zero:
            continue
        if remainder.total_degree() > degree_budget:
            raise BudgetError(
                f"intermediate degree {remainder.total_degree()} exceeds budget {degree_budget}"
            )
        basis.append(_monic(remainder))
        pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))

    # Minimalize: drop elements whose leading term is divisible by another's.
    basis.sort(key=lambda p: grlex_key(p.leading_monomial()))
    minimal = []
    for p in basis:
        lm = p.leading_monomial()
        if not any(mono_divides(q.leading_monomial(), lm) for q in minimal):
            minimal.append(p)

    # Interreduce: every element fully reduced against the others.
    reduced = []
    for idx, p in enumerate(minimal):
        others = tuple(
            (q.leading_monomial(), q) for k, q in enumerate(minimal) if k != idx
        )
        reduced.append(_monic(_reduce(p, others)))
    reduced.sort(key=lambda p: grlex_key(p.leading_monomial()))
    return GroebnerBasis(ideal, tuple(reduced))
