"""Buchberger Groebner bases, normal forms and staircase quotient bases.

The instances handled here are tiny (a handful of generators in four
variables), so the implementation favours auditability: plain Buchberger
with the coprime-leading-term criterion and normal pair selection, followed
by minimalization and interreduction.  Computation is over the rationals;
callers that need integral results check integrality downstream.

A :class:`GroebnerBasis` is immutable once constructed and may be shared
between threads.  Normal forms of single monomials are memoized on the basis
object; the memo only ever stores idempotent recomputable values, so
concurrent duplicate writes are harmless.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, StructuralError, UsageError
from .poly import (
    Mono,
    Polynomial,
    VariableSet,
    _add_term,
    grlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

#: Default safety budgets; generous for every instance this package builds.
DEFAULT_MAX_DEGREE = 200
DEFAULT_MAX_PAIRS = 100_000


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal."""

    variables: VariableSet
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise UsageError("an ideal needs at least one generator")
        for g in self.generators:
            if g.variables != self.variables:
                raise UsageError("generator over a different variable set")
            if g.is_zero:
                raise UsageError("zero generator")


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no term of any element
    divisible by the leading term of another, sorted by ascending leading
    monomial."""

    __slots__ = ("ideal", "polys", "_reducers", "_nf_memo")

    def __init__(self, ideal: Ideal, polys: tuple[Polynomial, ...]) -> None:
        self.ideal = ideal
        self.polys = polys
        self._reducers = tuple((p.leading_monomial(), p) for p in polys)
        self._nf_memo: dict[Mono, Polynomial] = {}

    @property
    def variables(self) -> VariableSet:
        return self.ideal.variables

    def leading_monomials(self) -> tuple[Mono, ...]:
        return tuple(lm for lm, _ in self._reducers)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.polys == other.polys

    def __hash__(self) -> int:
        return hash(self.polys)

    def __repr__(self) -> str:
        return f"GroebnerBasis({[str(p) for p in self.polys]})"


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of f and g: the leading terms cancel against their lcm."""
    if f.variables != g.variables:
        raise UsageError("S-polynomial of polynomials over different variable sets")
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    lcm = mono_lcm(lmf, lmg)
    tf = Polynomial.monomial(f.variables, mono_div(lcm, lmf), Fraction(1, 1) / lcf)
    tg = Polynomial.monomial(g.variables, mono_div(lcm, lmg), Fraction(1, 1) / lcg)
    return tf * f - tg * g


def _reduce(f: Polynomial, reducers: tuple[tuple[Mono, Polynomial], ...]) -> Polynomial:
    """Full remainder of f under division by monic reducers (lt, poly)."""
    variables = f.variables
    rest = dict(f.terms)
    out: dict[Mono, Fraction] = {}
    while rest:
        mono = max(rest, key=grlex_key)
        coeff = rest.pop(mono)
        for lt, g in reducers:
            if mono_divides(lt, mono):
                t = mono_div(mono, lt)
                factor = -coeff
                for m2, c2 in g.terms.items():
                    if m2 != lt:
                        _add_term(rest, mono_mul(m2, t), factor * c2)
                break
        else:
            out[mono] = coeff
    return Polynomial._from_clean(variables, out)


def _monic(f: Polynomial) -> Polynomial:
    _, lc = f.leading_term()
    return f * (Fraction(1) / lc)


def buchberger(
    ideal: Ideal,
    *,
    max_degree: int | None = None,
    max_pairs: int | None = None,
) -> GroebnerBasis:
    """Compute the reduced Groebner basis of an ideal.

    Budgets guard against runaway computations: exceeding either the total
    degree of any intermediate element or the number of treated S-pairs
    raises :class:`BudgetError` rather than truncating.
    """
    degree_budget = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    pair_budget = DEFAULT_MAX_PAIRS if max_pairs is None else max_pairs

    basis: list[Polynomial] = []
    for g in ideal.generators:
        if g.total_degree() > degree_budget:
            raise BudgetError(
                f"generator degree {g.total_degree()} exceeds budget {degree_budget}"
            )
        basis.append(_monic(g))

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    treated = 0

    def pair_key(pair: tuple[int, int]):
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
    minimal: list[Polynomial] = []
    for p in basis:
        lm = p.leading_monomial()
        if not any(mono_divides(q.leading_monomial(), lm) for q in minimal):
            minimal.append(p)

    # Interreduce: every element fully reduced against the others.
    reduced: list[Polynomial] = []
    for idx, p in enumerate(minimal):
        others = tuple(
            (q.leading_monomial(), q) for k, q in enumerate(minimal) if k != idx
        )
        rem = _reduce(p, others)
        reduced.append(_monic(rem))
    reduced.sort(key=lambda p: grlex_key(p.leading_monomial()))
    return GroebnerBasis(ideal, tuple(reduced))


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the basis: no term divisible by any
    leading term; linear in f and idempotent."""
    if f.variables != gb.variables:
        raise UsageError("polynomial over a different variable set than the basis")
    out: dict[Mono, Fraction] = {}
    for mono, coeff in f.terms.items():
        for m, c in _normal_form_monomial(gb, mono).terms.items():
            _add_term(out, m, coeff * c)
    return Polynomial._from_clean(f.variables, out)


def _normal_form_monomial(gb: GroebnerBasis, mono: Mono) -> Polynomial:
    memo = gb._nf_memo
    cached = memo.get(mono)
    if cached is None:
        cached = _reduce(Polynomial.monomial(gb.variables, mono), gb._reducers)
        memo[mono] = cached
    return cached


@dataclass(frozen=True)
class QuotientRing:
    """A quotient by a Groebner basis together with its staircase.

    The staircase lists, in ascending graded-lex order, the monomials in the
    divisor variables not divisible by any leading term; deformation
    parameters are excluded from the listing, so for deformed ideals the
    quotient is a parameter-module on these monomials.
    """

    basis: GroebnerBasis
    staircase: tuple[Mono, ...]

    @property
    def rank(self) -> int:
        return len(self.staircase)

    @property
    def variables(self) -> VariableSet:
        return self.basis.variables

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis)

    def staircase_polynomials(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial.monomial(self.variables, m) for m in self.staircase)

    def staircase_strings(self) -> tuple[str, ...]:
        return tuple(str(p) for p in self.staircase_polynomials())


def staircase_basis(gb: GroebnerBasis) -> QuotientRing:
    """Enumerate the (finite) staircase of a basis in the divisor variables.

    Raises :class:`StructuralError` when some divisor variable has no pure
    power among the parameter-free leading terms, i.e. the staircase is
    infinite and the ideal is not the expected one.
    """
    variables = gb.variables
    nvars = len(variables)
    dc = variables.divisor_count
    qfree = [lm for lm in gb.leading_monomials() if variables.is_parameter_free(lm)]
    bounds: list[int] = []
    for i in range(dc):
        pure = [
            lm[i]
            for lm in qfree
            if all(lm[j] == 0 for j in range(nvars) if j != i)
        ]
        if not pure:
            raise StructuralError(
                f"staircase is infinite in variable {variables.names[i]!r}"
            )
        bounds.append(min(pure))
    staircase: list[Mono] = []
    for exps in itertools.product(*(range(b) for b in bounds)):
        mono = exps + (0,) * (nvars - dc)
        if not any(mono_divides(lm, mono) for lm in qfree):
            staircase.append(mono)
    staircase.sort(key=grlex_key)
    return QuotientRing(gb, tuple(staircase))


def ideal_equal(a: Ideal, b: Ideal, *, max_degree: int | None = None) -> bool:
    """True iff the two ideals coincide: every generator of each has normal
    form zero modulo the other's Groebner basis."""
    if a.variables != b.variables:
        raise UsageError("ideals over different variable sets")
    gb_a = buchberger(a, max_degree=max_degree)
    gb_b = buchberger(b, max_degree=max_degree)
    return all(normal_form(g, gb_b).is_zero for g in a.generators) and all(
        normal_form(g, gb_a).is_zero for g in b.generators
    )
