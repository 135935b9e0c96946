"""Buchberger Groebner bases, normal forms and staircase quotient bases.

The instances handled here are tiny (a handful of generators in four
variables), so the implementation favours auditability: Buchberger with
normal pair selection and the two classical criteria that skip a pair whose
S-polynomial reduces to zero (coprime leading terms, and the chain
criterion of Buchberger 1979; Cox, Little and O'Shea, *Ideals, Varieties,
and Algorithms*, ch. 2 Sec. 10), followed by minimalization and
interreduction.  One routine, :func:`_pseudo_reduce`, reduces fraction-free
(after Bareiss 1968) over primitive integer polynomials; results are exact
rationals, and callers that need integral ones check downstream.

A :class:`QuotientRing` is a basis with its staircase, and it multiplies
itself: :meth:`QuotientRing.product` gives the normal form of a monomial as
integer vectors over the staircase, from rows s*xi and s*h seeded once in
its one product memo.

A :class:`GroebnerBasis` is immutable once constructed and may be shared
between threads.  Normal forms of single monomials are memoized on the basis
object; the memo only ever stores idempotent recomputable values, so
concurrent duplicate writes are harmless.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, neg, sub
from types import MappingProxyType

from .errors import BudgetError, CheckFailure, StructuralError, UsageError
from .poly import (
    Mono,
    Polynomial,
    Scalar,
    VariableSet,
    _canonical,
    _canonical_terms,
    grlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .records import Frozen

#: Default safety budgets; generous for every instance this package builds.
DEFAULT_MAX_DEGREE = 200
DEFAULT_MAX_PAIRS = 100_000


class Ideal(Frozen):
    """A finitely generated ideal."""

    __slots__ = _fields = ("variables", "generators")

    def __init__(self, variables: VariableSet, generators: Sequence[Polynomial]) -> None:
        generators = tuple(generators)
        if not generators:
            raise UsageError("an ideal needs at least one generator")
        for g in generators:
            if g.variables != variables:
                raise UsageError("generator over a different variable set")
            if g.is_zero:
                raise UsageError("zero generator")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "generators", generators)


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no term of any element
    divisible by the leading term of another, sorted by ascending leading
    monomial.  ``peak_degree`` is the largest total degree among the
    generators and the S-pair remainders of the :func:`buchberger` run that
    produced the basis, so that run passes every degree budget at least that
    large."""

    __slots__ = ("ideal", "polys", "peak_degree", "_reducers", "_nf_memo")

    def __init__(self, ideal: Ideal, polys: tuple[Polynomial, ...], peak_degree: int) -> None:
        self.ideal = ideal
        self.polys = polys
        self.peak_degree = peak_degree
        self._reducers = tuple(map(_reducer, (p.terms for p in polys)))
        self._nf_memo: dict[Mono, Polynomial] = {}

    @property
    def variables(self) -> VariableSet:
        return self.ideal.variables

    def leading_monomials(self) -> tuple[Mono, ...]:
        return tuple(entry[0] for entry in self._reducers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.polys == other.polys

    def __hash__(self) -> int:
        return hash(self.polys)

    def __repr__(self) -> str:
        return f"GroebnerBasis({[str(p) for p in self.polys]})"


# A reducer is a primitive integer polynomial split for pseudo-reduction:
# its leading monomial, that monomial's coefficient and the other terms.
Reducer = tuple[Mono, int, tuple[tuple[Mono, int], ...]]


def _reducer(terms: dict[Mono, Scalar]) -> Reducer:
    """The primitive integer multiple of nonzero terms (denominators
    cleared, content divided out), split as a reducer."""
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    content, lm = gcd(*ints.values()), max(ints, key=grlex_key)
    return lm, ints[lm] // content, tuple((m, c // content) for m, c in ints.items() if m != lm)


def _pseudo_reduce(
    terms: dict[Mono, int], reducers: Sequence[Reducer]
) -> tuple[dict[Mono, int], int]:
    """Fraction-free full division: (r, s) with s > 0, no term of r divisible
    by a leading monomial and s*f - r in the ideal, so r/s is the remainder.
    Leading monomials come off a heap; the first reducer dividing one cancels
    it, after everything is scaled up by its leading coefficient over their
    gcd only when that coefficient does not divide the term's."""
    rest, out, scale = dict(terms), {}, 1
    # graded-lex reversed in each entry, so heapq pops the leading monomial
    heap = [(-sum(m), tuple(map(neg, m)), m) for m in rest]
    heapify(heap)
    while heap:
        mono = heappop(heap)[2]
        if not (coeff := rest.pop(mono, 0)):
            continue  # cancelled, or a stale second entry
        for lt, lc, tail in reducers:
            if all(map(le, lt, mono)):
                break
        else:
            out[mono] = coeff
            continue
        if coeff % lc:
            mult = abs(lc) // gcd(coeff, lc)
            scale, coeff = scale * mult, coeff * mult
            rest, out = ({m: c * mult for m, c in part.items()} for part in (rest, out))
        factor, t = -(coeff // lc), tuple(map(sub, mono, lt))
        for m2, c2 in tail:
            m = tuple(map(add, m2, t))
            if (c := rest.get(m)) is None:
                rest[m] = factor * c2
                heappush(heap, (-sum(m), tuple(map(neg, m)), m))
            elif c := c + factor * c2:
                rest[m] = c
            else:
                del rest[m]  # cancelled; its heap entry goes stale
    return out, scale


def _spair(f: Reducer, g: Reducer) -> dict[Mono, int]:
    """The integer S-polynomial of two reducers: each times the other's
    leading coefficient over their gcd, leading terms cancelled."""
    (lmf, lcf, tailf), (lmg, lcg, tailg) = f, g
    lcm_, d, out = mono_lcm(lmf, lmg), gcd(lcf, lcg), {}
    for tail, lt, scale in ((tailf, lmf, lcg // d), (tailg, lmg, -(lcf // d))):
        t = tuple(map(sub, lcm_, lt))
        for m, c in tail:
            m = tuple(map(add, m, t))
            out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def buchberger(
    ideal: Ideal,
    *,
    max_degree: int | None = None,
    max_pairs: int | None = None,
) -> GroebnerBasis:
    """Compute the reduced Groebner basis of an ideal.

    Budgets guard against runaway computations: exceeding either the total
    degree of any intermediate element or the number of treated S-pairs
    raises :class:`BudgetError` rather than truncating.  The elements stay
    primitive integer polynomials (:func:`_pseudo_reduce`).
    """
    degree_budget = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    pair_budget = DEFAULT_MAX_PAIRS if max_pairs is None else max_pairs

    degrees = [g.total_degree() for g in ideal.generators]
    if (over := next((d for d in degrees if d > degree_budget), None)) is not None:
        raise BudgetError(f"generator degree {over} exceeds budget {degree_budget}")
    reducers, peak = [_reducer(g.terms) for g in ideal.generators], max(degrees)
    lms = [lm for lm, _, _ in reducers]

    # Pending pairs (i, j), i < j, in the set the chain criterion reads and
    # on a heap popping them in the order of (lcm, i, j), each key made once.
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple[tuple[int, Mono], int, int]] = []
    treated = 0

    def add_pairs(j: int) -> None:
        for i in range(j):
            pairs.add((i, j))
            heappush(queue, (grlex_key(mono_lcm(lms[i], lms[j])), i, j))

    def chained(i: int, j: int, lcm: Mono) -> bool:
        """Buchberger's second criterion: some other leading monomial divides
        the lcm and neither of its pairs with i and j is still pending."""
        return any(
            k != i and k != j and mono_divides(lm, lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, lm in enumerate(lms)
        )

    for j in range(1, len(reducers)):
        add_pairs(j)
    while queue:
        (_, lcm), i, j = heappop(queue)
        pairs.discard((i, j))
        treated += 1
        if treated > pair_budget:
            raise BudgetError(f"pair budget {pair_budget} exceeded")
        if lcm == mono_mul(lms[i], lms[j]) or chained(i, j, lcm):
            continue  # the S-polynomial reduces to zero
        remainder, _ = _pseudo_reduce(_spair(reducers[i], reducers[j]), reducers)
        if not remainder:
            continue
        degree = max(map(sum, remainder))
        peak = max(peak, degree)
        if degree > degree_budget:
            raise BudgetError(f"intermediate degree {degree} exceeds budget {degree_budget}")
        reducers.append(_reducer(remainder))
        lms.append(reducers[-1][0])
        add_pairs(len(reducers) - 1)

    # Minimalize: drop elements whose leading term is divisible by another's.
    reducers.sort(key=lambda entry: grlex_key(entry[0]))
    minimal: list[Reducer] = []
    for entry in reducers:
        if not any(mono_divides(other[0], entry[0]) for other in minimal):
            minimal.append(entry)

    # Interreduce: every element fully reduced against the others, then
    # made monic.  The leading terms are untouched, so the order stays.
    reduced = []
    for idx, (lm, lc, tail) in enumerate(minimal):
        terms, _ = _pseudo_reduce({lm: lc, **dict(tail)}, minimal[:idx] + minimal[idx + 1:])
        lead = terms[lm]
        monic = {m: c // lead if not c % lead else Fraction(c, lead) for m, c in terms.items()}
        reduced.append(Polynomial._from_clean(ideal.variables, monic))
    return GroebnerBasis(ideal, tuple(reduced), peak)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the basis: no term divisible by any
    leading term; linear in f and idempotent.  The memoised normal forms of
    its monomials are summed into a plain dict and cleaned once
    (:func:`qcblowup.poly._canonical_terms`)."""
    if f.variables != gb.variables:
        raise UsageError("polynomial over a different variable set than the basis")
    out: dict[Mono, Scalar] = {}
    get = out.get
    for mono, coeff in f.terms.items():
        for m, c in _normal_form_monomial(gb, mono).terms.items():
            out[m] = get(m, 0) + coeff * c
    return Polynomial._from_clean(f.variables, _canonical_terms(out))


def _in_ideal(f: Polynomial, gb: GroebnerBasis) -> bool:
    """True iff f lies in the ideal: one :func:`_pseudo_reduce` of all of f,
    denominators cleared, leaves no remainder (and memoises nothing)."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
    return not _pseudo_reduce(ints, gb._reducers)[0]


def _normal_form_monomial(gb: GroebnerBasis, mono: Mono) -> Polynomial:
    memo = gb._nf_memo
    cached = memo.get(mono)
    if cached is None:
        terms, scale = _pseudo_reduce({mono: 1}, gb._reducers)
        if scale != 1:  # divide by the accumulated scale once
            terms = {m: _canonical(Fraction(c, scale)) for m, c in terms.items()}
        cached = memo[mono] = Polynomial._from_clean(gb.variables, terms)
    return cached


Vector = dict[tuple[int, int], dict[Mono, int]]  # q-power -> staircase monomial -> int


class QuotientRing(Frozen):
    """A quotient by a Groebner basis together with its staircase.

    The staircase lists, in ascending graded-lex order, the monomials in the
    divisor variables not divisible by any leading term; deformation
    parameters are excluded from the listing, so for deformed ideals the
    quotient is a parameter-module on these monomials, and the ring
    multiplies itself (:meth:`product`).  Its product memo,
    :attr:`staircase_set`, graded staircase :attr:`by_degree` and pairing
    :attr:`gram` are built on first use and kept outside equality and
    hashing, in the instance ``__dict__``.
    """

    _fields = ("basis", "staircase")

    def __init__(self, basis: GroebnerBasis, staircase: tuple[Mono, ...]) -> None:
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "staircase", staircase)

    @property
    def rank(self) -> int:
        return len(self.staircase)

    @property
    def variables(self) -> VariableSet:
        return self.basis.variables

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis)

    def staircase_polynomials(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial._from_clean(self.variables, {m: 1}) for m in self.staircase)

    def staircase_strings(self) -> tuple[str, ...]:
        return tuple(str(p) for p in self.staircase_polynomials())

    @cached_property
    def staircase_set(self) -> frozenset[Mono]:
        """The staircase as a set, for membership tests."""
        return frozenset(self.staircase)

    @cached_property
    def by_degree(self) -> MappingProxyType[int, tuple[Mono, ...]]:
        """The graded staircase, read-only: its monomials by weighted degree,
        ascending, each group a contiguous run of the staircase (graded-lex
        lists it by degree, as the divisor variables weigh 1)."""
        groups: dict[int, list[Mono]] = {}
        for s in self.staircase:
            groups.setdefault(self.variables.weighted_degree(s), []).append(s)
        return MappingProxyType({d: tuple(group) for d, group in groups.items()})

    def top_monomial(self, degree: int) -> Mono:
        """The one staircase monomial of a top degree, where classes pair."""
        if len(tops := self.by_degree.get(degree, ())) != 1:
            raise CheckFailure(f"{len(tops)} staircase monomials of top degree, expected 1")
        return tops[0]

    @cached_property
    def gram(self) -> MappingProxyType[Mono, tuple[tuple[Mono, Scalar], ...]]:
        """The pairing of complementary degrees, read-only: each staircase
        monomial s maps to the nonzero (u, c), u on the staircase of degree
        top - deg s and c the coefficient of the one top-degree staircase
        monomial in the normal form of s * u (memoised, so each distinct
        product is reduced once)."""
        by_degree, basis, rows = self.by_degree, self.basis, {}
        t = self.top_monomial(top := max(by_degree))
        for degree, group in by_degree.items():
            for s in group:
                rows[s] = tuple(
                    (u, c) for u in by_degree.get(top - degree, ())
                    if (c := _normal_form_monomial(basis, mono_mul(s, u)).terms.get(t, 0))
                )
        return MappingProxyType(rows)

    @cached_property
    def _composes(self) -> bool:
        """Whether the rows s*xi and s*h compose: where a parameter leads a
        basis element (n = 1), a staircase monomial times a q-power need not
        be a normal form."""
        return all(map(self.variables.is_parameter_free, self.basis.leading_monomials()))

    @cached_property
    def _products(self) -> dict[Mono, Vector]:
        """The memo of :meth:`product`, seeded on first use with each
        staircase monomial and, where the rows compose, each s*xi and s*h:
        one that is itself a staircase monomial is its own row, and only the
        others (at most 2*rank) are read off normal forms."""
        memo: dict[Mono, Vector] = {s: {(0, 0): {s: 1}} for s in self.staircase}
        for unit in ((1, 0, 0, 0), (0, 1, 0, 0)) if self._composes else ():
            for s in self.staircase:
                if (mono := mono_mul(s, unit)) not in memo:
                    memo[mono] = self._read(mono)
        return memo

    def _read(self, mono: Mono) -> Vector:
        """The normal form of a parameter-free monomial (the basis's memo),
        split by q-power; a rational one (classical blow-up rings with
        p >= 1) is refused."""
        f, out = _normal_form_monomial(self.basis, mono), {}
        for t, c in f.terms.items():
            s = t[:2] + (0, 0)
            if c.denominator != 1 or s not in self.staircase_set:
                raise CheckFailure(f"{f} is not an integral vector over the staircase")
            out.setdefault(t[2:], {})[s] = c.numerator
        return out

    def product(self, mono: Mono) -> Vector:
        """The normal form of a parameter-free monomial in the two divisor
        variables, as integer vectors over the staircase by q-power,
        memoised.  The quotient is a free Z[q1, q2]-module on the staircase,
        so the rows (:attr:`_products`) applied to the product one variable
        below give it (Auzinger-Stetter 1988; Cox, Little and O'Shea,
        *Using Algebraic Geometry*, ch. 2); where they do not compose
        (n = 1) it is read off the normal form."""
        memo = self._products
        if (out := memo.get(mono)) is None:
            if not self._composes:
                out = self._read(mono)
            else:
                # peel off the second variable first
                unit, out = (0, 1, 0, 0) if mono[1] else (1, 0, 0, 0), {}
                for (a, b), piece in self.product(mono_div(mono, unit)).items():
                    for s, c in piece.items():  # q1^a q2^b * c * (the row of s)
                        for (a2, b2), row in memo[mono_mul(s, unit)].items():
                            target = out.setdefault((a + a2, b + b2), {})
                            for t, ct in row.items():
                                target[t] = target.get(t, 0) + c * ct
            memo[mono] = out
        return out


def staircase_basis(gb: GroebnerBasis) -> QuotientRing:
    """Enumerate the (finite) staircase of a basis in the divisor variables.

    Raises :class:`StructuralError` when some divisor variable has no pure
    power among the parameter-free leading terms, i.e. the staircase is
    infinite and the ideal is not the expected one.
    """
    variables, dc = gb.variables, gb.variables.divisor_count
    qfree = [lm for lm in gb.leading_monomials() if variables.is_parameter_free(lm)]
    bounds: list[int] = []
    for i in range(dc):
        if not (pure := [lm[i] for lm in qfree if sum(lm) == lm[i]]):  # powers of variable i
            raise StructuralError(f"staircase is infinite in variable {variables.names[i]!r}")
        bounds.append(min(pure))
    # a run in the last divisor variable stops at its first leading multiple
    staircase: list[Mono] = []
    *heads, last_bound = bounds or [1]  # no divisor variable: the run of 1
    for head in itertools.product(*map(range, heads)):
        for last in range(last_bound):
            mono = (head + (last,))[:dc] + (0,) * (len(variables) - dc)
            if any(mono_divides(lm, mono) for lm in qfree):
                break
            staircase.append(mono)
    staircase.sort(key=grlex_key)
    return QuotientRing(gb, tuple(staircase))


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """True iff the two ideals coincide, that is iff their reduced Groebner
    bases are equal: a reduced basis is unique for an ideal and an order (Cox,
    Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 Sec. 7)."""
    if a.variables != b.variables:
        raise UsageError("ideals over different variable sets")
    return buchberger(a) == buchberger(b)
