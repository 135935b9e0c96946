"""Exact sparse multivariate polynomials over a fixed, weighted variable set.

A polynomial is a map from exponent tuples to exact rational coefficients;
the zero polynomial is the empty map and zero coefficients are never stored.
A coefficient is kept in one canonical form (:func:`_canonical`): an ``int``
when it is integral, a ``fractions.Fraction`` only when its denominator is
greater than 1.  Most numbers in this package are integers, so most
arithmetic runs on ``int``; code that reads coefficients may still use
``.numerator`` and ``.denominator``, which both types have.  All arithmetic
is exact.  Values are immutable after construction and every operation is a
pure function, so polynomials can be shared freely between threads.

Variables carry positive integer degree weights.  Two presets cover the
geometry in this package: projective-bundle coordinates ``(xi, h, q1, q2)``
and blow-up coordinates ``(k, eta, q1, q2)``.  The divisor variables have
weight 1 while the deformation parameters ``q1``, ``q2`` weigh ``r`` and
``n``, which keeps the deformed ring relations homogeneous.

The package uses one monomial order, graded-lex with the declared variable
precedence (:func:`grlex_key`), for every Groebner basis, staircase listing
and rendering.

Outside input (user-supplied term maps, :meth:`Polynomial.parse`,
:meth:`Polynomial.constant`, :meth:`Polynomial.variable`) goes through the
public constructor, which checks every exponent tuple, accepts only ``int``
and ``Fraction`` coefficients, brings them to canonical form and adds up
repeated monomials.
Every sum of terms here, in the constructor and in arithmetic alike, is
accumulated in a plain dict and cleaned once by :func:`_canonical_terms`,
so the results of arithmetic on valid polynomials already satisfy those
invariants and are wrapped as they are (:meth:`Polynomial._from_clean`).

Canonical text format (also consumed by the command line): terms sorted in
descending graded-lex order, each term
rendered as ``[sign]coef*var^exp*...`` with unit coefficients and exponent 1
omitted, e.g. ``h^4 - xi*q2 + 2*h*q2``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from operator import add, le, mul, sub
from typing import Union

from .errors import ParseError, UsageError
from .records import Frozen

# A scalar is an exact rational number in canonical form: an int when it is
# integral, else a Fraction (gcd-reduced, denominator > 1).
Scalar = Union[int, Fraction]

# A monomial is one non-negative exponent per variable of the VariableSet.
Mono = tuple[int, ...]

# Any int or Fraction, canonical or not (a Fraction may have denominator 1).
ScalarLike = Union[int, Fraction]


class VariableSet(Frozen):
    """An ordered list of named variables with integer degree weights.

    The listing order is the comparison precedence (most significant first).
    ``display`` permutes the names for rendering factors inside a term; the
    bundle preset writes base powers before fiber powers even though the
    fiber class has higher precedence.  The first ``divisor_count`` variables
    are geometric divisor classes; the remaining ones are deformation
    parameters.
    """

    __slots__ = _fields = ("names", "weights", "divisor_count", "display")

    def __init__(
        self,
        names: tuple[str, ...],
        weights: tuple[int, ...],
        divisor_count: int = -1,
        display: tuple[str, ...] = (),
    ) -> None:
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate variable names in {names}")
        if len(weights) != len(names):
            raise UsageError("one weight per variable required")
        if any(w <= 0 for w in weights):
            raise UsageError(f"weights must be positive, got {weights}")
        if divisor_count == -1:
            divisor_count = len(names)
        if not 0 <= divisor_count <= len(names):
            raise UsageError("divisor_count out of range")
        if not display:
            display = names
        if sorted(display) != sorted(names):
            raise UsageError("display must be a permutation of the variable names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "divisor_count", divisor_count)
        object.__setattr__(self, "display", display)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"unknown variable {name!r} (have {self.names})") from None

    def weighted_degree(self, mono: Mono) -> int:
        return sum(map(mul, mono, self.weights))

    def is_parameter_free(self, mono: Mono) -> bool:
        return not any(mono[self.divisor_count:])


@lru_cache(maxsize=128)
def bundle_variables(r: int, n: int) -> VariableSet:
    """Projective-bundle coordinates (xi, h, q1, q2) with weights (1,1,r,n).

    Comparison precedence is xi > h > q1 > q2; terms display as h-power
    times xi-power, the customary way to write the basis monomials.
    Interned: one shared instance per (r, n), and the bound holds a long
    grid, so the classes and rings of an instance carry the same object.
    """
    return VariableSet(
        ("xi", "h", "q1", "q2"),
        (1, 1, r, n),
        divisor_count=2,
        display=("h", "xi", "q1", "q2"),
    )


@lru_cache(maxsize=128)
def blowup_variables(r: int, n: int) -> VariableSet:
    """Blow-up coordinates (k, eta, q1, q2) with weights (1,1,r,n).
    Interned like :func:`bundle_variables`."""
    return VariableSet(("k", "eta", "q1", "q2"), (1, 1, r, n), divisor_count=2)


# The monomial kernels are the innermost calls of every product and
# reduction, so they loop in C: ``map`` over ``operator`` functions.


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """Quotient a / b; requires b | a."""
    if not all(map(le, b, a)):
        raise UsageError(f"{b} does not divide {a}")
    return tuple(map(sub, a, b))


def _canonical(c: ScalarLike) -> Scalar:
    """The canonical form of an exact rational: an ``int`` when it is
    integral, else a ``Fraction`` with denominator greater than 1."""
    if type(c) is int:
        return c
    return c.numerator if c.denominator == 1 else c


def _canonical_terms(terms: dict[Mono, ScalarLike]) -> dict[Mono, Scalar]:
    """The terms of a sum accumulated in a plain dict: cancelled terms
    dropped, every coefficient in canonical form.  One pass at the end of
    an accumulation costs less than a check on every addition."""
    return {m: c if type(c) is int else _canonical(c) for m, c in terms.items() if c}


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def grlex_key(mono: Mono) -> tuple[int, Mono]:
    """Sort key of the graded-lex order, ascending: total degree with every
    variable counting 1, ties broken by the declared variable precedence.
    1 is minimal and the order is multiplicative."""
    return (sum(mono), mono)


_NUMBER_RE = re.compile(r"(\d+)(?:/(\d+))?\Z")
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?\Z")
_TERM_SPLIT_RE = re.compile(r"[+-]?[^+-]+")


class Polynomial:
    """A sparse polynomial with exact rational coefficients, each an ``int``
    or a ``Fraction`` with denominator greater than 1.

    Instances are immutable; arithmetic returns new objects.  Operands of
    binary operations must share the same VariableSet.  The constructor
    validates its input; results of arithmetic skip that (see
    :meth:`_from_clean`).
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: VariableSet,
        terms: Mapping[Mono, ScalarLike] | Iterable[tuple[Mono, ScalarLike]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        nvars = len(variables)
        clean: dict[Mono, ScalarLike] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise UsageError(f"exponent tuple {mono} has wrong length for {variables.names}")
            if any(e < 0 or not isinstance(e, int) for e in mono):
                raise UsageError(f"exponents must be non-negative integers: {mono}")
            if not isinstance(coeff, (int, Fraction)):
                raise UsageError(f"coefficients must be int or Fraction, got {coeff!r}")
            clean[mono] = clean.get(mono, 0) + coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", _canonical_terms(clean))

    @classmethod
    def _from_clean(cls, variables: VariableSet, terms: dict[Mono, Scalar]) -> Polynomial:
        """Wrap terms produced by arithmetic on valid polynomials over
        ``variables``: exponent tuples of the right length and nonzero
        coefficients in canonical form.  Nothing is checked or copied, so the
        caller hands ``terms`` over and must not change it afterwards."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: VariableSet) -> Polynomial:
        return cls(variables)

    @classmethod
    def one(cls, variables: VariableSet) -> Polynomial:
        return cls.constant(variables, 1)

    @classmethod
    def constant(cls, variables: VariableSet, value: ScalarLike) -> Polynomial:
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: VariableSet, name: str) -> Polynomial:
        mono = [0] * len(variables)
        mono[variables.index(name)] = 1
        return cls(variables, {tuple(mono): 1})

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Mono) -> Scalar:
        return self.terms.get(tuple(mono), 0)

    def total_degree(self) -> int:
        """Largest unweighted degree among terms; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def weighted_degree(self) -> int:
        """Largest weighted degree among terms; -1 for the zero polynomial."""
        wd = self.variables.weighted_degree
        return max((wd(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        """True when all terms share one weighted degree (zero counts)."""
        degs = {self.variables.weighted_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Weighted degree of a nonzero homogeneous polynomial."""
        degs = {self.variables.weighted_degree(m) for m in self.terms}
        if len(degs) != 1:
            raise UsageError("polynomial is zero or not homogeneous")
        return degs.pop()

    def is_integral(self) -> bool:
        """True when every coefficient has denominator 1."""
        return all(c.denominator == 1 for c in self.terms.values())

    def is_parameter_free(self) -> bool:
        """True when no deformation parameter occurs."""
        return all(self.variables.is_parameter_free(m) for m in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check_same_variables(self, other: Polynomial) -> None:
        if self.variables != other.variables:
            raise UsageError(f"mixed variable sets: {self.variables} vs {other.variables}")

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            self._check_same_variables(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.variables, other)
        return None

    def __add__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in rhs.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial._from_clean(self.variables, _canonical_terms(out))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._from_clean(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.variables)
            return Polynomial._from_clean(
                self.variables, {m: _canonical(other * v) for m, v in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_variables(other)
        out: dict[Mono, Scalar] = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = get(m, 0) + c1 * c2
        return Polynomial._from_clean(self.variables, _canonical_terms(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise UsageError(f"exponent must be a non-negative integer, got {exponent!r}")
        if not exponent:
            return Polynomial.one(self.variables)
        if len(self.terms) == 1:  # (c m)^e = c^e m^e, with no product formed
            ((mono, c),) = self.terms.items()
            power = {tuple(exponent * x for x in mono): _canonical(c**exponent)}
            return Polynomial._from_clean(self.variables, power)
        # Square up to the lowest set bit and start from that power, so
        # e >= 1 takes bit_length(e) + popcount(e) - 2 products.
        base, e = self, exponent
        while not e & 1:
            base = base * base
            e >>= 1
        result = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    # -- substitution --------------------------------------------------------

    def substitute(self, values: Mapping[str, Polynomial | ScalarLike]) -> Polynomial:
        """Replace named variables by polynomials or scalars over the same set."""
        images: dict[str, Polynomial] = {}
        for name, val in values.items():
            self.variables.index(name)  # an unknown name raises
            if not isinstance(val, Polynomial):
                val = Polynomial.constant(self.variables, val)
            images[name] = val
        return self.map_variables(self.variables, images)

    def map_variables(
        self, target: VariableSet, images: Mapping[str, Polynomial]
    ) -> Polynomial:
        """Rewrite over a different variable set.

        Variables without an explicit image must exist under the same name in
        the target set.  Every image must be a polynomial over ``target``.
        """
        by_index: list[Polynomial] = []
        for name in self.variables.names:
            img = images.get(name)
            if img is None:
                img = Polynomial.variable(target, name)
            elif img.variables != target:
                raise UsageError("image polynomial is not over the target variable set")
            by_index.append(img)
        one = Polynomial.one(target)
        powers: dict[tuple[int, int], Polynomial] = {}
        out: dict[Mono, Scalar] = {}
        for mono, coeff in self.terms.items():
            factor = one
            for idx, e in enumerate(mono):
                if e:
                    power = powers.get((idx, e))
                    if power is None:
                        power = powers[(idx, e)] = by_index[idx] ** e
                    factor = power if factor is one else factor * power
            for m, c in factor.terms.items():
                out[m] = out.get(m, 0) + coeff * c
        return Polynomial._from_clean(target, _canonical_terms(out))

    # -- text format ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form; inverse of :meth:`parse`."""
        if self.is_zero:
            return "0"
        display_indices = [self.variables.names.index(n) for n in self.variables.display]
        pieces: list[str] = []
        for i, mono in enumerate(sorted(self.terms, key=grlex_key, reverse=True)):
            coeff = self.terms[mono]
            factors = [
                f"{self.variables.names[idx]}^{mono[idx]}"
                if mono[idx] > 1
                else self.variables.names[idx]
                for idx in display_indices
                if mono[idx]
            ]
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if i == 0:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append((" - " if coeff < 0 else " + ") + body)
        return "".join(pieces)

    @classmethod
    def parse(cls, variables: VariableSet, text: str) -> Polynomial:
        """Parse the canonical text format (no parentheses, ``^`` powers)."""
        s = text.replace(" ", "")
        if not s:
            raise ParseError("empty polynomial expression")
        if s == "0":
            return cls.zero(variables)
        chunks = _TERM_SPLIT_RE.findall(s)
        if "".join(chunks) != s:
            raise ParseError(f"cannot tokenize {text!r}")
        terms: list[tuple[Mono, ScalarLike]] = []
        for chunk in chunks:
            coeff: ScalarLike = 1
            body = chunk
            if body[0] in "+-":
                if body[0] == "-":
                    coeff = -1
                body = body[1:]
            if not body:
                raise ParseError(f"dangling sign in {text!r}")
            exps = [0] * len(variables)
            for part in body.split("*"):
                num = _NUMBER_RE.match(part)
                if num:
                    if num.group(2) and not int(num.group(2)):
                        raise ParseError(f"zero denominator in {text!r}")
                    value = int(num.group(1))
                    coeff *= Fraction(value, int(num.group(2))) if num.group(2) else value
                    continue
                fac = _FACTOR_RE.match(part)
                if not fac:
                    raise ParseError(f"bad factor {part!r} in {text!r}")
                exps[variables.index(fac.group(1))] += int(fac.group(2) or 1)
            terms.append((tuple(exps), coeff))
        return cls(variables, terms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"
