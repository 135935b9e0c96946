"""The record types: construction and defaults, equality and hashing,
immutability and repr text."""

import copy

import pytest

from qcblowup import (
    CheckEntry,
    CheckReport,
    CurveClass,
    GeometryParams,
    GWQuery,
    Ideal,
    Polynomial,
    Presentation,
    QuotientRing,
    UsageError,
    VariableSet,
    bundle_variables,
    classical_presentation,
    derive_params,
)
from qcblowup.poly import blowup_variables

from elimination_oracle import Elimination

BV = bundle_variables(3, 4)
XI = Polynomial.variable(BV, "xi")
H = Polynomial.variable(BV, "h")
BV_REPR = (
    "VariableSet(names=('xi', 'h', 'q1', 'q2'), weights=(1, 1, 3, 4),"
    " divisor_count=2, display=('h', 'xi', 'q1', 'q2'))"
)


def ring(m=6, p=1, coords="bundle"):
    return classical_presentation(derive_params(m, p), coords)


def quotient_repr(q):
    return f"QuotientRing(basis={q.basis!r}, staircase={q.staircase!r})"


# (type, positional args, keyword args, an unequal value, repr)
def _cases():
    pres = ring()
    q = pres.quotient
    other_q = ring(6, 1, "blowup").quotient
    return [
        (GeometryParams, (6, 1), dict(m=6, p=1), GeometryParams(6, 2), "GeometryParams(m=6, p=1)"),
        (CurveClass, (1, 2), dict(a=1, b=2), CurveClass(2, 1), "CurveClass(a=1, b=2)"),
        (VariableSet, (("xi", "h", "q1", "q2"), (1, 1, 3, 4), 2, ("h", "xi", "q1", "q2")),
         dict(names=("xi", "h", "q1", "q2"), weights=(1, 1, 3, 4), divisor_count=2,
              display=("h", "xi", "q1", "q2")),
         bundle_variables(3, 5), BV_REPR),
        (Ideal, (BV, (H**5, XI)), dict(variables=BV, generators=(H**5, XI)),
         Ideal(BV, (H**5,)),
         f"Ideal(variables={BV_REPR}, generators=(Polynomial('h^5'), Polynomial('xi')))"),
        (QuotientRing, (q.basis, q.staircase), dict(basis=q.basis, staircase=q.staircase),
         QuotientRing(q.basis, q.staircase[:-1]), quotient_repr(q)),
        (Presentation, ("bundle", pres.params, False, pres.relations, q),
         dict(coords="bundle", params=pres.params, quantum=False,
              relations=pres.relations, quotient=q),
         Presentation("bundle", pres.params, False, pres.relations, other_q),
         f"Presentation(coords='bundle', params={pres.params!r}, quantum=False,"
         f" relations={pres.relations!r}, quotient={quotient_repr(q)})"),
        (Elimination, (2, {0: {0: 2, 1: 1}, 1: {1: 3}}, [], 6),
         dict(ncols=2, pivots={0: {0: 2, 1: 1}, 1: {1: 3}}, leftover=[], determinant=6),
         Elimination(2, {0: {0: 2, 1: 1}, 1: {1: 3}}, [], 5),
         "Elimination(ncols=2, pivots={0: {0: 2, 1: 1}, 1: {1: 3}}, leftover=[], determinant=6)"),
        (GWQuery, (CurveClass(1, 0), XI, H, XI**2),
         dict(curve=CurveClass(1, 0), alpha=XI, beta=H, gamma=XI**2),
         GWQuery(CurveClass(0, 1), XI, H, XI**2),
         "GWQuery(curve=CurveClass(a=1, b=0), alpha=Polynomial('xi'),"
         " beta=Polynomial('h'), gamma=Polynomial('xi^2'))"),
        (CheckEntry, ("rank", True, "ok", True),
         dict(name="rank", passed=True, detail="ok", skipped=True),
         CheckEntry("rank", True, "ok"),
         "CheckEntry(name='rank', passed=True, detail='ok', skipped=True)"),
        (CheckReport, ([CheckEntry("rank", False)],),
         dict(entries=[CheckEntry("rank", False)]),
         CheckReport(),
         "CheckReport(entries=[CheckEntry(name='rank', passed=False, detail='', skipped=False)])"),
    ]


CASES = _cases()
IDS = [case[0].__name__ for case in CASES]
FROZEN = {GeometryParams, CurveClass, VariableSet, Ideal, QuotientRing, Presentation,
          Elimination, GWQuery}
MUTABLE = {CheckEntry, CheckReport}


def test_the_cases_cover_every_record_type():
    assert {case[0] for case in CASES} == FROZEN | MUTABLE
    assert len(CASES) == 10


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_construction_equality_and_repr(cls, args, kwargs, other, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert a != other and not a == other
    assert repr(a) == repr(b) == text
    assert a != object() and (a == 1) is False


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_copies_are_equal(cls, args, kwargs, other, text):
    a = cls(*args)
    b = copy.copy(a)
    assert type(b) is cls and b == a and repr(b) == text


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_hashing(cls, args, kwargs, other, text):
    a, b = cls(*args), cls(**kwargs)
    if cls in MUTABLE or cls is Elimination:
        # mutable records, and a record holding dicts, are unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_frozen_records_refuse_assignment(cls, args, kwargs, other, text):
    a = cls(*args)
    field = text[text.index("(") + 1:text.index("=")]
    before = getattr(a, field)
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(a, field, before)
        with pytest.raises(AttributeError):
            delattr(a, field)
    else:
        setattr(a, field, before)
    assert getattr(a, field) is before


def test_geometry_params_derive_their_invariants():
    # two fields; n, r and the range flag follow from them, so no record
    # can carry a range flag that disagrees with (m, p)
    assert GeometryParams._fields == ("m", "p")
    for m, p, n, r, in_range in [(6, 1, 4, 3, True), (9, 3, 5, 5, False), (10, 3, 6, 5, True)]:
        params = GeometryParams(m, p)
        assert (params.n, params.r, params.in_range) == (n, r, in_range)
        assert params == derive_params(m, p) and hash(params) == hash(derive_params(m, p))
    with pytest.raises(TypeError):
        GeometryParams(6, 1, 4, 3, False)


def test_defaults():
    vs = VariableSet(("a", "b"), (1, 2))
    assert (vs.divisor_count, vs.display) == (2, ("a", "b"))
    assert repr(vs) == (
        "VariableSet(names=('a', 'b'), weights=(1, 2), divisor_count=2, display=('a', 'b'))"
    )
    assert VariableSet(("a", "b"), (1, 2), 1).divisor_count == 1
    assert VariableSet(("a", "b"), (1, 2), display=("b", "a")).display == ("b", "a")
    entry = CheckEntry("x", False)
    assert (entry.detail, entry.skipped) == ("", False)
    first, second = CheckReport(), CheckReport()
    assert first.entries == [] and first.entries is not second.entries
    first.add("x", True)
    assert second.entries == []


def test_variable_set_validation():
    for args, message in [
        ((("a", "a"), (1, 1)), "duplicate variable names"),
        ((("a",), (1, 1)), "one weight per variable required"),
        ((("a",), (0,)), "weights must be positive"),
        ((("a",), (1,), 2), "divisor_count out of range"),
        ((("a", "b"), (1, 1), 2, ("a", "c")), "display must be a permutation"),
    ]:
        with pytest.raises(UsageError, match=message):
            VariableSet(*args)


def test_ideal_keeps_its_validation():
    ideal = Ideal(BV, [XI, H])
    assert ideal.generators == (XI, H) and type(ideal.generators) is tuple
    for generators, message in [
        ((), "an ideal needs at least one generator"),
        ((Polynomial.variable(blowup_variables(3, 4), "k"),),
         "generator over a different variable set"),
        ((XI, Polynomial.zero(BV)), "zero generator"),
    ]:
        with pytest.raises(UsageError, match=message):
            Ideal(BV, generators)


def test_presentation_hash_reads_coords_params_and_quantum_only():
    pres = ring()
    other = ring(6, 1, "blowup")
    swapped = Presentation(
        pres.coords, pres.params, pres.quantum, other.relations, other.quotient
    )
    assert swapped != pres
    assert hash(swapped) == hash(pres)
    assert hash(pres) == hash(("bundle", pres.params, False))
    assert hash(Presentation("bundle", pres.params, True, pres.relations, pres.quotient)) != hash(pres)


def test_quotient_ring_keeps_its_cached_members_out_of_equality():
    q = ring().quotient
    fresh = QuotientRing(q.basis, q.staircase)
    q.product((1, 0, 0, 0)), q.gram  # built on first use
    built = {"_products", "gram"}
    assert built <= vars(q).keys() and not built & vars(fresh).keys()
    assert fresh == q and hash(fresh) == hash(q)
    assert fresh.staircase_set == frozenset(q.staircase)
    assert repr(fresh) == repr(q)


def test_merge_copies_entries():
    source = CheckReport()
    source.add("a", True, "x")
    source.skip("b", "y")
    target = CheckReport([CheckEntry("c", False)])
    target.merge(source)
    assert target.entries[1:] == source.entries
    assert all(t is not s for t, s in zip(target.entries[1:], source.entries))
    target.entries[1].detail = "changed"
    assert source.entries[0].detail == "x"
    assert str(target) == "[FAIL] c\n[ok] a (changed)\n[skip] b (y)"
