"""Acceptance suite: one test per criterion, exact values, no tolerances.

Grid: (m, p) in {(4,0), (6,1), (8,1), (9,2), (11,3)}.  Every check is an
exact integer or polynomial identity; the time bounds are generous
upper limits for a desk-scale machine.
"""

import json
import time

from qcblowup import (
    BLOWUP_TO_BUNDLE,
    BUNDLE_TO_BLOWUP,
    CurveClass,
    EXCEPTIONAL_LINE,
    FIBER_LINE,
    GWQuery,
    Ideal,
    Polynomial,
    anticanonical_class,
    blowup_variables,
    bundle_variables,
    change_vars,
    classical_presentation,
    classical_relations,
    contribution_by_class,
    derive_params,
    fano_positivity_check,
    gw_invariant,
    ideal_equal,
    integrate,
    moduli_dimension_identities,
    pair_divisor_curve,
    pairing_matrix,
    quantum_presentation,
    quantum_relations,
    segre_integral_oracle,
    verify_gw_identities,
    verify_quantum_presentation,
    virtual_dimension,
)
from qcblowup.cli import main
from bareiss import bareiss_determinant
from symmetry_oracle import verify_s3_symmetry

GRID = [(4, 0), (6, 1), (8, 1), (9, 2), (11, 3)]


def _announce(number, label):
    print(f"ACCEPTANCE criterion {number} PASS: {label}")


def test_criterion_1_presentation_fidelity(capsys):
    for m, p in GRID:
        start = time.perf_counter()
        code = main([
            "present", "--m", str(m), "--p", str(p),
            "--coords", "blowup", "--quantum", "--at-q-one", "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        elapsed = time.perf_counter() - start
        assert code == 0
        params = derive_params(m, p)
        kv = blowup_variables(params.r, params.n)
        k = Polynomial.variable(kv, "k")
        eta = Polynomial.variable(kv, "eta")
        expected = [str((k - eta) ** (m - p) - eta), str(k ** (p + 1) * eta - 1)]
        assert doc["payload"]["relations"] == expected
        # classical relations match the blow-up presentation exactly
        assert classical_relations(params, "blowup") == (
            (k - eta) ** (m - p), k ** (p + 1) * eta,
        )
        assert elapsed < 1.0, f"({m},{p}) took {elapsed:.2f}s"
    with capsys.disabled():
        _announce(1, "quantum blow-up relations at q1=q2=1 match on the grid, < 1 s each")


def test_criterion_2_gw_identity_suite(capsys):
    start = time.perf_counter()
    expected_section_counts = {}
    for m, p in GRID:
        params = derive_params(m, p)
        report = verify_gw_identities(params, b_max=2)
        assert report.ok, [(e.name, e.detail) for e in report.failures()]
        expected_section_counts[(m, p)] = params.r - 1
        # spot-check the headline values directly
        qp = quantum_presentation(params, "bundle")
        vs = qp.variables
        xi = Polynomial.variable(vs, "xi")
        h = Polynomial.variable(vs, "h")
        n, r = params.n, params.r
        point = h**n * xi ** (r - 1)
        assert gw_invariant(GWQuery(CurveClass(1, 0), xi, xi ** (r - 1), point), qp) == 1
        for j in range(1, n + 1):
            alpha, beta = h**j, h ** (n + 1 - j)
            assert gw_invariant(
                GWQuery(CurveClass(0, 1), alpha, beta, h**n * xi ** (r - 2)), qp
            ) == 1
            assert gw_invariant(
                GWQuery(CurveClass(0, 1), alpha, beta, h ** (n - 1) * xi ** (r - 1)), qp
            ) == r - 1
            combo = h ** (n - 1) * xi ** (r - 1) + (1 - r) * (h**n * xi ** (r - 2))
            assert gw_invariant(GWQuery(CurveClass(0, 1), alpha, beta, combo), qp) == 0
    elapsed = time.perf_counter() - start
    assert list(expected_section_counts.values()) == [1, 2, 2, 3, 4]
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    with capsys.disabled():
        _announce(2, f"three-point identity suite exact on the grid ({elapsed:.1f} s)")


def test_criterion_3_integration_oracle_equivalence(capsys):
    start = time.perf_counter()
    for m, p in GRID:
        params = derive_params(m, p)
        vs = bundle_variables(params.r, params.n)
        xi = Polynomial.variable(vs, "xi")
        h = Polynomial.variable(vs, "h")
        top = params.top_degree
        for a in range(params.n + 1):
            groebner = integrate(h**a * xi ** (top - a), params)
            oracle = segre_integral_oracle(params, a, top - a)
            assert groebner == oracle
    check = integrate(Polynomial.parse(bundle_variables(2, 3), "xi^4"), derive_params(4, 0))
    assert check == 15
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    with capsys.disabled():
        _announce(3, f"Groebner integration equals the series oracle ({elapsed:.1f} s)")


def test_criterion_4_structural_invariants(capsys):
    ranks = []
    for m, p in GRID:
        params = derive_params(m, p)
        bundle = classical_presentation(params, "bundle")
        blowup = classical_presentation(params, "blowup")
        assert bundle.quotient.rank == blowup.quotient.rank == params.rank
        ranks.append(bundle.quotient.rank)
        assert bareiss_determinant(pairing_matrix(bundle)) in (1, -1)
        vs = bundle.variables
        xi = Polynomial.variable(vs, "xi")
        h = Polynomial.variable(vs, "h")
        table = [
            [pair_divisor_curve(d, c, params) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
            for d in (xi - h, h)
        ]
        assert table == [[1, 0], [0, 1]]
        kv = blowup.variables
        k = Polynomial.variable(kv, "k")
        eta = Polynomial.variable(kv, "eta")
        btable = [
            [pair_divisor_curve(d, c, params) for c in (FIBER_LINE, EXCEPTIONAL_LINE)]
            for d in (k, eta)
        ]
        assert btable == [[1, 0], [1, -1]]
    assert ranks == [8, 15, 21, 28, 40]
    with capsys.disabled():
        _announce(4, f"ranks {ranks}, unimodular pairing, duality tables exact")


def test_criterion_5_ideal_correspondence(capsys):
    for m, p in GRID:
        params = derive_params(m, p)
        for build in (classical_relations, quantum_relations):
            bundle_rel = build(params, "bundle")
            blowup_rel = build(params, "blowup")
            bv, kv = bundle_rel[0].variables, blowup_rel[0].variables
            mapped = tuple(change_vars(g, BLOWUP_TO_BUNDLE) for g in blowup_rel)
            assert ideal_equal(Ideal(bv, mapped), Ideal(bv, bundle_rel))
            mapped_back = tuple(change_vars(g, BUNDLE_TO_BLOWUP) for g in bundle_rel)
            assert ideal_equal(Ideal(kv, mapped_back), Ideal(kv, blowup_rel))
    with capsys.disabled():
        _announce(5, "coordinate change maps classical and deformed ideals both ways")


def test_criterion_6_consistency_properties(capsys):
    for m, p in GRID:
        params = derive_params(m, p)
        for coords in ("bundle", "blowup"):
            qp = quantum_presentation(params, coords)
            specialized = tuple(g.substitute({"q1": 0, "q2": 0}) for g in qp.relations)
            assert specialized == classical_relations(params, coords)
        report = verify_quantum_presentation(params)
        assert report.ok, [(e.name, e.detail) for e in report.failures()]
    start = time.perf_counter()
    for m, p in GRID:
        params = derive_params(m, p)
        report = verify_s3_symmetry(params)
        assert report.ok, [e.detail for e in report.failures()]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"symmetry sweeps took {elapsed:.1f}s"
    # degree cutoff: contributions vanish below the threshold
    params = derive_params(4, 0)
    qp = quantum_presentation(params, "bundle")
    h = Polynomial.variable(qp.variables, "h")
    assert contribution_by_class(h, h, 1, 1, qp).is_zero
    with capsys.disabled():
        _announce(
            6,
            f"classical specialization, symmetry sweeps ({elapsed:.1f} s), "
            "integrality and degree cutoff all exact",
        )


def test_criterion_7_arithmetic_identities(capsys):
    for m, p in GRID:
        params = derive_params(m, p)
        assert fano_positivity_check(params, 5).ok
        assert moduli_dimension_identities(params).ok
        anti = anticanonical_class(params)
        for curve in (FIBER_LINE, EXCEPTIONAL_LINE, CurveClass(2, 1), CurveClass(1, 3)):
            expected = params.r * curve.a + params.n * curve.b + params.top_degree
            assert virtual_dimension(params, curve) == expected
            assert (
                pair_divisor_curve(anti, curve, params)
                == params.r * curve.a + params.n * curve.b
            )
    assert virtual_dimension(derive_params(4, 0), FIBER_LINE) == 6
    assert virtual_dimension(derive_params(4, 0), EXCEPTIONAL_LINE) == 7
    with capsys.disabled():
        _announce(7, "positivity, virtual dimensions and moduli identities exact")
