"""The library's products by xi and h against the divisor-axiom formula
built from classical integrals (``tests/chevalley_oracle.py``)."""

from types import MappingProxyType

import pytest

import chevalley_oracle
from qcblowup import basis_corrections, derive_params, quantum, quantum_presentation
from qcblowup.poly import _canonical_terms

IN_RANGE = [(m, p) for m in range(4, 13) for p in range(m - 1) if 2 * p + 3 < m]
LADDER = [(8, 1), (11, 3), (16, 5)]


def test_the_grid_holds_the_25_in_range_instances():
    assert len(IN_RANGE) == 25


@pytest.mark.parametrize("m, p", IN_RANGE, ids=[f"m{m}p{p}" for m, p in IN_RANGE])
def test_divisor_products_equal_the_formula_from_classical_integrals(m, p):
    assert chevalley_oracle.differing_products(derive_params(m, p)) == []


def _naive(self, vec):
    # the correction step left out: the naive pieces, cleaned
    return {key: row for key, piece in vec.items() if (row := _canonical_terms(dict(piece)))}


@pytest.mark.parametrize("m, p, count", [(8, 1, 8), (11, 3, 24), (16, 5, 48)])
def test_the_formula_fails_without_the_correction_step(monkeypatch, m, p, count):
    monkeypatch.setattr(quantum._Kernel, "corrected", _naive)
    assert len(chevalley_oracle.differing_products(derive_params(m, p))) == count


@pytest.mark.parametrize("m, p", LADDER)
def test_the_formula_fails_with_one_correction_doubled(monkeypatch, m, p):
    corrections = dict(basis_corrections(quantum_presentation(derive_params(m, p), "bundle")))
    s = next(iter(corrections))
    corrections[s] = 2 * corrections[s]
    doubled = MappingProxyType(corrections)
    # a property on the class wins over the kernel's cached value
    monkeypatch.setattr(quantum._Kernel, "corrections", property(lambda self: doubled))
    assert len(chevalley_oracle.differing_products(derive_params(m, p))) == 5
