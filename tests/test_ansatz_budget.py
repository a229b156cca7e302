"""Dictionary sizes: `ansatz_dictionary` counts its columns before building
anything and refuses negative sizes and dictionaries above
MAX_ANSATZ_UNKNOWNS."""

from itertools import product

import pytest

from lieforge import symmetry
from lieforge.expr_core import DomainError, Sym, root, sym
from lieforge.hierarchy import REAL_JET
from lieforge.liealg import _const_dictionary
from lieforge.reduce import ODE_JET, ODE_JET_F
from lieforge.symmetry import MAX_ANSATZ_UNKNOWNS, ansatz_dictionary

# README defaults of members 1-4, the largest and the highest-degree
# dictionaries of the bench/ pools, and degree 40 (3444 unknowns), whose
# discovery on member 2 finishes in seconds
ADMITTED = [(1, 0, 0), (2, 0, 0), (1, 2, 0), (2, 2, 1), (3, 0, 0), (2, 1, 1),
            (40, 0, 0)]


@pytest.mark.parametrize("size", ADMITTED, ids=str)
def test_admitted_dictionaries_build(size):
    assert len(ansatz_dictionary(REAL_JET, *size).columns()) <= MAX_ANSATZ_UNKNOWNS


@pytest.mark.parametrize("jet_spec", [REAL_JET, ODE_JET, ODE_JET_F],
                         ids=["pde", "ode-fg", "ode-F"])
def test_budget_counts_the_columns_built(monkeypatch, jet_spec):
    for size in product(range(4), range(3), range(3)):
        n = len(ansatz_dictionary(jet_spec, *size).columns())
        monkeypatch.setattr(symmetry, "MAX_ANSATZ_UNKNOWNS", n)
        assert len(ansatz_dictionary(jet_spec, *size).columns()) == n
        monkeypatch.setattr(symmetry, "MAX_ANSATZ_UNKNOWNS", n - 1)
        with pytest.raises(DomainError, match=f"of {n} unknowns"):
            ansatz_dictionary(jet_spec, *size)
        monkeypatch.undo()


@pytest.mark.parametrize("jet_spec", [REAL_JET, ODE_JET, ODE_JET_F],
                         ids=["pde", "ode-fg", "ode-F"])
def test_dictionary_entries_are_distinct(jet_spec):
    n_indeps, n_deps = len(jet_spec.independents), len(jet_spec.dependents)
    for degree, trig, expw in product(range(4), range(3), range(3)):
        basis = ansatz_dictionary(jet_spec, degree, trig, expw)
        for entries in basis.slots.values():
            assert len(set(entries)) == len(entries)
        n_poly = degree + 1 if n_indeps == 1 else (degree + 1) * (degree + 2) // 2
        assert len(basis.columns()) == n_poly * (
            n_indeps + n_deps * (2 * trig + 1) * (2 * expw + 1))


@pytest.mark.parametrize("names", [[], ["c"], ["c", "k"], ["c", "sqrt c"],
                                   ["c", "k", "sqrt c", "sqrt k"]], ids=str)
def test_constant_dictionary_entries_are_distinct(names):
    params = [root(n[5:]) if n.startswith("sqrt ") else sym(n) for n in names]
    consts = _const_dictionary(params)
    n_syms = sum(isinstance(a, Sym) for a in params)
    assert len(set(consts)) == len(consts) == 5 ** n_syms * (len(params) - n_syms + 1)


@pytest.mark.parametrize("size", [(-1, 0, 0), (2, -3, 0), (2, 0, -2),
                                  (120, 0, 0), (0, 0, 1000)], ids=str)
def test_rejected_dictionaries(size):
    with pytest.raises(DomainError):
        ansatz_dictionary(REAL_JET, *size)
