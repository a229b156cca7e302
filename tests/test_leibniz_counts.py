"""Work counts of the Leibniz-factored determining system.

A dictionary column p*Y is merged from the pieces R_{Y,K} of its base field
Y = d_j or g d_A.  So the member-4 README dictionary (degree 2, trig 2,
expw 1: 12 xi entries and 90 eta entries per dependent) prolongs each of
its 15 trig/exp factors g once and nothing else, not once per entry (102),
and a column with p = 1 is its piece R_{Y,()} itself, with no copy.  The
prolongations do not depend on the system, so they are kept across calls:
a second system on the same jets prolongs nothing, and its rows are those
of a cold start.
"""

from collections import Counter
from fractions import Fraction

from lieforge import expr_core, symmetry
from lieforge.expr_core import Expr, atoms_of, sym
from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.reduce import reduced_system
from lieforge.symmetry import _ResidualMap, ansatz_dictionary, determining_system
from lieforge.systems import PDESystem
from test_residual_map import unpacked


def test_member4_readme_dictionary_prolongs_each_factor_once(monkeypatch):
    prolonged = []
    prolong = symmetry.prolong_generator
    monkeypatch.setattr(symmetry, "prolong_generator",
                        lambda X, needed: prolonged.append(X) or prolong(X, needed))
    monkeypatch.setattr(expr_core, "_MEMO", {})  # a cold memo, as in a fresh process
    basis = ansatz_dictionary(REAL_JET, 2, 2, 1)
    det = determining_system(catalogue_member(4), basis)
    assert (det.n_unknowns, len(det.rows)) == (192, 5713)
    assert len(prolonged) <= 27
    # one table per factor g, prolonged as the eta-only field g d_v
    factors = ansatz_dictionary(REAL_JET, 0, 2, 1).slots[("eta", "v")]
    assert len(factors) == 15
    assert Counter(X.eta_of("v") for X in prolonged) == Counter(factors)
    assert all(not X.xi and list(X.eta) == ["v"] for X in prolonged)
    # the prolongations depend on no system: a time-scaled member 4 reuses them
    prolonged.clear()
    scaled = PDESystem(jet=REAL_JET, rhs={dep: Expr.rational(Fraction(3, 5)) * e
                                          for dep, e in catalogue_member(4).rhs.items()})
    assert len(determining_system(scaled, basis).rows) == 5713
    assert prolonged == []


def test_columns_with_p_one_are_their_pieces():
    """A column with p = 1 is the list R_{Y,()} the map holds; a column with
    p != 1 is a new list.  Either is one (integer terms, denominator) pair
    per equation."""
    for S in (catalogue_member(3), reduced_system(2)):
        rmap = _ResidualMap(S)
        indeps = {sym(i) for i in S.jet.independents}
        for key, _, e in ansatz_dictionary(S.jet, 1, 1, 1).columns():
            res = rmap.column(key, e)
            held = any(res is r for r in rmap.pieces.values())
            assert held == indeps.isdisjoint(atoms_of(e)), (S.label, key, e)
            assert len(res) == len(rmap.parts)
            for terms, den in unpacked(rmap, res):
                assert den.__class__ is int and den > 0
                assert all(q.__class__ is int and q for q in terms.values())


def _typed(det):
    return det.provenance, [[(k, q, q.__class__) for k, q in row.items()]
                            for row in det.rows]


def test_rows_are_the_same_on_a_cold_and_a_warm_memo(monkeypatch):
    """Prolongations kept across calls give the rows and provenance of fresh
    ones, also when another system with the same jets filled the memo."""
    for S in (catalogue_member(3), reduced_system(2)):
        basis = ansatz_dictionary(S.jet, 1, 1, 1)
        monkeypatch.setattr(expr_core, "_MEMO", {})
        cold = _typed(determining_system(S, basis))
        assert _typed(determining_system(S, basis)) == cold
        monkeypatch.setattr(expr_core, "_MEMO", {})
        scaled = PDESystem(jet=S.jet, rhs={d: Expr.rational(Fraction(-7, 2)) * e
                                           for d, e in S.rhs.items()}) \
            if isinstance(S, PDESystem) else reduced_system(2, Fraction(5, 3))
        determining_system(scaled, basis)
        assert _typed(determining_system(S, basis)) == cold
