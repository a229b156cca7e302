"""Work counts of the Leibniz-factored determining system.

A dictionary column p*Y is merged from the pieces R_{Y,K} of its base field
Y = d_j or g d_A.  So the member-4 README dictionary (degree 2, trig 2,
expw 1: 12 xi entries and 90 eta entries per dependent) prolongs each of
its 15 trig/exp factors g once and nothing else, not once per entry (102),
and a column with p = 1 is the one summand R_{Y,()}, the map's own list.  The
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
from lieforge.symmetry import (
    VectorField, _ResidualMap, ansatz_dictionary, determining_system,
)
from lieforge.systems import PDESystem
from test_residual_map import reference_residual, residuals_of, typed


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
    """A column is its Leibniz summands (c, mono, d, R_{Y,K}), each R the list
    the map holds, read where it lies: a column with p = 1 is the single
    summand (1, 0, 1, R_{Y,()}), 0 packing the monomial 1, and a column with
    p != 1 one summand per K.
    Their sums are the reference residuals, in value and in type."""
    for S in (catalogue_member(3), reduced_system(2)):
        rmap, zero = _ResidualMap(S), (0,) * len(S.jet.independents)
        indeps = {sym(i) for i in S.jet.independents}
        for key, _, e in ansatz_dictionary(S.jet, 1, 1, 1).columns():
            col = rmap.column(key, e)
            assert all(any(r is held for held in rmap.pieces.values()) for *_, r in col)
            (m, _), = e._terms.items()
            if indeps.isdisjoint(atoms_of(e)):
                (c, mono, d, r), = col
                assert (c, mono, d) == (1, 0, 1), (S.label, key, e)
                assert r is rmap.pieces[(*key, m, zero)], (S.label, key, e)
            else:
                assert len(col) > 1, (S.label, key, e)
            ref = reference_residual(S, VectorField(S.jet, **{key[0]: {key[1]: e}}))
            assert typed(residuals_of(rmap, col)) == typed(ref), (S.label, key, e)


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


def test_an_xi_table_reduces_its_coefficient_once(monkeypatch):
    """The table of g d_x, g non-plain, reduces g once, not once per jet it holds."""
    rmap = _ResidualMap(catalogue_member(2))
    (g,) = REAL_JET.parse("v^2*w")._terms
    seen, reduce = [], rmap.reducer.reduce
    monkeypatch.setattr(rmap.reducer, "reduce", lambda e: seen.append(e) or reduce(e))
    table = rmap.table("xi", "x", g)
    assert len(table) > 1 and seen.count(Expr({g: 1})) == 1
