"""Work counts of the Leibniz-factored determining system.

A dictionary column p*Y is merged from the pieces R_{Y,K} of its base field
Y = d_j or g d_A.  So the member-4 README dictionary (degree 2, trig 2,
expw 1: 12 xi entries and 90 eta entries per dependent) prolongs each of
its 15 trig/exp factors g once and nothing else, not once per entry (102),
and a column with p = 1 is its piece R_{Y,()} itself, with no copy.
"""

from collections import Counter

from lieforge import symmetry
from lieforge.expr_core import atoms_of, sym
from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.reduce import reduced_system
from lieforge.symmetry import _ResidualMap, ansatz_dictionary, determining_system


def test_member4_readme_dictionary_prolongs_each_factor_once(monkeypatch):
    prolonged = []
    prolong = symmetry.prolong_generator
    monkeypatch.setattr(symmetry, "prolong_generator",
                        lambda X, needed: prolonged.append(X) or prolong(X, needed))
    basis = ansatz_dictionary(REAL_JET, 2, 2, 1)
    det = determining_system(catalogue_member(4), basis)
    assert (det.n_unknowns, len(det.rows)) == (192, 5713)
    assert len(prolonged) <= 27
    # one table per factor g, prolonged as the eta-only field g d_v
    factors = ansatz_dictionary(REAL_JET, 0, 2, 1).slots[("eta", "v")]
    assert len(factors) == 15
    assert Counter(X.eta_of("v") for X in prolonged) == Counter(factors)
    assert all(not X.xi and list(X.eta) == ["v"] for X in prolonged)


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
            for terms, den in res:
                assert den.__class__ is int and den > 0
                assert all(q.__class__ is int and q for q in terms.values())
