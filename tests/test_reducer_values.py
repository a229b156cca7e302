"""The Reducer's values kept as integer numerators over one denominator.

`Reducer` memoizes the value of each reduced atom `cleared`, as (numerator
with int coefficients, denominator), and takes each differential
consequence on the numerator.  The oracle is the peel loop on `Expr` values
with their own Fraction coefficients, kept below as `ExprReducer`: on
time-scaled systems, whose rules carry fractions, and on a generator whose
unknown functions carry rules of their own, `reduce` must give the same
expression, in terms, term order and coefficient types, and every memoized
numerator must hold ints only.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from lieforge import catalog
from lieforge.expr_core import DomainError, Expr, Func, Jet, atoms_of, jet, substitute
from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.symmetry import prolong_generator
from lieforge.systems import PDESystem, Reducer, _name, total_derivative

from test_residual_map import _member5, _scaled


class ExprReducer(Reducer):
    """The peel loop on `Expr` values, each with its own coefficients."""

    def _value(self, name, idx):
        key = (name, idx)
        got = self._memo.get(key)
        if got is not None:
            return got
        if key in self._memo:
            raise DomainError(f"cyclic rules: {name} differentiated by {''.join(idx)}")
        self._memo[key] = None
        var, m, rhs = self._rules[name]
        if len(idx) == m:
            val = self.reduce(rhs)
        else:
            i = var if idx.count(var) > m else \
                next(v for v in reversed(idx) if v != var)
            k = idx.index(i)
            val = self.reduce(total_derivative(
                self._value(name, idx[:k] + idx[k + 1:]), i))
        self._memo[key] = val
        return val

    def reduce(self, e):
        bindings = {atom: self._value(_name(atom), atom.idx) for atom in atoms_of(e)
                    if isinstance(atom, (Jet, Func)) and self._reducible(atom)}
        return substitute(e, bindings) if bindings else e

    def _reducible(self, atom):
        rule = self._rules.get(_name(atom))
        return rule is not None and atom.idx.count(rule[0]) >= rule[1]


def _jets(S, t_order, order):
    """Every jet of S up to `order` with 1..t_order t-derivatives, and the
    products of the first-order ones."""
    t, x = S.jet.independents
    out = [jet(dep, (t,) * a + (x,) * b).as_expr() for dep in S.jet.dependents
           for a in range(1, t_order + 1) for b in range(order + 1 - a)]
    firsts = [jet(dep, (t,)).as_expr() for dep in S.jet.dependents]
    return out + [p * q for p, q in combinations_with_replacement(firsts, 2)]


def _member2_family():
    S = _scaled(catalogue_member(2), Fraction(3, 4))
    X = catalog.family_member2()
    needed = {J for lead, rhs in S.equations()
              for J in [lead, *(a for a in atoms_of(rhs) if isinstance(a, Jet))]}
    return (S.equations() + [(uc.lead, uc.rhs) for uc in X.unknowns],
            [*prolong_generator(X, sorted(needed, key=lambda J: J.key)).values(),
             *X.xi.values(), *X.eta.values()] + _jets(S, 2, 4))


def _cases():
    m4 = _scaled(catalogue_member(4), Fraction(-7, 5))
    m5 = _scaled(_member5(), Fraction(11, 6))
    # D_x of the numerator 3 v_x^2 + 2 w_x^3 (over 6) has content 6, so its
    # value has integral coefficients that must be stored as ints
    powers = PDESystem(jet=REAL_JET, label="powers", rhs={
        "v": REAL_JET.parse("v_x^2/2 + w_x^3/3"), "w": REAL_JET.parse("w_xx")})
    return {"member 4 by -7/5": lambda: (m4.equations(), _jets(m4, 2, 6)),
            "member 5 by 11/6": lambda: (m5.equations(), _jets(m5, 2, 4)),
            "member 2 family": _member2_family,
            "powers": lambda: (powers.equations(), _jets(powers, 2, 4))}


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduce_matches_the_expr_peel_loop(name):
    rules, exprs = CASES[name]()
    got, want = Reducer(rules), ExprReducer(rules)
    for e in exprs:
        g, w = got.reduce(e), want.reduce(e)
        assert [(m, q, q.__class__) for m, q in g._terms.items()] == \
            [(m, q, q.__class__) for m, q in w._terms.items()], (name, e)
    assert any(q.__class__ is Fraction for v in want._memo.values() for q in v._terms.values())
    assert got._memo.keys() == want._memo.keys()
    bound = {atom: e for atom, e in got._exprs.items() if e is not None}
    assert bound.keys() == {a for a in got._exprs
                            if isinstance(a, (Jet, Func)) and want._reducible(a)}
    for atom, e in bound.items():  # the values reduce binds, canonical
        w = want._memo[_name(atom), atom.idx]
        assert [(m, q, q.__class__) for m, q in e._terms.items()] == \
            [(m, q, q.__class__) for m, q in w._terms.items()], atom
    for key, (num, den) in got._memo.items():
        assert den.__class__ is int and den > 0, key
        assert all(q.__class__ is int for q in num._terms.values()), key
        assert Expr({m: Fraction(q, den) for m, q in num._terms.items()}) == want._memo[key], key
