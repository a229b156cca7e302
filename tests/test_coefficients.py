"""Stored coefficients are exact and integer-first: an `int`, or a `Fraction`
whose denominator is above 1, never a float or a bool.  `terms()` and
`as_rational()` still hand out `Fraction`s, and exact linear algebra gives
on `int` rows exactly the `Fraction` results of the same rows written as
`Fraction`s."""

import random
from fractions import Fraction

import pytest

from lieforge.expr_core import (
    DomainError, Expr, ExpAtom, Recip, Trig, atoms_of, derive, jet, recip_e,
    substitute, sym,
)
from lieforge.linalg import nullspace, rref, solve_exact
from lieforge.systems import total_derivative

from exprgen import _atom_expr, random_tree, tree_to_expr

N_EXPRS = 300
SEED = 20261019


def _exprs():
    rng = random.Random(SEED)
    v, x = _atom_expr("v"), _atom_expr("x")
    return [tree_to_expr(random_tree(rng)) for _ in range(N_EXPRS)] + [
        recip_e(Expr.rational(2) * v + Expr.rational(3)) * x,
        recip_e(Expr.rational(Fraction(2, 3)) * x - v) ** 2,
    ]


def _stored_ok(e):
    """Every coefficient of e and of the arguments of its atoms."""
    for cur in [e] + [a.arg for a in atoms_of(e) if isinstance(a, (Trig, ExpAtom, Recip))]:
        for q in cur._terms.values():
            if not (type(q) is int or (type(q) is Fraction and q.denominator > 1)):
                return False
    return True


def _derived(e, f):
    bindings = {jet("v"): _atom_expr("w") * Expr.rational(Fraction(1, 2)) + _atom_expr("x"),
                jet("v", ("x",)): Expr.rational(3) * _atom_expr("t") - Expr.one(),
                sym("x"): Expr.rational(Fraction(2, 3)) * _atom_expr("x")}
    return [e + f, e - f, e * f, derive(e, sym("x")), derive(e, jet("v")),
            substitute(e, bindings), total_derivative(e, "x")]


def test_stored_coefficients_are_int_or_proper_fraction():
    exprs = _exprs()
    checked = 0
    for e, f in zip(exprs, exprs[1:] + exprs[:1]):
        for r in [e] + _derived(e, f):
            assert _stored_ok(r), r._terms
            assert all(type(q) is Fraction for _, q in r.terms())
            checked += 1
    assert checked >= 8 * N_EXPRS


def test_public_accessors_hand_out_fractions():
    for e in (Expr.rational(3), Expr.rational(Fraction(6, 2)), Expr.zero(),
              _atom_expr("x") - _atom_expr("x") + Expr.rational(2),
              Expr.rational(Fraction(1, 2)) * Expr.rational(4)):
        assert type(e.as_rational()) is Fraction
        assert all(type(q) is Fraction for _, q in e.terms())
    assert Expr.rational(Fraction(6, 2))._terms == {(): 3}
    assert type(Expr.rational(Fraction(6, 2))._terms[()]) is int
    assert type(Expr.rational(True)._terms[()]) is int


@pytest.mark.parametrize("q", [0.1, 1.0, 0.0, complex(1, 0), 1j], ids=repr)
def test_rational_rejects_inexact_input(q):
    with pytest.raises(DomainError):
        Expr.rational(q)


def test_key_and_hash_do_not_see_the_coefficient_type():
    three = Expr.rational(3)
    as_fraction = Expr({(): Fraction(3)})
    assert three._key() == as_fraction._key() and hash(three) == hash(as_fraction)
    x = _atom_expr("x")
    assert (x * Expr.rational(3))._key() == Expr({next(iter(x._terms)): Fraction(3)})._key()


def _random_rows(rng, n_rows, n_cols):
    rows = []
    for _ in range(n_rows):
        cols = rng.sample(range(n_cols), rng.randint(1, min(4, n_cols)))
        rows.append({c: rng.randint(-3, 3) for c in cols})
    return rows


def _typed(rows):
    return [sorted((c, type(v), v) for c, v in row.items()) for row in rows]


def _solved(cols, targets):
    """solve_exact's answer, or ValueError where it finds the columns dependent."""
    try:
        return solve_exact(cols, targets)
    except ValueError:
        return ValueError


def test_linalg_on_int_rows_equals_fraction_rows():
    rng = random.Random(SEED)
    seen = {True: 0, False: 0}  # dependent columns, independent ones
    for _ in range(60):
        n_cols = rng.randint(2, 7)
        ints = _random_rows(rng, rng.randint(1, 8), n_cols)
        fracs = [{c: Fraction(v) for c, v in row.items()} for row in ints]
        (pi, ci), (pf, cf) = rref(ints), rref(fracs)
        assert ci == cf and _typed(pi) == _typed(pf)
        assert _typed(nullspace(ints, n_cols)) == _typed(nullspace(fracs, n_cols))
        target = {r: rng.randint(-2, 2) for r in range(n_cols)}
        # dependent columns raise on both, independent ones solve alike
        xi = _solved(ints, [target])
        xf = _solved(fracs, [{r: Fraction(q) for r, q in target.items()}])
        assert xi == xf
        assert xi is ValueError or xi[0] is None or all(type(q) is Fraction
                                                        for q in xi[0].values())
        seen[xi is ValueError] += 1
    assert min(seen.values()) >= 10, seen
