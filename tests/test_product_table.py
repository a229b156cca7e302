"""The process-wide product table (`expr_core._PRODUCTS`) under `_accumulate`:
a product seen before is replayed from the table with the terms, term order
and coefficient types of a cold normalisation, a put at 1 adds what c * coeff
would, a zero coefficient adds nothing, a product outside the class raises
every time and is never kept, the table stays within its bound, and a
repeated bracket table normalises nothing."""

import random
from fractions import Fraction

import pytest

from lieforge import catalog
from lieforge import expr_core as ec
from lieforge.expr_core import (
    I, DomainError, Expr, _accumulate, _is_plain, _put, cos_e, exp_e, func,
    recip_e, root, sin_e, sym, tan_e,
)
from lieforge.liealg import structure_constants

from exprgen import _atom_expr, random_tree, tree_to_expr

SEED = 20261019
COEFFS = [1, -1, Fraction(3, 7), 2]


@pytest.fixture
def table(monkeypatch):
    """An empty table for the test, as in a fresh process."""
    monkeypatch.setattr(ec, "_PRODUCTS", {})
    return ec._PRODUCTS


def _root_monomials():
    """Monomials with sqrt(c) next to trig, exp and I, which exprgen does not draw."""
    r, c, x, v = root("c").as_expr(), sym("c").as_expr(), _atom_expr("x"), _atom_expr("v")
    es = [r * sin_e(x), r * exp_e(I.as_expr() * x) * c, r * I.as_expr(),
          r * cos_e(v - x) * tan_e(x), r * exp_e(-v)]
    return [m for e in es for m in e._terms]


def _plain_monomials():
    """Plain monomials with negative powers, powers that cancel one another's,
    an unknown function, and the empty monomial."""
    x, v, vx = _atom_expr("x"), _atom_expr("v"), _atom_expr("v_x")
    a = func("a", ("t", "x")).as_expr()
    es = [x ** -2 * v ** 3, x ** 2 * v ** -3, vx ** -1 * a ** -2, a ** 2 * vx, x, Expr.one()]
    return [m for e in es for m in e._terms]


def _factor_lists():
    """Products of two canonical monomials, seeded: 300 of two non-plain
    ones, then every product of a plain one with a plain one or with one of
    ten non-plain ones, on either side."""
    rng = random.Random(SEED)
    monos = _root_monomials()
    while len(monos) < 120:
        monos += [m for m in tree_to_expr(random_tree(rng))._terms if not _is_plain(m)]
    lists = [rng.choice(monos) + rng.choice(monos) for _ in range(300)]
    plain, some = _plain_monomials(), rng.sample(monos, 10)
    return lists + [p + m for p in plain for m in plain + some] + \
        [m + p for p in plain for m in some]


def _run(calls, cold):
    out = {}
    for fl, q in calls:
        if cold:
            ec._PRODUCTS.clear()
        _accumulate(out, fl, q)
    return [(m, q, q.__class__) for m, q in out.items()]


def _atom(e: Expr):
    """The atom of a single-atom expression."""
    (mono,) = e._terms
    return mono[0][0]


@pytest.mark.parametrize("q", COEFFS, ids=str)
def test_replay_matches_a_cold_normalisation(table, q):
    lists = _factor_lists()
    kinds = {a.__class__.__name__ for fl in lists for a, _ in fl}
    assert {"Trig", "ExpAtom", "IUnit", "Root"} <= kinds
    for fl in lists:
        cold = _run([(fl, q)], cold=True)
        assert table  # the cold call filled its entry
        assert _run([(fl, q)], cold=False) == cold
    # one shared accumulator: merges and cancellations across products agree too
    calls = [(fl, q * (-1) ** k) for k, fl in enumerate(lists + lists[::3])]
    assert _run(calls, cold=False) == _run(calls, cold=True)
    # halves of product-to-sum doubled are integral: the replay stores them as ints
    types = {t for *_, t in _run(calls, cold=False)}
    assert types == {1: {int, Fraction}, -1: {int, Fraction}, 2: {int}}.get(q, {Fraction})


def test_replay_keeps_every_put_in_order(table):
    """sin(x)^2*cos(x) puts cos(3x) at -1/4, cos(x) at -1/4, then cos(x) at
    1/2: on an accumulator holding cos(x)/4 the second put cancels it and the
    third adds it again, last, as an unmemoized normalisation does."""
    x = _atom_expr("x")
    cos_x, cos_3x = ((_atom(cos_e(x)), 1),), ((_atom(cos_e(3 * x)), 1),)
    fl = ((_atom(sin_e(x)), 2), (_atom(cos_e(x)), 1))
    for _ in range(2):  # cold, then warm
        out = {(): 1, cos_x: Fraction(1, 4)}
        _accumulate(out, fl, 1)
        assert list(out.items()) == [((), 1), (cos_3x, Fraction(-1, 4)),
                                     (cos_x, Fraction(1, 2))]
        assert tuple(fl) in table


def test_expression_products_match_cold_and_warm(table):
    rng = random.Random(SEED + 1)
    exprs = [tree_to_expr(random_tree(rng)) for _ in range(60)]
    pairs = list(zip(exprs[::2], exprs[1::2]))
    cold = []
    for a, b in pairs:
        table.clear()
        cold.append([(m, q, q.__class__) for m, q in (a * b)._terms.items()])
    warm = [[(m, q, q.__class__) for m, q in (a * b)._terms.items()] for a, b in pairs]
    assert warm == cold


@pytest.mark.parametrize("coeff", [3, -2, Fraction(3, 7), Fraction(2), Fraction(-5, 2),
                                   4, -6, 12, -1, 1, Fraction(-1, 4)], ids=repr)
def test_a_put_at_one_adds_what_c_times_coeff_would(table, coeff):
    """Every put adds what c * coeff would: at 1 coeff itself, and at c not 1
    (-1, ±1/2 and ±1/4 here; an int coeff that c's denominator divides takes
    the integer path) the same value, type and term order as
    `_put(ref, m, c * coeff)`, for coeff even, odd, negative or a Fraction,
    onto absent monomials, sums and cancellations."""
    x, v = sym("x"), sym("v")
    monos = [((x, 1),), ((v, 2),), (), ((x, -1), (v, 1)), ((x, 2),), ((v, 1),),
             ((x, 1), (v, 1))]
    puts = [(monos[0], 1), (monos[1], Fraction(1)), (monos[2], -1), (monos[3], Fraction(1, 2)),
            (monos[4], Fraction(-1, 2)), (monos[5], Fraction(1, 4)),
            (monos[6], Fraction(-1, 4)), (monos[3], Fraction(-1, 2))]
    plain = ((x, 1), (v, 2))  # normalised for real, cold then warm
    entry = ((x, 7),)  # a key whose entry below stands in for its normal form
    cancel = {}  # sums that the puts at -1/2 and -1/4 cancel, and one they do not
    for m, q in ((monos[4], coeff * Fraction(1, 2)), (monos[6], coeff * Fraction(1, 4)),
                 (monos[5], 7)):
        _put(cancel, m, q)
    for start in ({}, {monos[0]: Fraction(1, 3), monos[1]: -coeff, monos[2]: 2}, cancel):
        for fl in (plain, plain, entry):
            if fl is entry:
                table[entry] = puts
            got, ref = dict(start), dict(start)
            _accumulate(got, fl, coeff)
            for m, c in table[fl]:
                _put(ref, m, c * coeff)
            assert [(m, q, q.__class__) for m, q in got.items()] == \
                [(m, q, q.__class__) for m, q in ref.items()]


def test_zero_coefficient_adds_nothing(table):
    x, v = _atom_expr("x"), _atom_expr("v")
    fl = next(iter((sin_e(x) * exp_e(v))._terms)) + next(iter(cos_e(x)._terms))
    for zero in (0, Fraction(0)):
        for out in ({}, {(): 5}):
            before = list(out.items())
            _accumulate(out, fl, zero)  # cold: nothing normalised
            assert list(out.items()) == before
            _accumulate({}, fl, 1)
            assert tuple(fl) in table
            _accumulate(out, fl, zero)  # warm: no put of 0 on an absent monomial
            assert list(out.items()) == before


@pytest.mark.parametrize("fl", [
    lambda x, v: ((_atom(sin_e(x)), -1),),
    lambda x, v: ((_atom(tan_e(v)), -2), (_atom(exp_e(x)), 1)),
    lambda x, v: ((_atom(recip_e(x + 1)), -1),),
    lambda x, v: ((_atom(recip_e(v - 2)), -3), (I, 1)),
], ids=["sin^-1", "tan^-2*exp", "recip^-1", "recip^-3*I"])
def test_a_product_outside_the_class_raises_every_time_and_is_never_kept(table, fl):
    fl = fl(_atom_expr("x"), _atom_expr("v"))
    for _ in range(3):
        out = {(): 1}
        with pytest.raises(DomainError):
            _accumulate(out, fl, 2)
        assert out == {(): 1}
        assert tuple(fl) not in table


def test_table_stays_within_its_bound(table, monkeypatch):
    x = sym("x")
    for k in range(ec._PRODUCTS_SIZE + 5):
        _accumulate({}, ((I, k + 1), (x, 1)), 1)
        assert len(table) <= ec._PRODUCTS_SIZE
    monkeypatch.setattr(ec, "_PRODUCTS_SIZE", 16)
    lists = _factor_lists()[:100]
    warm = []
    for fl in lists:
        warm.append(_run([(fl, 3)], cold=False))
        assert len(ec._PRODUCTS) <= 16
    assert warm == [_run([(fl, 3)], cold=True) for fl in lists]


def test_a_repeated_bracket_table_normalises_nothing(table, monkeypatch):
    fields = catalog.fields_reduced2()
    table.clear()
    calls = []
    normal_form = ec._normal_form
    monkeypatch.setattr(ec, "_normal_form", lambda fl: calls.append(fl) or normal_form(fl))
    first = structure_constants(fields)
    assert calls
    calls.clear()
    second = structure_constants(fields)
    assert calls == []
    assert second.constants == first.constants
