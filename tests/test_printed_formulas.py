"""Closed-form profiles and the hierarchy's fixed formulas are read from their
printed text.  Each keeps the term dict of the `Expr` arithmetic it replaced,
order and coefficient type included, and the parser's `^` forms the products
of `Expr.__pow__`."""

import random
from fractions import Fraction

import pytest

from lieforge import hierarchy, parser
from lieforge import reduce as red
from lieforge.expr_core import Expr, I, cos_e, exp_e, jet, sin_e, sqrt_e, sym, tan_e
from lieforge.hierarchy import apply_operator_L, hierarchy_member
from lieforge.parser import MAX_TERM_PRODUCTS, ParseError, expr_text, parse_expr
from lieforge.systems import JetSpec

from exprgen import random_tree, tree_to_expr

PDE = JetSpec(("t", "x"), ("v", "w"))


def _stored(e: Expr) -> list:
    """The term dict as stored: monomials in order, each coefficient with its type."""
    return [(m, type(q), q) for m, q in e._terms.items()]


def _s(name: str) -> Expr:
    return sym(name).as_expr()


# ---------------------------------------------------------------------------
# the hand-built constructions the printed texts replaced
# ---------------------------------------------------------------------------

def _reference_tan() -> dict:
    c, s0, s = _s("c"), _s("s0"), _s("s")
    half = Expr.rational(Fraction(1, 2))
    arg = half * c * (s - s0)
    return {"F": half * c, "G": -half * c * tan_e(arg), "pole": cos_e(arg)}


def _reference_s11() -> dict:
    c, F0, F1, s = _s("c"), _s("F0"), _s("F1"), _s("s")
    q2 = exp_e(Expr.rational(-2) * I.as_expr() * c * s)
    q1 = exp_e(Expr.rational(-1) * I.as_expr() * c * s)
    D = F0 * (q2 - F1 * c) ** 2 - Expr.rational(16) * c * c
    N = D - Expr.rational(8) * c * F0 * q1
    F = Expr.rational(Fraction(1, 2)) * c * N / D
    return {"D": D, "F": F, "G": red.reconstruct_G(F, c)}


def _reference_rational_trig(printed: bool) -> dict:
    rc = sqrt_e(_s("c"))
    s, G0, G1 = _s("s"), _s("G0"), _s("G1")
    S, C = sin_e(rc * s), cos_e(rc * s)
    D = G0 * S + C + G1
    numer = (S - G0 * C) if printed else (G0 * C - S)
    return {"G": rc * numer / D, "pole": D}


def _reference_member4_constraint() -> Expr:
    f1, c = _s("f1"), _s("c")
    return f1 ** 4 + c * f1


def _reference_seed() -> Expr:
    u, ub = jet("u").as_expr(), jet("ub").as_expr()
    return I.as_expr() * jet("u", ("x",)).as_expr() * exp_e(-I.as_expr() * (u - ub))


def _reference_p_factor() -> Expr:
    """P(beta) was built as (I * phase) * beta."""
    return I.as_expr() * exp_e(I.as_expr() * (jet("u").as_expr() - jet("ub").as_expr()))


def _pairs():
    """(label, parsed, reference) for every rewritten formula."""
    tan, ref = red.tan_solution(), _reference_tan()
    yield "tan F", tan.exprs["F"], ref["F"]
    yield "tan G", tan.exprs["G"], ref["G"]
    yield "tan pole", tan.pole_denoms[0], ref["pole"]
    s11, ref = red.s11_solution(), _reference_s11()
    yield "s11 D", s11.pole_denoms[0], ref["D"]
    yield "s11 F", s11.exprs["F"], ref["F"]
    yield "s11 G", s11.exprs["G"], ref["G"]
    for printed in (False, True):
        rt, ref = red.rational_trig_solution(printed), _reference_rational_trig(printed)
        yield f"rational-trig({printed}) F", rt.exprs["F"], Expr.zero()
        yield f"rational-trig({printed}) G", rt.exprs["G"], ref["G"]
        yield f"rational-trig({printed}) pole", rt.pole_denoms[0], ref["pole"]
    m4 = red.linear_solution_member4()
    yield "member4 constraint", m4.constraints[0], _reference_member4_constraint()
    yield "sn G", red.sn_solution(0.5).exprs["G"], Expr.zero()
    yield "hierarchy seed", hierarchy._SEED, _reference_seed()
    yield "P factor", hierarchy._P_FACTOR, _reference_p_factor()


def test_printed_formulas_keep_the_hand_built_term_dicts(tables):
    for _ in tables:
        for label, parsed, reference in _pairs():
            assert _stored(parsed) == _stored(reference), label


def test_members_keep_the_hand_built_chain_and_parse_no_text(monkeypatch):
    """The seed and the factor of P are parsed once, at import."""
    def refuse(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(parser, "_tokenize", refuse)
    rhs = _reference_p_factor() * _reference_seed()
    for n in range(3):
        assert _stored(hierarchy_member(n)) == _stored(rhs), n
        rhs = apply_operator_L(rhs)


def test_closed_forms_print_as_their_texts():
    tan = red.tan_solution()
    assert expr_text(tan.exprs["G"]) == "-1/2*c*tan(1/2*c*s - 1/2*c*s0)"
    assert expr_text(red.linear_solution_member4().constraints[0]) == "c*f1 + f1^4"


# ---------------------------------------------------------------------------
# the parser's `^` is Expr.__pow__ within the term budget
# ---------------------------------------------------------------------------

def _small_texts(count: int) -> list[str]:
    """Printed exprgen trees of at most 7 terms: every product a fifth power
    forms stays far inside MAX_TERM_PRODUCTS."""
    rng = random.Random(45)
    out = []
    while len(out) < count:
        e = tree_to_expr(random_tree(rng))
        if 0 < len(e._terms) <= 7:
            out.append(expr_text(e))
    return out


def test_caret_is_the_kernel_power():
    texts = _small_texts(200)
    for t in texts:
        base = parse_expr(t, PDE)
        for n in (*range(6), -1):
            got = parse_expr(f"({t})^{n}", PDE)
            assert _stored(got) == _stored(base ** n), (t, n)
    assert sum(len(parse_expr(t, PDE)._terms) > 2 for t in texts) > 50


def test_caret_budget_holds_on_every_product():
    """A sum of 20 atoms squares in 400 products, but its cube then multiplies
    20 terms by the square's 210: over the budget, reported at the `^`."""
    atoms = [f"{d}_{'x' * k}" if k else d for d in "vw" for k in range(10)]
    text = f"({' + '.join(atoms)})^3"
    assert 20 * 20 <= MAX_TERM_PRODUCTS < 20 * 210
    assert len(parse_expr(text[:-1] + "2", PDE)._terms) == 210
    with pytest.raises(ParseError) as ei:
        parse_expr(text, PDE)
    assert str(ei.value).startswith("'^' would form over") and ei.value.pos == text.index("^")
