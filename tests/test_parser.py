"""Grammar: parsing, printing, roundtrips, and error reporting."""

from fractions import Fraction

import pytest

from lieforge.expr_core import Expr, jet, func, sym
from lieforge.parser import (
    MAX_POWER_BITS, ParseError, UnknownIdentifierError, expr_text, parse_expr,
)
from lieforge.systems import JetSpec

PDE = JetSpec(("t", "x"), ("v", "w"), constants=("c",))
ODE = JetSpec(("s",), ("f", "g"), constants=("c", "s0"))


def test_catalogue_equation():
    e = parse_expr("-v_x^2 + w_x^2 + w_xx", PDE)
    assert e == -parse_expr("v_x", PDE) ** 2 + parse_expr("w_x", PDE) ** 2 \
        + jet("w", ("x", "x")).as_expr()


def test_zero():
    assert parse_expr("0", PDE) == Expr.zero()
    assert parse_expr("0", PDE)._terms == {}


def test_primes():
    assert parse_expr("f''", ODE) == jet("f", ("s", "s")).as_expr()
    assert parse_expr("g'", ODE) == jet("g", ("s",)).as_expr()


def test_prime_needs_single_independent():
    with pytest.raises(ParseError):
        parse_expr("v'", PDE)


def test_rationals_and_precedence():
    assert parse_expr("3/4*x", PDE) == Expr.rational("3/4") * sym("x").as_expr()
    assert parse_expr("-v_x^2", PDE) == -(jet("v", ("x",)).as_expr() ** 2)
    assert parse_expr("2^3", PDE) == Expr.rational(8)
    assert parse_expr("x^-1*x", PDE) == Expr.one()


def test_division_forms():
    assert parse_expr("x/2", PDE) == Expr.rational("1/2") * sym("x").as_expr()
    assert parse_expr("1/exp(w)", PDE) == parse_expr("exp(-w)", PDE)
    assert parse_expr("1/I", PDE) == parse_expr("-I", PDE)
    r = parse_expr("1/(v + 1)", PDE)
    assert parse_expr("(v + 1)^-1", PDE) == r


def test_unknown_identifier_with_position():
    ctx = JetSpec(("t", "x"), ("v", "w"), constants=("c",))
    with pytest.raises(UnknownIdentifierError) as ei:
        parse_expr("v_x + zzz", ctx)
    assert "zzz" in str(ei.value)
    assert ei.value.pos == 6


def test_syntax_error_position():
    with pytest.raises(ParseError) as ei:
        parse_expr("v_x + ", PDE)
    assert "position" in str(ei.value)


def test_bad_jet_suffix():
    with pytest.raises(ParseError):
        parse_expr("v_q", PDE)


def test_unknown_function_atoms():
    ctx = PDE.with_functions({"a": ("t", "x")})
    assert parse_expr("a_xx", ctx) == func("a", ("t", "x"), ("x", "x")).as_expr()
    with pytest.raises(ParseError):
        parse_expr("a_s", ctx)


def test_roundtrip_core_examples():
    cases = [
        "-v_x^2 + w_x^2 + w_xx",
        "1/2*sin(2*v) - 3/4*cos(2*v)*exp(-2*w)",
        "t^2*x*v_x^3 - I*w_xx",
        "tan(v)^2 + 1",
        "sqrt(c)*sin(s*sqrt(c))" ,
        "(v + 1)^-2",
        "c^-1*x",
    ]
    for text in cases:
        ctx = JetSpec(("t", "x", "s"), ("v", "w"), constants=("c",))
        e = parse_expr(text, ctx)
        assert parse_expr(expr_text(e), ctx) == e


def test_roundtrip_ode_primes():
    e = parse_expr("f''' + c*f' - f'^3", ODE)
    assert parse_expr(expr_text(e), ODE) == e
    assert "f'''" in expr_text(e)


def test_print_empty():
    assert expr_text(Expr.zero()) == "0"


def test_sqrt_of_square():
    assert parse_expr("sqrt(4)", PDE) == Expr.rational(2)
    assert parse_expr("sqrt(9/4)", PDE) == Expr.rational("3/2")
    assert parse_expr("sqrt(c^2)", PDE) == sym("c").as_expr()


def test_superscript_digits_are_parse_errors():
    for text, pos in (("²", 0), ("v^²", 2), ("3²", 1)):
        with pytest.raises(ParseError) as ei:
            parse_expr(text, PDE)
        assert "unexpected character '²'" in str(ei.value) and ei.value.pos == pos
    assert parse_expr("٣*v", PDE) == parse_expr("3*v", PDE)


@pytest.mark.parametrize("text, op, pos", [
    ("sin(v)^100000", "'^'", 6),
    ("(v+w+v_x+w_x)^32", "'^'", 13),
    ("(sin(v)+cos(w))^64", "'^'", 15),
    ("(v+w+v_x+w_x)^8*(v+w+v_x+w_x)^8", "'*'", 15),
])
def test_refuses_powers_past_the_term_product_budget(text, op, pos):
    with pytest.raises(ParseError) as ei:
        parse_expr(text, PDE)
    assert str(ei.value).startswith(f"{op} would form over") and ei.value.pos == pos


@pytest.mark.parametrize("text, pos", [
    ("(3/2)^10000000", 5), ("2^-10000000", 1), ("(2*v)^10000000", 5), ("(3/2)^1366", 5),
])
def test_refuses_powers_past_the_coefficient_bound(text, pos):
    with pytest.raises(ParseError) as ei:
        parse_expr(text, PDE)
    assert str(ei.value).startswith(f"'^' would form a coefficient over {MAX_POWER_BITS} bits")
    assert ei.value.pos == pos


def test_unit_coefficients_raise_to_any_power():
    # 1365 * bits(3*2) = 4095 bits is the largest power of 3/2 within the bound
    assert parse_expr("(3/2)^1365", PDE) == Expr.rational(Fraction(3, 2) ** 1365)
    for text in ("I^1000000001", "sqrt(c)^1000000001", "(-1)^1000000001",
                 "(-v)^1000000000", "0^1000000000"):
        assert len(parse_expr(text, PDE)._terms) <= 1


def test_powers_within_the_budget_are_exact_powers():
    for text in ("v^100000", "exp(v)^1000000000", "2^200", "v_x^-3"):
        assert len(parse_expr(text, PDE)._terms) == 1
    base = parse_expr("v + w + sin(v_x)", PDE)
    for n in (-2, 0, 1, 7, 12):
        got = parse_expr(f"(v + w + sin(v_x))^{n}", PDE)
        assert list(got._terms.items()) == list((base ** n)._terms.items())
