"""Refusals: each input the library turns away, with the message it gives."""

import json

import pytest

from lieforge import catalog, symmetry
from lieforge.cli import main
from lieforge.expr_core import Atom, DomainError, PoleError, collect_terms, equals_zero, jet
from lieforge.hierarchy import REAL_JET
from lieforge.liealg import algebra_signature, jacobi_check, lie_bracket, structure_constants
from lieforge.numerics import integrate_rk4
from lieforge.parser import ParseError, UnknownIdentifierError, parse_expr
from lieforge.reduce import (ODE_JET_FG, PivotDegenerateError, _solve_leads,
                             eliminate_to_second_order, fd_weights, fig1_features, fig1_rows,
                             sn_solution, system_322, system_322_printed, verify_solution)
from lieforge.systems import ODESystem

REFUSALS = {
    "bracket-of-a-family": (
        lambda: lie_bracket(catalog.family_member2(), catalog.fields_member2()[0]),
        DomainError, "lie_bracket needs concrete coefficients"),
    "jacobi-of-an-open-table": (
        lambda: jacobi_check(structure_constants(catalog.fields_reduced2())),
        DomainError, "Jacobi check needs a closed table"),
    "signature-of-an-open-table": (
        lambda: algebra_signature(structure_constants(catalog.fields_reduced2())),
        DomainError, "signature needs a closed table"),
    "mixed-derivative-notation": (
        lambda: parse_expr("v_x'", REAL_JET),
        ParseError, "mixed underscore and prime derivative notation (at position 0)"),
    "unknown-jet-base": (
        lambda: parse_expr("z_x", REAL_JET),
        UnknownIdentifierError, "unknown jet base 'z' (at position 0)"),
    "sqrt-of-a-negative": (
        lambda: parse_expr("sqrt(-4)", REAL_JET),
        ParseError, "sqrt of a negative coefficient (at position 0)"),
    "sqrt-of-an-odd-power": (
        lambda: parse_expr("sqrt(v^3)", REAL_JET),
        ParseError, "sqrt of an odd atom power (at position 0)"),
    "eliminate-a-second-order-system": (
        lambda: eliminate_to_second_order(system_322()),
        DomainError, "elimination expects the first-order (F, G) pair"),
    "symbolic-verdict-of-a-callable-profile": (
        lambda: verify_solution(system_322_printed(), sn_solution(0.5)),
        DomainError, "symbolic mode needs expression profiles"),
    "stencil-too-short": (
        lambda: fd_weights([0, 1], 2),
        DomainError, "not enough stencil points for the derivative order"),
    "rk4-on-an-empty-range": (
        lambda: integrate_rk4(None, {"y": 1.0}, (1.0, 1.0), 0.1),
        ValueError, "empty integration range"),
    # fig1_features divided by zero at n = 0 or c = 0 and counted no sign
    # changes at n < 2; fig1_rows took every sample at c = 0 for a pole
    "fig1-features-of-no-samples": (
        lambda: fig1_features(1.0, 0.5, n=0),
        DomainError, "fig1 sample count 0 outside 2..100000"),
    "fig1-features-of-one-sample": (
        lambda: fig1_features(1.0, 0.5, n=1),
        DomainError, "fig1 sample count 1 outside 2..100000"),
    "fig1-features-of-a-negative-count": (
        lambda: fig1_features(1.0, 0.5, n=-3),
        DomainError, "fig1 sample count -3 outside 2..100000"),
    "fig1-features-past-the-sample-bound": (
        lambda: fig1_features(1.0, 0.5, n=100_001),
        DomainError, "fig1 sample count 100001 outside 2..100000"),
    "fig1-features-at-c-0": (
        lambda: fig1_features(0.0, 0.5),
        DomainError, "fig1 needs a finite nonzero wave speed, not c = 0.0"),
    "fig1-features-at-an-infinite-c": (
        lambda: fig1_features(float("inf"), 0.5),
        DomainError, "fig1 needs a finite nonzero wave speed, not c = inf"),
    "fig1-features-at-c-nan": (
        lambda: fig1_features(float("nan"), 0.5),
        DomainError, "fig1 needs a finite nonzero wave speed, not c = nan"),
    "fig1-rows-at-an-infinite-c": (
        lambda: fig1_rows(float("-inf"), 0.5, n=10),
        DomainError, "fig1 needs a finite nonzero wave speed, not c = -inf"),
    "fig1-rows-at-c-nan": (
        lambda: fig1_rows(float("nan"), 0.5, n=10),
        DomainError, "fig1 needs a finite nonzero wave speed, not c = nan"),
    "fig1-rows-at-c-0": (
        lambda: fig1_rows(0.0, 0.5, n=10),
        DomainError, "fig1 needs a finite nonzero wave speed, not c = 0.0"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_its_reason(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def _v():
    return jet("v").as_expr()


def _fg(text):
    return ODE_JET_FG.parse(text)


# refusals of the parser, the kernel and the reductions that no other test reaches
KERNEL_REFUSALS = {
    "unclosed-call": (
        lambda: parse_expr("sin(v", REAL_JET),
        ParseError, "expected ')', found 'end' (at position 5)"),
    "trailing-input": (
        lambda: parse_expr("v v", REAL_JET),
        ParseError, "trailing input 'ident' (at position 2)"),
    "parsed-division-by-zero": (
        lambda: parse_expr("1/0", REAL_JET),
        ParseError, "division by zero expression (at position 2)"),
    "parsed-reciprocal-of-zero": (
        lambda: parse_expr("(v - v)^-1", REAL_JET),
        ParseError, "reciprocal of zero expression (at position 9)"),
    "bare-atom": (
        lambda: Atom(),
        TypeError, "use the atom constructor helpers"),
    "fractional-exponent": (
        lambda: _v() ** 1.5,
        DomainError, "exponent must be an integer"),
    "division-by-zero": (
        lambda: _v() / 0,
        ZeroDivisionError, "division by zero expression"),
    "atom-as-rational": (
        lambda: _v().as_rational(),
        DomainError, "expression is not a rational constant"),
    "float-operand": (
        lambda: _v() + 1.5,
        TypeError, "cannot coerce <class 'float'> to Expr"),
    "collect-by-a-sum": (
        lambda: collect_terms(_v(), [_v() + jet("w").as_expr()]),
        DomainError, "collection classes must be single monomials"),
    "collect-by-a-scaled-class": (
        lambda: collect_terms(_v(), [2 * _v()]),
        DomainError, "collection classes must have coefficient 1"),
    "collect-by-a-repeated-class": (
        lambda: collect_terms(_v(), [_v(), _v()]),
        DomainError, "duplicate collection class"),
    "zero-test-at-poles-only": (
        lambda: equals_zero(parse_expr("1/(exp(I*v) - cos(v) - I*sin(v))", REAL_JET)),
        PoleError, "all sampled points hit poles"),
    "lead-with-a-jet-coefficient": (
        lambda: _solve_leads([_fg("F*F' - G")], ODE_JET_FG, "F F' = G"),
        DomainError, "lead F' has non-constant coefficient"),
    "two-leads-for-one-dependent": (
        lambda: _solve_leads([_fg("F' - G"), _fg("2*F' - G")], ODE_JET_FG, "F' twice"),
        DomainError, "two equations solve for F"),
    "eliminate-without-a-pivot": (
        lambda: eliminate_to_second_order(ODESystem(
            jet=ODE_JET_FG, leads={"F": (1, _fg("F")), "G": (1, _fg("G"))}, label="linear")),
        PivotDegenerateError, "pivot coefficient of G vanishes identically"),
}


@pytest.mark.parametrize("case", sorted(KERNEL_REFUSALS))
def test_kernel_refusal_names_its_reason(case):
    call, error, message = KERNEL_REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_verify_refuses_an_exponent_past_the_ring_bound(tmp_path, capsys):
    """A generator verdict packs monomials into its system's ring, as a
    determining system does: an exponent past the ring's bound exits 1 with
    one error line that names it and the system, and no traceback."""
    bound = symmetry._BOUND
    for n, code in [(bound, 2), (bound + 1, 1), (11000, 1)]:
        field = tmp_path / "field.txt"
        field.write_text(f"eta_v = v^{n}\n", encoding="utf-8")
        assert main(["symmetries", "verify", "--member", "2", "--field", str(field)]) == code
        out, err = capsys.readouterr()
        if code == 1:
            assert (out, err) == ("", f"lieforge: error: exponent {n} of v exceeds {bound} "
                                      f"in 'member 2: complex Burgers (split)'\n")
        else:
            assert json.loads(out)["status"] == "Nonzero" and err == ""
