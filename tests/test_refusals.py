"""Refusals: each input the library turns away, with the message it gives."""

import pytest

from lieforge import catalog
from lieforge.expr_core import DomainError
from lieforge.hierarchy import REAL_JET
from lieforge.liealg import algebra_signature, jacobi_check, lie_bracket, structure_constants
from lieforge.numerics import integrate_rk4
from lieforge.parser import ParseError, UnknownIdentifierError, parse_expr
from lieforge.reduce import (eliminate_to_second_order, fd_weights, sn_solution, system_322,
                             system_322_printed, verify_solution)

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
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_its_reason(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
