"""Hierarchy generation, splitting, catalogue, and audit golden tests."""

from fractions import Fraction

import pytest

from lieforge import hierarchy
from lieforge.expr_core import DomainError, Expr, I, jet
from lieforge.hierarchy import (
    COMPLEX_JET, apply_operator_L, apply_operator_P, audit_member,
    catalogue_member, complex_split, hierarchy_member,
)
from lieforge.parser import expr_text, parse_expr
from lieforge.systems import JetSpec

# the complex splits and audits bind every jet, so `substitute` rebuilds every
# term on an empty product table
pytestmark = pytest.mark.usefixtures("cold_tables")

REAL = JetSpec(("t", "x"), ("v", "w"))


def C(text):
    return parse_expr(text, COMPLEX_JET)


def R(text):
    return parse_expr(text, REAL)


class TestOperators:
    def test_P_seed_cancels(self):
        beta = C("I*u_x*exp(-I*(u - ub))")
        assert apply_operator_P(beta) == C("-u_x")

    def test_P_zero(self):
        assert apply_operator_P(Expr.zero()) == Expr.zero()

    def test_P_pure_phase(self):
        assert apply_operator_P(C("exp(-I*(u - ub))")) == I.as_expr()

    def test_L_first(self):
        assert apply_operator_L(C("-u_x")) == C("-u_x^2 - I*u_xx")

    def test_L_zero(self):
        assert apply_operator_L(Expr.zero()) == Expr.zero()

    def test_L_second(self):
        got = apply_operator_L(C("-u_x^2 - I*u_xx"))
        assert got == C("-u_x^3 - 3*I*u_x*u_xx + u_xxx")

    def test_rejects_real_split_vars(self):
        with pytest.raises(DomainError):
            apply_operator_L(R("v_x"))


class TestMembers:
    def test_member0(self):
        assert hierarchy_member(0) == C("-u_x")

    def test_member1(self):
        assert hierarchy_member(1) == C("-u_x^2 - I*u_xx")

    def test_recursion_property(self):
        for n in range(0, 4):
            assert hierarchy_member(n + 1) == apply_operator_L(hierarchy_member(n))

    def test_resource_guard(self):
        with pytest.raises(DomainError):
            hierarchy_member(7)


class TestSplit:
    def test_split_member0(self):
        assert complex_split(C("-u_x")) == (R("-v_x"), R("-w_x"))

    def test_split_member1(self):
        v_rhs, w_rhs = complex_split(C("-u_x^2 - I*u_xx"))
        assert v_rhs == R("-v_x^2 + w_x^2 + w_xx")
        assert w_rhs == R("-2*v_x*w_x - v_xx")

    def test_split_phase_free_product(self):
        # u_x ub_x = |u_x|^2: the ub branch of the split, real part only
        assert complex_split(C("u_x*ub_x")) == (R("v_x^2 + w_x^2"), Expr.zero())

    def test_split_zero(self):
        assert complex_split(Expr.zero()) == (Expr.zero(), Expr.zero())

    def test_split_always_real(self):
        for n in range(0, 5):
            v_rhs, w_rhs = complex_split(hierarchy_member(n))
            for e in (v_rhs, w_rhs):
                assert I not in {a for m in e._terms for a, _ in m}


    def test_split_member5_pinned(self):
        v_rhs, w_rhs = complex_split(hierarchy_member(5))
        assert expr_text(v_rhs) == _SPLIT5_V
        assert expr_text(w_rhs) == _SPLIT5_W


_SPLIT5_V = (
    '-180*v_x*v_xx*w_x*w_xx - 60*v_x*v_xx*w_x^3 - 60*v_x*v_xx*w_xxx - 60*v_'
    'x*v_xxx*w_x^2 - 60*v_x*v_xxx*w_xx - 30*v_x*v_xxxx*w_x - 6*v_x*v_xxxxx '
    '+ 45*v_x^2*v_xx^2 - 60*v_x^2*w_x*w_xxx - 90*v_x^2*w_x^2*w_xx - 15*v_x^'
    '2*w_x^4 - 45*v_x^2*w_xx^2 - 15*v_x^2*w_xxxx + 60*v_x^3*v_xx*w_x + 20*v'
    '_x^3*v_xxx + 15*v_x^4*w_x^2 + 15*v_x^4*w_xx - v_x^6 - 60*v_xx*v_xxx*w_'
    'x - 15*v_xx*v_xxxx - 45*v_xx^2*w_x^2 - 45*v_xx^2*w_xx - 10*v_xxx^2 + 6'
    '0*w_x*w_xx*w_xxx + 6*w_x*w_xxxxx + 45*w_x^2*w_xx^2 + 15*w_x^2*w_xxxx +'
    ' 20*w_x^3*w_xxx + 15*w_x^4*w_xx + w_x^6 + 15*w_xx*w_xxxx + 15*w_xx^3 +'
    ' 10*w_xxx^2 + w_xxxxxx')
_SPLIT5_W = (
    '60*v_x*v_xx*v_xxx + 90*v_x*v_xx^2*w_x - 90*v_x*w_x*w_xx^2 - 30*v_x*w_x'
    '*w_xxxx - 60*v_x*w_x^2*w_xxx - 60*v_x*w_x^3*w_xx - 6*v_x*w_x^5 - 60*v_'
    'x*w_xx*w_xxx - 6*v_x*w_xxxxx + 90*v_x^2*v_xx*w_x^2 + 90*v_x^2*v_xx*w_x'
    'x + 60*v_x^2*v_xxx*w_x + 15*v_x^2*v_xxxx + 60*v_x^3*w_x*w_xx + 20*v_x^'
    '3*w_x^3 + 20*v_x^3*w_xxx - 15*v_x^4*v_xx - 6*v_x^5*w_x - 60*v_xx*w_x*w'
    '_xxx - 90*v_xx*w_x^2*w_xx - 15*v_xx*w_x^4 - 45*v_xx*w_xx^2 - 15*v_xx*w'
    '_xxxx + 15*v_xx^3 - 60*v_xxx*w_x*w_xx - 20*v_xxx*w_x^3 - 20*v_xxx*w_xx'
    'x - 15*v_xxxx*w_x^2 - 15*v_xxxx*w_xx - 6*v_xxxxx*w_x - v_xxxxxx')


class TestCatalogue:
    def test_member1(self):
        S = catalogue_member(1)
        assert S.rhs["v"] == R("-v_x") and S.rhs["w"] == R("-w_x")

    def test_member2(self):
        S = catalogue_member(2)
        assert S.rhs["v"] == R("-v_x^2 + w_x^2 + w_xx")
        assert S.rhs["w"] == R("-2*v_x*w_x - v_xx")

    def test_member3(self):
        S = catalogue_member(3)
        assert S.rhs["v"] == R("-v_x^3 + 3*v_x*w_x^2 + 3*w_x*v_xx + 3*v_x*w_xx + v_xxx")

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            catalogue_member(5)

    def test_evolution_form(self):
        for k in (1, 2, 3, 4):
            S = catalogue_member(k)
            for dep, phi in S.rhs.items():
                for a in phi._terms:
                    for atom, _ in a:
                        if hasattr(atom, "idx"):
                            assert "t" not in atom.idx


class TestAudit:
    def test_members_1_to_3_match(self):
        for k in (1, 2, 3):
            assert audit_member(k).match

    def test_member4_delta(self):
        rep = audit_member(4)
        assert not rep.match
        items = rep.itemized()
        assert items["v_t"] and items["w_t"]
        # the quartic discrepancy 2 u_x^4 shows up in the real part
        assert rep.delta_v._terms.get(((jet("v", ("x",)), 4),)) == 2

    def test_itemized_prints_the_stored_coefficients(self, monkeypatch):
        # each item is one stored term, printed as the kernel holds it: no
        # Fraction with denominator 1 reaches the printer
        seen = []

        def spy(e):
            seen.extend(e._terms.values())
            return expr_text(e)

        monkeypatch.setattr(hierarchy, "expr_text", spy)
        for k in (1, 2, 3, 4):
            rep = audit_member(k)
            assert rep.itemized() == {
                name: [expr_text(Expr({m: q})) for m, q in delta.terms()]
                for name, delta in (("v_t", rep.delta_v), ("w_t", rep.delta_w))}
        assert len(seen) == 15
        assert not any(isinstance(q, Fraction) and q.denominator == 1 for q in seen)
