"""Total derivatives and on-solution normal-form reduction."""

import random

import pytest

from lieforge.expr_core import (DomainError, cos_e, eval_numeric, exp_e, func,
                                jet, recip_e, sin_e, sym, tan_e)
from lieforge.parser import parse_expr
from lieforge.systems import (JetSpec, ODESystem, PDESystem, Reducer,
                              total_derivative)

PDE = JetSpec(("t", "x"), ("v", "w"))


def P(text):
    return parse_expr(text, PDE)


class TestTotalDerivative:
    def test_raises_order(self):
        assert total_derivative(P("v"), "x") == P("v_x")
        assert total_derivative(P("v_x^2"), "x") == P("2*v_x*v_xx")

    def test_chain_through_transcendentals(self):
        got = total_derivative(P("exp(-w)*cos(v)"), "x")
        want = P("-exp(-w)*(w_x*cos(v) + v_x*sin(v))")
        assert got == want
        # numeric spot check along w(x) = x^2, v(x) = sin x
        rng = random.Random(5)
        for _ in range(10):
            xv = rng.uniform(-1, 1)
            point = {jet("v"): __import__("math").sin(xv), jet("w"): xv * xv,
                     jet("v", ("x",)): __import__("math").cos(xv),
                     jet("w", ("x",)): 2 * xv, sym("x"): xv}
            h = 1e-6
            f = lambda z: __import__("math").exp(-z * z) * \
                __import__("math").cos(__import__("math").sin(z))
            fd = (f(xv + h) - f(xv - h)) / (2 * h)
            assert abs(eval_numeric(got, point) - fd) < 1e-8

    def test_mixed_index_sorted(self):
        e = total_derivative(total_derivative(P("v"), "x"), "t")
        assert e == jet("v", ("t", "x")).as_expr()
        assert e == total_derivative(total_derivative(P("v"), "t"), "x")


class TestPDESystem:
    def test_evolution_guard(self):
        with pytest.raises(DomainError):
            PDESystem(jet=PDE, rhs={"v": P("v_t"), "w": P("0")})

    def test_missing_equation(self):
        with pytest.raises(DomainError):
            PDESystem(jet=PDE, rhs={"v": P("v_x")})

    def test_jet_order_guard(self):
        PDESystem(jet=PDE, rhs={"v": P("v_xxxxxxxx"), "w": P("0")})
        with pytest.raises(DomainError, match="jet order beyond 8"):
            PDESystem(jet=PDE, rhs={"v": P("v_xxxxxxxxx"), "w": P("0")})

    def test_reducer_eliminates_t(self):
        S = PDESystem(jet=PDE, rhs={"v": P("v_xx"), "w": P("w_xx")})
        r = Reducer(S.equations())
        # v_tt -> v_xxxx, v_tx -> v_xxx
        assert r.reduce(jet("v", ("t", "t")).as_expr()) == P("v_xxxx")
        assert r.reduce(jet("v", ("t", "x")).as_expr()) == P("v_xxx")
        assert r.reduce(P("v_t*w_t")) == P("v_xx*w_xx")


class TestODESystem:
    def test_lead_order_guard(self):
        ctx = JetSpec(("s",), ("f",))
        with pytest.raises(DomainError):
            ODESystem(jet=ctx, leads={"f": (2, parse_expr("f''", ctx))})

    def test_reduction_chain(self):
        ctx = JetSpec(("s",), ("f",))
        S = ODESystem(jet=ctx, leads={"f": (2, parse_expr("-f", ctx))})
        r = Reducer(S.equations())
        # f'''' -> f  (harmonic oscillator)
        got = r.reduce(jet("f", ("s",) * 4).as_expr())
        assert got == parse_expr("f", ctx)

    def test_needs_single_independent(self):
        with pytest.raises(DomainError):
            ODESystem(jet=PDE, leads={})


def a_deriv(*idx):
    """a(t, x) differentiated by idx."""
    return func("a", ("t", "x"), idx).as_expr()


class TestReducerRules:
    def test_second_order_unknown_lead(self):
        r = Reducer([(func("a", ("t", "x"), ("t", "t")), -a_deriv("x"))])
        assert r.reduce(a_deriv("t")) == a_deriv("t")
        assert r.reduce(a_deriv("t", "t", "x")) == -a_deriv("x", "x")
        assert r.reduce(a_deriv("t", "t", "t")) == -a_deriv("t", "x")
        assert r.reduce(a_deriv("t", "t", "t", "t")) == a_deriv("x", "x")

    def test_one_argument_unknown_rule(self):
        ctx = JetSpec(("s",), ("f",))
        S = ODESystem(jet=ctx, leads={"f": (2, parse_expr("-f", ctx))})
        a = func("a", ("s",)).as_expr()
        r = Reducer(S.equations() + [(func("a", ("s",), ("s", "s")), -a)])
        got = r.reduce(func("a", ("s",), ("s",) * 4).as_expr()
                       + jet("f", ("s",) * 3).as_expr())
        assert got == a - jet("f", ("s",)).as_expr()

    def test_two_rules_for_one_name(self):
        """A jet rule v_t = ... and an unknown-function rule v_t = ... are two
        rules for the name v: neither may silently replace the other."""
        v_t, v_xx = jet("v", ("t",)), jet("v", ("x", "x")).as_expr()
        with pytest.raises(DomainError, match="two rules for v"):
            Reducer([(v_t, v_xx), (func("v", ("t", "x"), ("t",)), -v_xx)])

    @pytest.mark.parametrize("fn", [sin_e, cos_e, tan_e, exp_e, recip_e],
                             ids=["sin", "cos", "tan", "exp", "recip"])
    def test_reduces_inside_transcendental_arguments(self, fn):
        b_xx = func("b", ("t", "x"), ("x", "x")).as_expr()
        r = Reducer([(func("a", ("t", "x"), ("t",)), b_xx)])
        v = jet("v").as_expr()
        assert r.reduce(v * fn(a_deriv("t") + v)) == v * fn(b_xx + v)

    def test_rhs_holding_its_own_reducible_atom(self):
        with pytest.raises(DomainError):
            Reducer([(func("a", ("t", "x"), ("t",)), a_deriv("t", "x"))])

    @pytest.mark.parametrize("idx", [("t", "x"), ()], ids=["mixed", "underived"])
    def test_lead_not_a_pure_derivative(self, idx):
        with pytest.raises(DomainError):
            Reducer([(func("a", ("t", "x"), idx), a_deriv("x", "x"))])


def test_with_constants_declares_each_name_once():
    jet_spec = JetSpec(("s",), ("f",), constants=("c",))
    assert jet_spec.with_constants(["k", "c", "k", "m"]).constants == ("c", "k", "m")


@pytest.mark.parametrize("name", ["v", "t"], ids=["dependent", "independent"])
def test_function_named_like_a_coordinate_raises(name):
    # a function v(t, x) would print its derivatives as the jets v_x, ...
    with pytest.raises(DomainError, match=f"unknown {name} takes the name of a coordinate"):
        PDE.with_functions({name: ("t", "x")})
