"""Kernel operations: canonical forms, calculus, substitution, zero tests."""

import math
import random
from fractions import Fraction

import pytest

from lieforge.expr_core import (
    CyclicBindingError, DomainError, Expr, I, PoleError, ZeroStatus, atoms_of,
    collect_terms, cos_e, derive, equals_zero, eval_numeric, exp_e, jet,
    random_rational, recip_e, sin_e, sqrt_e, substitute, sym, tan_e,
    to_canonical,
)
from lieforge.parser import parse_expr
from lieforge.systems import JetSpec

CTX = JetSpec(("t", "x"), ("v", "w"), constants=("c", "s"))


def P(text):
    return parse_expr(text, CTX)


class TestCanonical:
    def test_i_squared(self):
        assert P("I*I") == Expr.rational(-1)

    def test_i_powers_reduce(self):
        for k in range(-6, 9):
            e = I.as_expr() ** k
            for mono, _ in e._terms.items():
                for atom, p in mono:
                    if atom is I:
                        assert p == 1

    def test_pythagorean(self):
        assert P("sin(v)^2 + cos(v)^2") == Expr.one()

    def test_exp_merge(self):
        assert P("exp(-w)*exp(-w)") == P("exp(-2*w)")
        assert P("exp(w)*exp(-w)") == Expr.one()

    def test_product_to_sum(self):
        # 2 sin v cos v = sin 2v, checked against numeric oracle at 100 points
        e = P("sin(v)*cos(v)")
        assert e == P("sin(2*v)/2")
        rng = random.Random(7)
        for _ in range(100):
            x = rng.uniform(-3, 3)
            got = eval_numeric(e, {jet("v"): x})
            assert abs(got - math.sin(x) * math.cos(x)) < 1e-12

    def test_triple_trig_power(self):
        # sin^3 v = (3 sin v - sin 3v)/4
        assert P("sin(v)^3") == P("3/4*sin(v) - 1/4*sin(3*v)")

    def test_trig_sign_normalisation(self):
        assert P("sin(0-2*v)") == -P("sin(2*v)")
        assert P("cos(0-2*v)") == P("cos(2*v)")
        assert P("tan(0-v)") == -P("tan(v)")

    def test_sqrt_rewrite(self):
        r = P("sqrt(c)")
        assert r * r == P("c")
        assert r ** 3 == P("c*sqrt(c)")
        assert Expr.one() / r == P("c^-1*sqrt(c)")

    def test_sqrt_rejects_sums(self):
        with pytest.raises(DomainError):
            sqrt_e(P("v + w"))

    def test_idempotent(self):
        e = P("(v_x + I*w_x)^3*sin(v)*cos(v)")
        assert to_canonical(e) == e
        assert to_canonical(to_canonical(e)) == to_canonical(e)

    def test_nested_transcendental_rejected(self):
        with pytest.raises(DomainError):
            sin_e(P("sin(v)"))
        with pytest.raises(DomainError):
            exp_e(recip_e(P("v + 1")))


class TestDerive:
    def test_power_rule(self):
        assert derive(P("v_x^2"), jet("v", ("x",))) == P("2*v_x")

    def test_chain_trig(self):
        assert derive(P("sin(2*v)"), jet("v")) == P("2*cos(2*v)")

    def test_exp_times_cos(self):
        # d/dw [e^-w cos v] = -e^-w cos v, finite-difference oracle
        e = P("exp(-w)*cos(v)")
        d = derive(e, jet("w"))
        assert d == P("-exp(-w)*cos(v)")
        rng = random.Random(3)
        for _ in range(20):
            wv, vv = rng.uniform(-1, 1), rng.uniform(-1, 1)
            h = 1e-6
            fd = (eval_numeric(e, {jet("w"): wv + h, jet("v"): vv})
                  - eval_numeric(e, {jet("w"): wv - h, jet("v"): vv})) / (2 * h)
            got = eval_numeric(d, {jet("w"): wv, jet("v"): vv})
            assert abs(fd - got) < 1e-8

    def test_tan_derivative(self):
        assert derive(P("tan(v)"), jet("v")) == P("1 + tan(v)^2")

    def test_linear(self):
        e1, e2 = P("v_x^2*sin(v)"), P("w_x*exp(w)")
        a = jet("v", ("x",))
        assert derive(e1 + e2, a) == derive(e1, a) + derive(e2, a)

    def test_composite_atom_rejected(self):
        with pytest.raises(DomainError):
            derive(P("sin(v)"), next(iter(atoms_of(P("sin(v)"), recurse=False))))


class TestSubstitute:
    def test_complex_split_square(self):
        # u_x -> v_x + I w_x in -u_x^2
        ctx = JetSpec(("t", "x"), ("u",))
        e = parse_expr("-u_x^2", ctx)
        u_x = jet("u", ("x",))
        out = substitute(e, {u_x: P("v_x + I*w_x")})
        assert out == P("-v_x^2 + w_x^2 - 2*I*v_x*w_x")

    def test_identity_binding(self):
        e = P("v_x^2 + sin(v)")
        assert substitute(e, {jet("v"): jet("v").as_expr()}) == e

    def test_subst_inside_args(self):
        ctx = JetSpec(("t", "x"), ("u", "ub"))
        e = parse_expr("exp(I*(u - ub))", ctx)
        out = substitute(e, {jet("u"): P("v + I*w"), jet("ub"): P("v - I*w")})
        assert out == P("exp(-2*w)")

    def test_cycle_detected(self):
        with pytest.raises(CyclicBindingError):
            substitute(P("v + w"), {jet("v"): jet("w").as_expr(),
                                    jet("w"): jet("v").as_expr()})


class TestEvalNumeric:
    def test_i_squared(self):
        assert eval_numeric(P("I*I"), {}) == -1

    def test_tan_value(self):
        # independent calculator oracle: tan(0.5)/2
        e = P("-1/2*tan(s/2)")
        got = eval_numeric(e, {sym("s"): 1.0})
        assert abs(got - (-math.tan(0.5) / 2)) < 1e-12

    def test_jet_value(self):
        assert eval_numeric(P("v_x^2"), {jet("v", ("x",)): 3.0}) == 9.0

    def test_tan_pole(self):
        with pytest.raises(PoleError):
            eval_numeric(P("tan(s)"), {sym("s"): math.pi / 2})

    def test_unbound(self):
        from lieforge.expr_core import UnboundAtomError
        with pytest.raises(UnboundAtomError):
            eval_numeric(P("v_x"), {})

    def test_recip_pole(self):
        with pytest.raises(PoleError):
            eval_numeric(recip_e(P("v - 1")), {jet("v"): 1.0})


class TestEqualsZero:
    def test_pythagorean_zero(self):
        assert equals_zero(P("sin(v)^2 + cos(v)^2 - 1")) == ZeroStatus.ZERO

    def test_jet_nonzero(self):
        assert equals_zero(P("v_x")) == ZeroStatus.NONZERO

    def test_tan_residual_zero(self):
        # residual of the constant-F tan profile in the first-order pair
        c, s, s0 = sym("c").as_expr(), sym("s").as_expr(), sym("s0").as_expr()
        half = Expr.rational(Fraction(1, 2))
        G = -half * c * tan_e(half * c * (s - s0))
        F = half * c
        resid = derive(G, sym("s")) + c * F + G * G - F * F
        assert equals_zero(resid) == ZeroStatus.ZERO

    def test_probably_zero_with_recip(self):
        e = recip_e(P("v + 2")) * P("v + 2") - Expr.one()
        # v+2 reciprocal stays opaque; numeric sampling must accept it
        assert equals_zero(e) in (ZeroStatus.ZERO, ZeroStatus.PROBABLY_ZERO)

    def test_recip_nonzero(self):
        e = recip_e(P("v + 2")) * P("v + 3") - Expr.one()
        assert equals_zero(e) == ZeroStatus.NONZERO


class TestCollect:
    def test_partition(self):
        vx = P("v_x")
        e = P("v_x*t + v_x^2*x + 5")
        out = collect_terms(e, [Expr.one(), vx, vx * vx])
        assert out[vx] == P("t")
        assert out[vx * vx] == P("x")
        assert out[Expr.one()] == P("5")

    def test_trig_classes(self):
        e = P("sin(2*v)*t + cos(2*v)*x^2")
        s2, c2 = P("sin(2*v)"), P("cos(2*v)")
        out = collect_terms(e, [s2, c2, Expr.one()])
        assert out[s2] == P("t")
        assert out[c2] == P("x^2")
        # numeric orthogonality oracle: projections match quadrature over v
        rng = random.Random(11)
        for _ in range(5):
            tv, xv = rng.uniform(-1, 1), rng.uniform(-1, 1)
            n = 400
            acc = 0.0
            for i in range(n):
                vv = 2 * math.pi * i / n
                val = eval_numeric(e, {jet("v"): vv, sym("t"): tv, sym("x"): xv})
                acc += val.real * math.sin(2 * vv)
            assert abs(2 * acc / n - tv) < 1e-9

    def test_not_partition(self):
        with pytest.raises(DomainError):
            collect_terms(P("v_x^3"), [P("v_x"), Expr.one()])


def test_rational_sampling_deterministic():
    rng1, rng2 = random.Random(42), random.Random(42)
    vals1 = [random_rational(rng1) for _ in range(10)]
    vals2 = [random_rational(rng2) for _ in range(10)]
    assert vals1 == vals2


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


class TestNumericPlan:
    INPUTS = [sym("t"), sym("x"), jet("v"), jet("w"),
              jet("v", ("x",)), jet("w", ("x",))]

    @staticmethod
    def _cases(n=120, points=4):
        from exprgen import kernel_point, random_point, random_tree, tree_to_expr
        rng = random.Random(20261017)
        exprs = [tree_to_expr(random_tree(rng)) for _ in range(n)]
        # rationals only: values are exact, so poles and overflow stay rare
        pts = [list(kernel_point(random_point(rng)).values()) for _ in range(points)]
        return exprs, pts

    def test_joint_plan_matches_single_plans(self):
        from lieforge.expr_core import NumericPlan
        exprs, pts = self._cases()
        joint = NumericPlan(exprs, self.INPUTS)
        singles = [NumericPlan([e], self.INPUTS) for e in exprs]
        checked = 0
        for vals in pts:
            try:
                want = [_bits(p(vals)[0]) for p in singles]
            except (PoleError, OverflowError):
                with pytest.raises((PoleError, OverflowError)):
                    joint(vals)
                continue
            assert [_bits(z) for z in joint(vals)] == want
            checked += 1
        assert checked

    def test_term_outputs_sum_to_whole(self):
        from lieforge.expr_core import NumericPlan
        exprs, pts = self._cases(n=60, points=2)
        for e in exprs:
            whole = NumericPlan([e], self.INPUTS)
            terms = NumericPlan([Expr({m: q}) for m, q in e._terms.items()],
                                self.INPUTS)
            for vals in pts:
                try:
                    want = whole(vals)[0]
                except (PoleError, OverflowError):
                    continue
                total = 0j
                for val in terms(vals):
                    total += val
                assert _bits(total) == _bits(want)

    def test_s11_one_slot_per_derived_atom(self):
        from lieforge.expr_core import ExpAtom, IUnit, NumericPlan, Recip, Trig
        from lieforge.reduce import s11_solution
        F, G = s11_solution().exprs["F"], s11_solution().exprs["G"]
        plan = NumericPlan([F, G], [sym("c"), sym("F0"), sym("F1"), sym("s")])
        derived = {a for a in atoms_of(F) | atoms_of(G)
                   if isinstance(a, (IUnit, Trig, ExpAtom, Recip))}
        assert len(plan._steps) == len(derived)

    def test_tan_pole_in_nested_argument(self):
        from lieforge.expr_core import NumericPlan
        s = sym("s").as_expr()
        plan = NumericPlan([recip_e(exp_e(s) + tan_e(s))], [sym("s")])
        with pytest.raises(PoleError, match="tan pole"):
            plan([math.pi / 2])

    def test_unbound_atom_at_compile_time(self):
        from lieforge.expr_core import NumericPlan, UnboundAtomError
        with pytest.raises(UnboundAtomError):
            NumericPlan([P("t + 1"), sin_e(P("v_x"))], [sym("t")])

    @pytest.mark.parametrize("text, want", [
        # c and sqrt(c) together: c must be drawn as the square of sqrt(c)
        ("1/(sqrt(c) + x)*(c - x^2) - sqrt(c) + x", ZeroStatus.PROBABLY_ZERO),
        ("1/(sqrt(c) + v)*(sqrt(c) + v) - 1", ZeroStatus.PROBABLY_ZERO),
        ("1/(sqrt(c) + v)*(sqrt(c) + 2*v) - 1", ZeroStatus.NONZERO),
        ("1/(c + x)*sqrt(c)^2 - 1/(1 + x/c)", ZeroStatus.PROBABLY_ZERO),
    ])
    def test_equals_zero_with_root_atoms(self, text, want):
        ctx = JetSpec(("t", "x"), ("v", "w"), constants=("c",))
        assert equals_zero(parse_expr(text, ctx)) == want


@pytest.mark.parametrize("root", [3 ** 40, 10 ** 200 + 7, Fraction(3 ** 40, 10 ** 200 + 7)],
                         ids=["3^40", "10^200+7", "ratio"])
def test_sqrt_of_large_exact_squares(root):
    # far beyond float range: the root is decided in integers
    assert sqrt_e(Expr.rational(root) ** 2) == Expr.rational(root)
    with pytest.raises(DomainError, match="non-square rational"):
        sqrt_e(Expr.rational(root) ** 2 + Expr.one())
