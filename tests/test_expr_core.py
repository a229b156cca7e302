"""Kernel operations: canonical forms, calculus, substitution, zero tests."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from lieforge.expr_core import (
    DomainError, Expr, I, PoleError, ZeroStatus, atoms_of, collect_terms,
    cos_e, derive, equals_zero, eval_numeric, exp_e, jet, random_rational,
    recip_e, root, sin_e, sqrt_e, substitute, sym, tan_e, to_canonical,
)
from lieforge.parser import expr_text, parse_expr
from lieforge.systems import JetSpec, total_derivative

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

    def test_root_differentiates_by_the_symbol_under_it(self):
        # sqrt(a)' = sqrt(a) a'/(2a): the root of a coordinate is no constant
        s, x = sym("s"), sym("x")
        r = sqrt_e(s.as_expr())
        assert expr_text(derive(r, s)) == "1/2*s^-1*sqrt(s)"
        assert derive(r * r * r, s) == Expr.rational(Fraction(3, 2)) * r
        assert derive(r, x).is_zero() and derive(r, jet("v")).is_zero()
        assert expr_text(total_derivative(sqrt_e(x.as_expr()) * P("v_x"), "x")) \
            == "1/2*x^-1*sqrt(x)*v_x + sqrt(x)*v_xx"
        # a root named as the variable is an atom; a root of a constant is
        # constant under every coordinate
        assert derive(r * s.as_expr(), root("s")) == s.as_expr()
        assert derive(P("sqrt(c)*x"), x) == P("sqrt(c)")
        fd = (math.sqrt(2 + 1e-6) - math.sqrt(2 - 1e-6)) / 2e-6
        got = eval_numeric(derive(r, s), {s: 2, root("s"): math.sqrt(2)})
        assert abs(got - fd) < 1e-8

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

    def test_single_pass(self):
        """Values are not substituted again: a swap swaps, a self-binding
        shifts once, inside transcendental arguments too."""
        v, w = jet("v"), jet("w")
        swap = {v: w.as_expr(), w: v.as_expr()}
        assert substitute(P("v - 2*w"), swap) == P("w - 2*v")
        assert substitute(P("v^2"), {v: P("v + 1")}) == P("v^2 + 2*v + 1")
        assert (substitute(P("sin(v - 2*w) + exp(w)*v"), swap)
                == P("sin(w - 2*v) + exp(v)*w"))


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

    @pytest.mark.parametrize("text", ["exp(I*x) - cos(x) - I*sin(x)",
                                      "exp(I*x) + exp(-I*x) - 2*cos(x)",
                                      "tan(x)*cos(x) - sin(x)"],
                             ids=["euler", "cos-by-euler", "tan-cos"])
    def test_a_zero_that_keeps_terms_samples_to_probably_zero(self, text):
        # exp of an imaginary argument, sin/cos and tan are independent atoms,
        # so these zeros keep terms; with no sample above tolerance, no Nonzero
        e = P(text)
        assert not e.is_zero()
        assert equals_zero(e) == ZeroStatus.PROBABLY_ZERO

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

    def test_compiled_functions_keep_apart_in_profiles(self):
        # cProfile labels a function by (file, first line, name), and pstats keeps
        # one entry per label: loops sharing a label would read as one call
        import cProfile
        import pstats
        from lieforge.expr_core import NumericPlan
        plans = [NumericPlan([P(text)], [jet("v")]) for text in ("v + 1", "2*v")]
        codes = [p._fn.__code__ for p in plans]
        assert len({(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}) == 2
        profile = cProfile.Profile()
        profile.runcall(lambda: [p([1.0]) for p in plans])
        calls = [stat[1] for (file, _, _), stat in pstats.Stats(profile).stats.items()
                 if file.startswith("<NumericPlan")]
        assert calls == [1, 1]

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
        assert len(plan._slot) - 4 == len(derived)

    @staticmethod
    def _verify_plans(S, cand):
        """The (exprs, inputs) of the profile and residual plans that
        `verify_solution` builds for cand on S."""
        from lieforge.reduce import _candidate_jet_values
        inputs = [*(sym(k) for k in cand.params), root("c"), sym("s")]
        vals = _candidate_jet_values(S, cand)
        return [([*cand.pole_denoms, *vals.values()], inputs),
                ([lead.as_expr() - rhs for lead, rhs in S.equations()], [*inputs, *vals])]

    @pytest.mark.parametrize("name", ["s11", "rational-trig"])
    def test_each_power_is_one_line(self, name):
        from lieforge.expr_core import ExpAtom, NumericPlan, Recip, Trig
        from lieforge import reduce as red
        S, cand = {"s11": (red.system_33(1), red.s11_solution()),
                   "rational-trig": (red.system_322(1), red.rational_trig_solution())}[name]
        for exprs, inputs in self._verify_plans(S, cand):
            plan = NumericPlan(exprs, inputs)
            powers = set()

            def walk(e):
                for m in e._terms:
                    for a, k in m:
                        powers.add((a, k))
                        if isinstance(a, (Trig, ExpAtom, Recip)):
                            walk(a.arg)
            for e in exprs:
                walk(e)
            local = {v: a for a, v in plan._slot.items()}
            lines = [line.partition(" = ")[2].split("**") for line in plan._lines
                     if "**" in line]
            defined = [(local[base], int(k)) for base, k in lines]
            assert sum(line.count("**") for line in plan._lines) == len(defined)
            assert sorted(map(repr, defined)) == sorted(map(repr, powers))

    def test_sin_and_cos_share_one_argument_local(self):
        from lieforge.expr_core import NumericPlan
        # an argument no other test builds: a derived atom keeps the term order
        # of the first equal argument it was made from, and another order sums
        # to other bits, so it would take a local of its own
        u = P("t + 2*x + 37/41")
        exprs, inputs = [sin_e(u) + cos_e(u), u], [sym("t"), sym("x")]
        plan = NumericPlan(exprs, inputs)
        calls = [line.split(" = ")[1] for line in plan._lines if " = _" in line]
        assert calls == ["_sin(a0)", "_cos(a0)"] and plan._outs == ["a1", "a0"]
        assert sum(line.startswith("a0 = ") for line in plan._lines) == 1
        assert list(map(repr, plan([0.3, -0.4]))) == \
            list(map(repr, self._reference(exprs, inputs, [0.3, -0.4])))

    def test_pole_denominator_output_reads_its_recip_argument(self):
        from lieforge.expr_core import NumericPlan
        from lieforge import reduce as red
        profile = NumericPlan(*self._verify_plans(red.system_322(1),
                                                  red.rational_trig_solution())[0])
        denom = profile._outs[0]
        assert f"_recip({denom})" in "\n".join(profile._lines)
        assert sum(line.startswith(f"{denom} = ") for line in profile._lines) == 1

    def test_raises_what_an_eager_interpreter_raises(self):
        """Overflowing and pole inputs: the plan evaluates each power and
        derived atom where an interpreter that evaluates every derived atom on
        first appearance (then the outputs) does, so a point that both
        overflows and meets a pole raises the same class.  A lazy interpreter
        raises another class on some of these points."""
        from lieforge.expr_core import NumericPlan
        exprs, pts = self._cases(n=90, points=4)
        x = sym("x").as_expr()
        exprs += [recip_e(e + x) * f + recip_e(f - x)
                  for e, f in zip(exprs[:30], exprs[30:60])]

        def outcome(run):
            try:
                return list(map(repr, run()))
            except (PoleError, OverflowError, ZeroDivisionError) as err:
                return type(err)
        seen, lazy_differs = set(), 0
        for i in range(0, len(exprs), 3):
            group = exprs[i:i + 3]
            plan = NumericPlan(group, self.INPUTS)
            for vals in pts:
                for big in (1, 1e160, 1e300):
                    for zero in (0, 1, None):  # zero the even or odd inputs, or none
                        v = [0.0 if j % 2 == zero else a * big for j, a in enumerate(vals)]
                        want = outcome(lambda: self._reference(group, self.INPUTS, v, True))
                        assert outcome(lambda: plan(v)) == want
                        seen.add(want if isinstance(want, type) else list)
                        lazy_differs += outcome(
                            lambda: self._reference(group, self.INPUTS, v)) != want
        assert {list, PoleError, OverflowError} <= seen
        assert lazy_differs

    def test_infinite_input_overflows_through_a_first_power(self):
        from lieforge.expr_core import NumericPlan
        plan = NumericPlan([P("t + x")], [sym("t"), sym("x")])
        assert "**1" in "\n".join(plan._lines)
        with pytest.raises(OverflowError):
            plan([math.inf, 1.0])

    @pytest.mark.parametrize("c, forced", [(Fraction(1, 2), False), (Fraction(3, 2), False),
                                           (Fraction(1), True)],
                             ids=["c0", "c1", "non-autonomous"])
    def test_rk4_loop_is_four_plan_calls_per_step_on_33(self, c, forced):
        from test_numerics import _rk4_reference
        from lieforge.expr_core import NumericPlan, sin_e
        from lieforge.numerics import integrate_rk4
        from lieforge.reduce import system_33
        S = system_33(c)
        s = sym("s").as_expr()
        # G' gains s sin(s) / 3, so every stage sets s, which (3.3) never reads
        force = s * sin_e(s) * Expr.rational(Fraction(1, 3)) if forced else Expr.zero()
        plan = NumericPlan([S.leads["F"][1], S.leads["G"][1] + force],
                           [sym("s"), jet("F"), jet("G")])
        assert plan._read("x0", "s") == (["x0 = complex(s)"] if forced else [])
        # F, G, F^2 and G^2 once per stage: F**1 and G**1 were taken twice;
        # and s and sin(s) when forced
        assert sum("**" in line for line in plan._lines) == (6 if forced else 4)
        state0, s_range, h = {"F": 0.5 * float(c), "G": -0.2}, (0.0, 1.5), 1e-3
        traj = integrate_rk4(plan, state0, s_range, h)
        grid, values = _rk4_reference(plan, [], state0, s_range, h)
        assert len(grid) == 1501
        assert list(map(repr, traj.grid)) == list(map(repr, grid))
        assert {d: list(map(repr, zs)) for d, zs in traj.values.items()} == \
            {d: list(map(repr, zs)) for d, zs in values.items()}

    @staticmethod
    def _reference(exprs, inputs, values, eager=False):
        """Interpreted evaluation: every sum from 0j, terms left to right,
        each term its complex(q) times v ** k per factor in monomial order.
        Lazy, each derived atom is evaluated when a sum first reads it; eager,
        when a walk of the outputs' terms first meets it, its argument's atoms
        first, before any output is summed."""
        from lieforge.expr_core import ExpAtom, IUnit, Trig, _recip, _tan
        env = dict(zip(inputs, map(complex, values)))
        fns = {"sin": cmath.sin, "cos": cmath.cos, "tan": _tan}

        def atom(a):
            if a not in env:
                env[a] = (complex(0j + 1j) if isinstance(a, IUnit) else
                          fns[a.fn](total(a.arg)) if isinstance(a, Trig) else
                          cmath.exp(total(a.arg)) if isinstance(a, ExpAtom) else
                          _recip(total(a.arg)))
            return env[a]

        def total(e):
            out = 0j
            for m, q in e._terms.items():
                val = complex(q)
                for a, k in m:
                    val *= atom(a) ** k
                out += val
            return out

        def first_seen(e):
            for m in e._terms:
                for a, _ in m:
                    if a not in env and not isinstance(a, IUnit):
                        first_seen(a.arg)
                    atom(a)
        if eager:
            for e in exprs:
                first_seen(e)
        return [total(e) for e in exprs]

    def test_outputs_match_interpreted_reference_bit_for_bit(self):
        from lieforge.expr_core import ExpAtom, IUnit, NumericPlan, Recip, Trig
        exprs, pts = self._cases(n=90, points=4)
        x = sym("x").as_expr()
        exprs += [recip_e(e + x) * f + recip_e(f - x)
                  for e, f in zip(exprs[:30], exprs[30:60])]
        kinds = {type(a) for e in exprs for a in atoms_of(e)}
        assert {IUnit, Trig, ExpAtom, Recip} <= kinds
        checked = 0
        for i in range(0, len(exprs), 3):  # several outputs per plan
            group = exprs[i:i + 3]
            plan = NumericPlan(group, self.INPUTS)
            for vals in pts:
                try:
                    want = self._reference(group, self.INPUTS, vals)
                except (PoleError, OverflowError, ZeroDivisionError):
                    with pytest.raises((PoleError, OverflowError, ZeroDivisionError)):
                        plan(vals)
                    continue
                # repr tells signed zeros apart
                assert list(map(repr, plan(vals))) == list(map(repr, want))
                checked += 1
        assert checked > 100

    def test_long_sum_compiles(self):
        from lieforge.expr_core import NumericPlan
        t = sym("t")
        e = Expr({((t, k),): Fraction(1, k + 1) for k in range(1, 5001)})
        assert len(e._terms) == 5000
        plan = NumericPlan([e], [t])
        assert repr(plan([0.5])[0]) == repr(self._reference([e], [t], [0.5])[0])

    def test_input_name_is_not_an_identifier(self):
        from lieforge.expr_core import NumericPlan
        a = sym("a b'")
        plan = NumericPlan([sin_e(a.as_expr()) + a.as_expr() ** 2], [a])
        assert plan([0.5]) == [cmath.sin(0.5) + 0.25]

    def test_tan_pole_in_nested_argument(self):
        from lieforge.expr_core import NumericPlan
        s = sym("s").as_expr()
        plan = NumericPlan([recip_e(exp_e(s) + tan_e(s))], [sym("s")])
        with pytest.raises(PoleError, match="tan pole"):
            plan([math.pi / 2])

    def test_recip_pole_in_nested_argument(self):
        from lieforge.expr_core import NumericPlan
        s = sym("s").as_expr()
        plan = NumericPlan([recip_e(s + recip_e(s - Expr.rational(Fraction(1, 2))) ** 2)],
                           [sym("s")])
        with pytest.raises(PoleError) as err:
            plan([0.5])
        assert str(err.value) == "reciprocal pole"

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
