"""Travelling-wave reductions, order reduction, elimination, closed forms,
integration, lifting, and CSV features."""

import math
from fractions import Fraction

import pytest

from lieforge import catalog
from lieforge import reduce as red
from lieforge.expr_core import (Expr, Recip, ZeroStatus, atoms_of, equals_zero, jet,
                                substitute, sym)
from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.parser import expr_text, parse_expr
from lieforge.reduce import (
    ODE_JET, PivotDegenerateError, candidate_at, computed_second_order,
    eliminate_to_second_order, emit_series_csv, equal_up_to_factor,
    f_branch_322, f_branch_322_printed, fig1_features, fig1_rows,
    lift_and_check, linear_solution_member4,
    order_reduce, printed_second_order, rational_trig_solution,
    SolutionCandidate, reconstruct_G, reduced_system, rk4_from_system, s11_solution,
    sn_solution,
    system_322, system_322_printed, system_33, tan_antiderivatives, tan_solution,
    travelling_wave_reduce, verify_solution,
)
from lieforge.symmetry import VectorField
from lieforge.systems import JetSpec, ODESystem


def E(text, extra=()):
    return parse_expr(text, ODE_JET.with_constants(tuple(extra)))


def EFG(text):
    return parse_expr(text, JetSpec(("s",), ("F", "G"), constants=("c",)))


def wave_generator(xi_t="1", xi_x="c", **eta):
    """The generator xi_t d_t + xi_x d_x + eta^A d_A, coefficients in c and k."""
    ctx = REAL_JET.with_constants(("c", "k"))
    return VectorField(ctx, {"t": parse_expr(xi_t, ctx), "x": parse_expr(xi_x, ctx)},
                       {dep: parse_expr(text, ctx) for dep, text in eta.items()})


class TestInvariants:
    def test_wave_frame(self):
        # a generator and its constant multiples give one reduction
        S2 = catalogue_member(2)
        want = travelling_wave_reduce(S2, wave_generator())
        assert want == reduced_system(2)
        for scale in ("2", "c"):
            X = wave_generator(scale, f"{scale}*c")
            assert travelling_wave_reduce(S2, X) == want

    def test_steady(self):
        # d_x has no d_t part: its invariants are not travelling waves, and
        # speed 0 would be the reduction by d_t instead
        from lieforge.expr_core import DomainError
        with pytest.raises(DomainError, match="no d_t part"):
            travelling_wave_reduce(catalogue_member(2), wave_generator("0", "1"))

    def test_drift(self):
        # the drift is eta^v / xi_t: v = f(s) + (k/2) t under 2 d_t + 2c d_x + k d_v
        out = travelling_wave_reduce(catalogue_member(2),
                                     wave_generator("2", "2*c", v="k"))
        assert expr_text(out.leads["g"][1]) == "-c*f' + 1/2*k + f'^2 - g'^2"

    def test_jet_declares_every_constant_of_the_equations(self):
        # k of the drift joins c, so every lead prints text its own jet parses
        S2 = catalogue_member(2)
        for X, constants in [(wave_generator(v="k"), ("c", "k")),
                             (wave_generator("2", "k"), ("c", "k")),
                             (wave_generator("1", "3/2"), ("c",))]:
            out = travelling_wave_reduce(S2, X)
            assert out.jet.constants == constants
            for dep, (_, rhs) in out.leads.items():
                assert parse_expr(expr_text(rhs), out.jet) == rhs, (dep, rhs)
        for n in (1, 2, 3):
            assert reduced_system(n).jet.constants == ("c",)

    def test_jet_holds_the_dependents_of_the_equation(self):
        # u_t = u_xx + u_x^2 by d_t + 2 d_x: the reduction is in u alone, so
        # its symmetries act on u and s only, and order reduction gives U
        from lieforge.symmetry import ansatz_dictionary, discover_symmetries, field_text
        from lieforge.systems import PDESystem
        ctx = JetSpec(("t", "x"), ("u",))
        S = PDESystem(jet=ctx, rhs={"u": ctx.parse("u_xx + u_x^2")})
        X = VectorField(ctx, {"t": Expr.one(), "x": Expr.rational(2)})
        R = travelling_wave_reduce(S, X)
        assert R.jet.dependents == ("u",) and list(R.leads) == ["u"]
        fields = discover_symmetries(R, ansatz_dictionary(R.jet, 1))
        assert sorted(field_text(F) for F in fields) == ["d_s", "d_u"]
        assert order_reduce(R).jet.dependents == ("U",)
        for n in (1, 2, 3):
            assert reduced_system(n).jet == ODE_JET

    def test_drift_reaches_an_undifferentiated_dependent(self):
        # d_t + c d_x + k d_v is no symmetry of v_t = v_xx + v: the drift of
        # v = f(s) + k t reaches the undifferentiated v and leaves k*t
        from lieforge.expr_core import DomainError
        from lieforge.systems import PDESystem
        S = PDESystem(jet=REAL_JET, rhs={"v": REAL_JET.parse("v_xx + v"),
                                         "w": REAL_JET.parse("w_xx")})
        assert expr_text(travelling_wave_reduce(S, wave_generator()).leads["f"][1]) \
            == "-c*f' - f"
        with pytest.raises(DomainError, match="explicit"):
            travelling_wave_reduce(S, wave_generator(v="k"))

    def test_nonconstant_rejected(self):
        from lieforge.expr_core import DomainError
        with pytest.raises(DomainError, match="d_x holds t"):
            travelling_wave_reduce(catalogue_member(2), wave_generator("1", "t"))

    def test_unknown_function_rejected(self):
        # an unknown a(t,x) is not a constant, though it is neither t, x nor a jet
        from lieforge.expr_core import DomainError
        from lieforge.symmetry import parse_field
        X = parse_field("unknown a(t,x)\nxi_t = 1\nxi_x = 2\neta_v = a", REAL_JET)
        with pytest.raises(DomainError, match="d_v holds a"):
            travelling_wave_reduce(catalogue_member(2), X)

    def test_noninvariant_system_rejected(self):
        # explicit t-dependence survives the wave-frame substitution
        from lieforge.expr_core import DomainError
        from lieforge.systems import PDESystem
        ctx = REAL_JET
        bad = PDESystem(jet=ctx, rhs={
            "v": sym("t").as_expr() * jet("v", ("x",)).as_expr(),
            "w": jet("w", ("x",)).as_expr()})
        with pytest.raises(DomainError, match="explicit"):
            travelling_wave_reduce(bad, wave_generator())


class TestReductions:
    def test_member2_pair(self):
        S = reduced_system(2)
        eqs = {expr_text(e) for e in S.equations_zero()}
        want_a = E("g'' - f'^2 + g'^2 + c*f'", ("c",))
        want_b = E("f'' + 2*f'*g' - c*g'", ("c",))
        got = S.equations_zero()
        assert any((e - want_a).is_zero() for e in got)
        assert any((e - want_b).is_zero() for e in got)

    def test_member3_pair(self):
        S = reduced_system(3)
        want_f = E("f''' + c*f' - f'^3 + 3*f'*g'^2 + 3*g'*f'' + 3*f'*g''", ("c",))
        want_g = E("g''' + c*g' - 3*f'^2*g' + g'^3 - 3*f'*f'' + 3*g'*g''", ("c",))
        got = S.equations_zero()
        assert any((e - want_f).is_zero() for e in got)
        assert any((e - want_g).is_zero() for e in got)

    def test_member1_contracts(self):
        S = reduced_system(1)
        got = {expr_text(e) for e in S.equations_zero()}
        assert got == {"f'", "g'"}

    def test_member1_characteristic_speed(self):
        # at c = 1 the transport pair reduces to 0 = 0: no equation is left
        S = reduced_system(1, 1)
        assert S.leads == {} and S.equations_zero() == [] and S.order == 0

    def test_drift_reduction(self):
        # d_t + c d_x + k d_v: v = f(s) + k t, so v_t = -c f' + k, and the
        # v-equation is the one solved for g''
        out = travelling_wave_reduce(catalogue_member(2), wave_generator(v="k"))
        want = reduced_system(2).leads
        assert out.leads == {"f": want["f"],
                             "g": (2, E("-c*f' + k + f'^2 - g'^2", ("c", "k")))}

    def test_order_reduce_33(self):
        S = order_reduce(reduced_system(2))
        want_a = EFG("G' + c*F + G^2 - F^2")
        want_b = EFG("F' + 2*F*G - c*G")
        got = S.equations_zero()
        assert any((e - want_a).is_zero() for e in got)
        assert any((e - want_b).is_zero() for e in got)

    def test_order_reduce_322(self):
        S = order_reduce(reduced_system(3))
        want_f = EFG("F'' + c*F - F^3 + 3*F*G^2 + 3*G*F' + 3*F*G'")
        want_g = EFG("G'' + c*G - 3*F^2*G + G^3 - 3*F*F' + 3*G*G'")
        got = S.equations_zero()
        assert any((e - want_f).is_zero() for e in got)
        assert any((e - want_g).is_zero() for e in got)

    def test_printed_322_differs_by_c_sign(self):
        comp = system_322().equations_zero()
        printed = system_322_printed().equations_zero()
        c = sym("c").as_expr()
        deltas = []
        for ec in comp:
            for ep in printed:
                d = ec - ep
                if len(d._terms) == 1:
                    deltas.append(d)
        want = {expr_text(Expr.rational(2) * c * jet("F").as_expr()),
                expr_text(Expr.rational(2) * c * jet("G").as_expr())}
        assert {expr_text(d) for d in deltas} == want

    @pytest.mark.parametrize("pair, branch", [
        (system_322, f_branch_322), (system_322_printed, f_branch_322_printed)],
        ids=["computed", "printed"])
    def test_g_zero_is_not_an_invariant_subsystem(self, pair, branch):
        # G = G' = G'' = 0 turns the F-equation into the F-branch, but the
        # G-equation leaves 0 = 3*F*F': an F-branch profile such as sn solves
        # the branch, not the pair
        zero = {jet("G", ("s",) * k): Expr.zero() for k in range(3)}
        got = [expr_text(substitute(e, zero)) for e in pair().equations_zero()]
        assert got == [*map(expr_text, branch().equations_zero()), "-3*F*F'"]

    def test_order_reduce_reintegrates(self):
        # renaming F^(k) -> f^(k+1) recovers the input system canonically
        for member in (2, 3):
            S = reduced_system(member)
            R = order_reduce(S)
            back = {}
            for dep, (m, rhs) in R.leads.items():
                bindings = {}
                for a in {jet(d, ("s",) * k) for d in ("F", "G")
                          for k in range(0, m + 1)}:
                    bindings[a] = jet(a.dep.lower(), ("s",) * (a.order + 1)).as_expr()
                back[dep.lower()] = (m + 1, substitute(rhs, bindings))
            assert back == S.leads

    def test_order_reduce_blocks_on_bare_dependent(self):
        from lieforge.expr_core import DomainError
        ctx = JetSpec(("s",), ("f",))
        from lieforge.systems import ODESystem
        S = ODESystem(jet=ctx, leads={"f": (2, parse_expr("f", ctx))})
        with pytest.raises(DomainError):
            order_reduce(S)

    def test_trivial_order_reduce(self):
        ctx = JetSpec(("s",), ("f",))
        from lieforge.systems import ODESystem
        S = ODESystem(jet=ctx, leads={"f": (2, Expr.zero())})
        out = order_reduce(S)
        assert out.leads["F"] == (1, Expr.zero())


class TestElimination:
    def test_minimal_polynomial_form(self):
        got = computed_second_order()
        want = EFG("(2*F - c)*F'' - 3*F'^2 + F*(F - c)*(2*F - c)^2")
        lam = equal_up_to_factor(got, want)
        assert lam is not None

    def test_printed_differs_by_documented_delta(self):
        got = computed_second_order()
        printed = printed_second_order()
        assert equal_up_to_factor(got, printed) is None
        # computed + printed = +-2 (2F - c) F''  (both sign-normalised)
        char = Expr.rational(2) * (Expr.rational(2) * jet("F").as_expr()
                                   - sym("c").as_expr()) \
            * jet("F", ("s", "s")).as_expr()
        lam = equal_up_to_factor(got + printed, char)
        assert lam in (Fraction(1), Fraction(-1))

    def test_numeric_solutions_satisfy_computed_not_printed(self):
        # integrate the pair from a generic state; the eliminated equation
        # must hold along the numeric solution
        c = 1.0
        S = system_33(1)
        traj = rk4_from_system(S, {}, {"F": 0.2, "G": 0.1}, (0.0, 1.0), 1e-3)
        comp = computed_second_order(1)
        prin = printed_second_order(1)
        Fv = [z.real for z in traj.values["F"]]
        h = traj.step
        worst_c = worst_p = 0.0
        for i in range(2, len(Fv) - 2):
            F = Fv[i]
            Fp = (Fv[i - 2] - 8 * Fv[i - 1] + 8 * Fv[i + 1] - Fv[i + 2]) / (12 * h)
            Fpp = (-Fv[i - 2] + 16 * Fv[i - 1] - 30 * Fv[i] + 16 * Fv[i + 1]
                   - Fv[i + 2]) / (12 * h * h)
            from lieforge.expr_core import eval_numeric
            point = {jet("F"): F, jet("F", ("s",)): Fp,
                     jet("F", ("s", "s")): Fpp}
            worst_c = max(worst_c, abs(eval_numeric(comp, point)))
            worst_p = max(worst_p, abs(eval_numeric(prin, point)))
        assert worst_c < 1e-6
        assert worst_p > 1e-2

    def test_pivot_degenerate(self):
        c = sym("c").as_expr()
        with pytest.raises(PivotDegenerateError):
            reconstruct_G(Expr.rational(Fraction(1, 2)) * c, c)

    def test_general_formula_when_a2_is_no_multiple_of_the_pivot(self):
        # F' = F G, G' = F G^2: the pivot is -F and a2 = -F^2, so the general
        # formula runs; its result is F^2 (F'' - F' G - F^2 G^2) at G = F'/F
        S = ODESystem(jet=red.ODE_JET_FG, label="quadratic",
                      leads={"F": (1, EFG("F*G")), "G": (1, EFG("F*G^2"))})
        got = eliminate_to_second_order(S)
        by_hand = substitute(EFG("(F'' - F'*G - F^2*G^2)*F^2"), {jet("G"): EFG("F'/F")})
        assert got == by_hand == EFG("-F*F'^2 - F^2*F'^2 + F^2*F''")


class TestSolutions:
    def test_tan_symbolic(self):
        rep = verify_solution(system_33(), tan_solution(), mode="symbolic")
        assert rep.zero

    def test_candidate_at_a_speed(self):
        # the profile at symbolic c fails the system at c = 7; at c = 7 it holds
        assert not verify_solution(system_33(7), tan_solution(), mode="symbolic").zero
        cand = candidate_at(tan_solution(), 7)
        assert cand.exprs["F"] == E("7/2")
        assert verify_solution(system_33(7), cand, mode="symbolic").zero
        trig = candidate_at(rational_trig_solution(), 4)
        assert trig.exprs["G"] == E("2*(G0*cos(2*s) - sin(2*s))*"
                                    "(G0*sin(2*s) + cos(2*s) + G1)^-1", ("G0", "G1"))
        assert trig.pole_denoms == [E("G0*sin(2*s) + cos(2*s) + G1", ("G0", "G1"))]

    def test_tan_numeric(self):
        rep = verify_solution(system_33(1), tan_solution(), mode="numeric",
                              param_values={"c": 1.0, "s0": 0.0})
        assert rep.max_residual < 1e-12

    def test_numeric_binds_the_root_of_any_parameter(self):
        # the tan branch written in a with sqrt(a) = c: exact at a = c^2 only
        ctx = JetSpec(("s",), (), constants=("a",))
        cand = SolutionCandidate(
            name="tan-in-a", params={"c": 4.0, "a": 16.0},
            exprs={"F": ctx.parse("sqrt(a)/2"),
                   "G": ctx.parse("-1/2*sqrt(a)*tan(1/2*sqrt(a)*s)")},
            pole_denoms=[ctx.parse("cos(1/2*sqrt(a)*s)")])
        assert verify_solution(system_33(), cand, mode="numeric").max_residual < 1e-12
        off = verify_solution(system_33(), cand, mode="numeric", param_values={"a": 9.0})
        assert off.max_residual > 1.0

    def test_s11_printed_fails_o1(self):
        # the printed two-parameter profile misses the pair by O(1);
        # the verifier must report the true residual, not mask it
        for F1 in (0.0, 1.0, 2.0):
            rep = verify_solution(system_33(1), s11_solution(), mode="numeric",
                                  param_values={"c": 1.0, "F0": 1.0, "F1": F1})
            assert rep.max_residual > 0.1

    def test_s11_g_identity_holds(self):
        # G = -F'/(2F - c) is exact along any sampling (it defines G)
        from lieforge.expr_core import eval_numeric
        cand = s11_solution()
        Fe, Ge = cand.exprs["F"], cand.exprs["G"]
        Fp = __import__("lieforge.expr_core", fromlist=["derive"]).derive(
            Fe, sym("s"))
        c = sym("c").as_expr()
        resid = Ge * (Expr.rational(2) * Fe - c) + Fp
        worst = 0.0
        for i in range(200):
            s = 0.25 + i * 0.048
            point = {sym("s"): s, sym("c"): 1.0, sym("F0"): 1.0, sym("F1"): 1.0}
            worst = max(worst, abs(eval_numeric(resid, point)))
        assert worst < 1e-9

    def test_s11_f_residual_samples_to_zero(self):
        # the symbolic verdict on (3.3) reads Nonzero on both equations, yet the
        # F-equation residual, from which G is built, has no sample above
        # tolerance: a false Nonzero of `is_zero()` on 2 reciprocals, pinned
        # here without asserting the verdict
        S = system_33()
        vals = red._candidate_jet_values(S, s11_solution())
        (lead, rhs), = [(lead, rhs) for lead, rhs in S.equations() if lead.dep == "F"]
        R = substitute(lead.as_expr() - rhs, vals)
        assert len(R.terms()) == 45
        assert sum(isinstance(a, Recip) for a in atoms_of(R, recurse=False)) == 2
        assert equals_zero(R) == ZeroStatus.PROBABLY_ZERO

    def test_rational_trig_corrected(self):
        rep = verify_solution(system_322(1), rational_trig_solution(),
                              mode="numeric",
                              param_values={"c": 1.0, "G0": 0.5, "G1": 0.25})
        assert rep.max_residual < 1e-9

    def test_rational_trig_printed_fails(self):
        rep = verify_solution(system_322(1), rational_trig_solution(printed=True),
                              mode="numeric",
                              param_values={"c": 1.0, "G0": 0.5, "G1": 0.25})
        assert rep.max_residual > 1.0

    def test_sn_branch_both_conventions(self):
        k = 0.9
        rep = verify_solution(f_branch_322_printed(Fraction(-181, 100)),
                              sn_solution(k, printed_system=True),
                              mode="numeric", s_range=(0.0, 6.0))
        assert rep.max_residual < 1e-8
        rep2 = verify_solution(f_branch_322(Fraction(181, 100)),
                               sn_solution(k, printed_system=False),
                               mode="numeric", s_range=(0.0, 6.0))
        assert rep2.max_residual < 1e-8

    def test_sn_unconstrained_fails(self):
        # dropping the derived constraints breaks the profile
        k = 0.9
        cand = sn_solution(k, printed_system=True)
        rep = verify_solution(f_branch_322_printed(-1), cand, mode="numeric",
                              s_range=(0.0, 6.0), param_values={"c": -1.0})
        assert rep.max_residual > 1e-2

    def test_linear_member4(self):
        rep = verify_solution(reduced_system(4), linear_solution_member4(),
                              mode="symbolic")
        assert rep.zero

    def test_linear_member4_without_constraint(self):
        cand = linear_solution_member4()
        cand.constraints = []
        rep = verify_solution(reduced_system(4), cand, mode="symbolic")
        assert not rep.zero

    def test_nan_residual_fails(self):
        # max(0.0, nan) is 0.0: a NaN residual must not read as a pass
        cand = SolutionCandidate(name="nan", callables={"F": lambda s: [math.nan] * 3},
                                 params={"c": -1.25})
        rep = verify_solution(f_branch_322_printed(Fraction(-5, 4)), cand,
                              mode="numeric", samples=20)
        assert rep.samples == 20 and rep.max_residual == math.inf

    @pytest.mark.parametrize("samples", [0, -5])
    def test_empty_sample_raises(self, samples):
        # an empty sample once read max_residual 0.0 for a profile that fails by O(1)
        from lieforge.expr_core import DomainError
        with pytest.raises(DomainError, match="at least one sample"):
            verify_solution(system_33(1), s11_solution(), mode="numeric", samples=samples)

    def test_all_samples_excluded_raises(self):
        from lieforge.expr_core import PoleError
        cand = tan_solution()
        cand.pole_denoms = [Expr.zero()]  # every sample looks like a pole
        with pytest.raises(PoleError):
            verify_solution(system_33(1), cand, mode="numeric",
                            param_values={"c": 1.0, "s0": 0.0})


class TestIntegration:
    def test_rk4_matches_tan(self):
        c = 1.0
        S = system_33(1)
        traj = rk4_from_system(S, {}, {"F": 0.5, "G": 0.0}, (0.0, 2.0), 1e-3)
        err = 0.0
        for s, G in zip(traj.grid, traj.values["G"]):
            err = max(err, abs(G - (-0.5 * c * math.tan(0.5 * c * s))))
        assert err < 1e-6

    def test_rk4_constant(self):
        from lieforge.systems import ODESystem
        ctx = JetSpec(("s",), ("F",))
        S = ODESystem(jet=ctx, leads={"F": (1, Expr.zero())})
        traj = rk4_from_system(S, {}, {"F": 1.0}, (0.0, 1.0), 0.1)
        assert all(abs(v - 1.0) < 1e-15 for v in traj.values["F"])

    def test_rk4_pole_guard(self):
        # G' = 1 + G^2 blows up at pi/2 - atan(G0)
        from lieforge.systems import ODESystem
        ctx = JetSpec(("s",), ("G",))
        S = ODESystem(jet=ctx, leads={"G": (1, parse_expr("1 + G^2", ctx))})
        traj = rk4_from_system(S, {}, {"G": 0.0}, (0.0, 3.0), 1e-3)
        assert traj.grid[-1] < 1.62  # stopped near the pole

    def test_sn_oracle_trajectory(self):
        # F'' = c F + F^3 with c = -(1 + k^2), F = F0 sn: first-order form
        from lieforge.systems import ODESystem
        k = 0.9
        c = Fraction(-181, 100)  # -(1 + k^2) for k = 9/10
        F0 = math.sqrt(2) * k
        ctx = JetSpec(("s",), ("F", "P"))
        Fe = jet("F").as_expr()
        S = ODESystem(jet=ctx, leads={
            "F": (1, jet("P").as_expr()),
            "P": (1, Expr.rational(c) * Fe + Fe ** 3)})
        from lieforge.numerics import jacobi_sn
        traj = rk4_from_system(S, {}, {"F": 0.0, "P": F0}, (0.0, 2.0), 1e-3)
        err = 0.0
        for s, F in zip(traj.grid, traj.values["F"]):
            err = max(err, abs(F - F0 * jacobi_sn(s, k)))
        assert err < 1e-5


class TestLift:
    def test_member2_tan_branch(self):
        c = 1.0
        f_fn, g_fn = tan_antiderivatives(c)
        r = lift_and_check(catalogue_member(2), {"f": f_fn, "g": g_fn}, c, n=50)
        assert r < 1e-6

    def test_member1_constants(self):
        r = lift_and_check(catalogue_member(1),
                           {"f": lambda s: 0.7, "g": lambda s: -0.3}, 1.0, n=10)
        assert r < 1e-12

    def test_nan_residual_fails(self):
        f_fn, g_fn = tan_antiderivatives(1.0)
        r = lift_and_check(catalogue_member(2),
                           {"f": f_fn, "g": lambda s: math.nan if s > 0.3 else g_fn(s)},
                           1.0, n=10)
        assert r == math.inf

    def test_negative_control(self):
        c = 1.0
        f_fn, g_fn = tan_antiderivatives(c)
        r = lift_and_check(catalogue_member(2),
                           {"f": f_fn, "g": lambda s: g_fn(s) + 0.05 * s * s},
                           c, n=10)
        assert r > 1e-3


    @pytest.mark.parametrize("n", [0, 1])
    def test_grid_without_two_points_raises(self, n):
        # n = 0 once returned 0.0 and n = 1 raised ZeroDivisionError
        from lieforge.expr_core import DomainError
        _, g_fn = tan_antiderivatives(1.0)
        with pytest.raises(DomainError, match="n >= 2"):
            lift_and_check(catalogue_member(2), {"f": lambda s: s ** 3, "g": g_fn}, 1.0, n=n)

    def test_two_point_grid_reads_the_corners(self):
        f_fn, g_fn = tan_antiderivatives(1.0)
        assert lift_and_check(catalogue_member(2), {"f": f_fn, "g": g_fn}, 1.0, n=2) < 1e-6


class TestSeries:
    def test_csv_format(self, tmp_path):
        rows = fig1_rows(1.0, 0.0, n=10)
        path = tmp_path / "out.csv"
        emit_series_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,F_re,F_im,G_re,G_im"
        assert len(lines) == 11
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_csv_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_series_csv([], path)
        assert path.read_text() == "s,F_re,F_im,G_re,G_im\n"

    def test_tan_series_real(self, tmp_path):
        # real closed form: imaginary columns identically zero
        cand = tan_solution()
        from lieforge.expr_core import eval_numeric
        rows = []
        for i in range(20):
            s = 0.0 + 2.0 * i / 19
            point = {sym("s"): s, sym("c"): 1.0, sym("s0"): 0.0}
            rows.append((s, eval_numeric(cand.exprs["F"], point),
                         eval_numeric(cand.exprs["G"], point)))
        path = tmp_path / "tan.csv"
        emit_series_csv(rows, path)
        for line in path.read_text().splitlines()[1:]:
            cols = line.split(",")
            assert float(cols[2]) == 0.0 and float(cols[4]) == 0.0

    def test_fig1_rows_skip_a_pole(self):
        # F0 = 1, F1 = 5, c = 1: D = (exp(-2 I s) - 5)^2 - 16 vanishes at s = 0
        rows = fig1_rows(1.0, 5.0, n=11)
        assert [s for s, _, _ in rows] == [float(i) for i in range(1, 11)]

    def test_fig1_features(self):
        feats0 = fig1_features(1.0, 0.0)
        feats2 = fig1_features(1.0, 2.0)
        assert abs(feats0["period"] - 2 * math.pi) < 1e-15
        assert feats0["periodicity_error"] < 1e-6
        assert feats2["periodicity_error"] < 1e-6
        assert feats2["dFre_sign_changes_per_period"] > \
            feats0["dFre_sign_changes_per_period"]
