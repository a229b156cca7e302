"""Prolongation, residuals, discovery, infinite families, span membership."""

import pytest

from lieforge import catalog
from lieforge.expr_core import (
    DomainError, Expr, Jet, atoms_of, derive, eval_numeric, func, jet, sym,
)
from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.liealg import in_span
from lieforge.parser import parse_expr
from lieforge.reduce import ODE_JET
from lieforge.symmetry import (
    VectorField, ansatz_dictionary, determining_system,
    discover_symmetries, field_text, parse_field, prolong_generator,
    symmetry_residual, verify_generator,
)


def R(text):
    return parse_expr(text, REAL_JET.with_constants(("c",)))


class TestProlongation:
    def test_translation_trivial(self):
        X = VectorField(REAL_JET, xi={"x": Expr.one()})
        pr = prolong_generator(X, [jet("v", ("x",)), jet("v", ("t",)),
                                   jet("w", ("x", "x"))])
        assert all(e.is_zero() for e in pr.values())

    def test_galilean(self):
        X = VectorField(REAL_JET, xi={"x": R("t")}, eta={"v": R("x/2")})
        pr = prolong_generator(X, [jet("v", ("x",)), jet("v", ("t",))])
        assert pr[jet("v", ("x",))] == R("1/2")
        assert pr[jet("v", ("t",))] == R("-v_x")

    def test_scaling(self):
        X = VectorField(REAL_JET, xi={"t": R("t"), "x": R("x/2")})
        pr = prolong_generator(X, [jet("v", ("x",))])
        assert pr[jet("v", ("x",))] == R("-1/2*v_x")

    def test_coefficients_must_be_point(self):
        with pytest.raises(DomainError):
            VectorField(REAL_JET, eta={"v": R("v_x")})


class TestResiduals:
    def test_projective_field_member2(self, member2):
        X = catalog.fields_member2()[2]  # G3a
        assert all(r.is_zero() for r in symmetry_residual(member2, X))

    def test_translation_member4(self, member4):
        X = VectorField(REAL_JET, eta={"v": Expr.one()})
        assert all(r.is_zero() for r in symmetry_residual(member4, X))

    def test_pure_x_scaling_fails(self, member2):
        X = VectorField(REAL_JET, xi={"x": R("x")})
        res = symmetry_residual(member2, X)
        assert any(not r.is_zero() for r in res)

    def test_raw_residual_vanishes_on_solution(self, member2):
        # prolongation cross-check: the unreduced residual of a symmetry,
        # evaluated along the lifted tan-branch solution with exact
        # derivatives, vanishes to rounding error
        import math
        X = catalog.fields_member2()[1]  # G2a
        # pr X(lead - rhs) = eta^{lead} - xi^i d_i rhs - sum_J eta^J d rhs/du_J
        equations = member2.equations()
        jets = dict.fromkeys(a for _, rhs in equations for a in atoms_of(rhs)
                             if isinstance(a, Jet))
        coeffs = prolong_generator(X, [*(lead for lead, _ in equations), *jets])
        res = []
        for lead, rhs in equations:
            r = coeffs[lead]
            for i in REAL_JET.independents:
                r = r - X.xi_of(i) * derive(rhs, sym(i))
            for a in jets:
                r = r - coeffs[a] * derive(rhs, a)
            res.append(r)
        c, half = 1.0, 0.5

        def profile(s):
            # s-derivatives 0..3 of f = c s/2 and g = ln|cos((c/2) s)|
            T = math.tan(half * s)
            f = [half * s, half, 0.0, 0.0]
            g = [math.log(abs(math.cos(half * s))), -half * T,
                 -half ** 2 * (1 + T * T), -half ** 3 * 2 * T * (1 + T * T)]
            return f, g

        for (tv, xv) in [(0.1, 0.3), (-0.2, 0.5), (0.4, -0.1)]:
            f, g = profile(xv - c * tv)
            point = {sym("t"): tv, sym("x"): xv}
            # d^p_t d^q_x u = (-c)^p u^{(p+q)} along u(t,x) = u(x - c t)
            for name, vals in (("v", f), ("w", g)):
                for p in range(0, 4):
                    for q in range(0, 4 - p):
                        point[jet(name, ("t",) * p + ("x",) * q)] = \
                            (-c) ** p * vals[p + q]
            for r in res:
                assert abs(eval_numeric(r, point)) < 1e-9


class TestVerification:
    def test_all_member2_fields(self, member2):
        for X in catalog.fields_member2():
            assert verify_generator(member2, X).zero, X.name

    def test_member3_printed_vs_scaling(self, member3):
        printed = [X for X in catalog.fields_member3() if X.name == "G2b"][0]
        rep = verify_generator(member3, printed)
        assert not rep.zero and any(r != "0" for r in rep.remainders())
        assert verify_generator(member3, catalog.fields_member3_scaling()).zero

    def test_member3_rest(self, member3):
        for X in catalog.fields_member3():
            if X.name == "G2b":
                continue
            assert verify_generator(member3, X).zero, X.name

    def test_member4_translations(self, member4):
        for X in catalog.fields_member4():
            assert verify_generator(member4, X).zero, X.name

    def test_transport_family(self):
        S = catalogue_member(1)
        for X in catalog.transport_family_examples():
            assert verify_generator(S, X).zero, X.name


class TestSlots:
    @pytest.mark.parametrize("kind, var", [("xi", "s"), ("xi", "v"), ("eta", "x")])
    def test_slot_its_jet_lacks_raises(self, kind, var):
        with pytest.raises(DomainError, match=f"unrecognised slot '{kind}_{var}'"):
            VectorField(REAL_JET, **{kind: {var: Expr.one()}})

    def test_sum_across_jet_spaces_raises(self):
        # the s slot would be stored on a t, x jet and never read
        X, Y = parse_field("xi_t = 1", REAL_JET), parse_field("xi_s = 1", ODE_JET)
        with pytest.raises(DomainError, match="unrecognised slot 'xi_s'"):
            X.add(Y)


class TestFamilies:
    def test_member2_family_coupled(self, member2):
        assert verify_generator(member2, catalog.family_member2()).zero

    def test_member2_family_plus_a_multiple_of_itself(self, member2):
        X = catalog.family_member2()
        Y = X.add(X.scale(2))
        assert Y.unknowns == X.unknowns
        assert verify_generator(member2, Y).zero

    def test_sum_declares_the_unknowns_of_both_fields(self, member2, member3):
        """The sum's jet names every function its rules carry, and every
        constant of either field, in either order; verdicts are those of the
        sum's coefficients and rules, as before."""
        tx = ("t", "x")
        X = parse_field("xi_t = 1", REAL_JET).add(catalog.family_member2())
        assert X.jet.functions == (("a", tx), ("b", tx))
        assert [lead.name for lead, _ in X.unknowns] == ["a", "b"]
        assert verify_generator(member2, X).zero
        Y = catalog.family_member2().add(catalog.family_member3())
        assert Y.jet.functions == tuple((f, tx) for f in "abcd")
        assert [lead.name for lead, _ in Y.unknowns] == list("abcd")
        assert not verify_generator(member2, Y).zero
        assert not verify_generator(member3, Y).zero
        C = parse_field("xi_x = c", REAL_JET.with_constants(("c",)))
        T = parse_field("xi_t = 1", REAL_JET)
        assert T.add(C).jet.constants == C.add(T).jet.constants == ("c",)

    def test_sum_with_two_argument_lists_for_one_unknown_raises(self):
        X = parse_field("unknown a(t)\neta_v = a", REAL_JET)
        with pytest.raises(DomainError, match="two argument lists for the unknown a"):
            X.add(catalog.family_member2())

    def test_sum_with_two_constraints_on_one_unknown_raises(self):
        with pytest.raises(DomainError, match="two constraints for the unknown a"):
            catalog.family_member2().add(catalog.family_member2_printed())

    def test_member2_family_printed_heat_fails(self, member2):
        rep = verify_generator(member2, catalog.family_member2_printed())
        assert not rep.zero
        assert any("a_xx" in r or "b_xx" in r for r in rep.remainders())

    def test_member2_family_negative_control(self, member2):
        assert not verify_generator(member2, catalog.family_member2_partial()).zero

    def test_member3_family(self, member3):
        assert verify_generator(member3, catalog.family_member3()).zero

    def test_member3_family_negative_control(self, member3):
        assert not verify_generator(member3, catalog.family_member3_partial()).zero


def _family(functions, eta_v, eta_w, rules, name):
    """A family built by hand; each rule (f, sign, g, idx) reads f_t = sign*g_idx."""
    args = ("t", "x")
    ctx = REAL_JET.with_functions({f: args for f in functions})
    unknowns = tuple(
        (func(f, args, ("t",)), Expr.rational(sign) * func(g, args, idx).as_expr())
        for f, sign, g, idx in rules)
    return VectorField(ctx, eta={"v": ctx.parse(eta_v), "w": ctx.parse(eta_w)},
                       unknowns=unknowns, name=name)


_ETA2 = ("-exp(-w)*(b*cos(v) + a*sin(v))", "exp(-w)*(a*cos(v) - b*sin(v))")
_ETA3 = ("-exp(-w)*(c*cos(v) + d*sin(v))", "-exp(-w)*(-d*cos(v) + c*sin(v))")


@pytest.mark.parametrize("maker, reference", [
    ("family_member2", _family("ab", *_ETA2, [("a", 1, "b", "xx"), ("b", -1, "a", "xx")],
                               "member2-family")),
    ("family_member2_printed", _family("ab", *_ETA2, [("a", 1, "a", "xx"),
                                                      ("b", 1, "b", "xx")],
                                       "member2-family")),
    ("family_member2_partial", _family("ab", *_ETA2, [("a", 1, "b", "xx")],
                                       "member2-family")),
    ("family_member3", _family("cd", *_ETA3, [("c", 1, "c", "xxx"), ("d", 1, "d", "xxx")],
                               "member3-family")),
    ("family_member3_partial", _family("cd", *_ETA3, [("c", 1, "c", "xxx")],
                                       "member3-family-partial")),
])
def test_catalogue_families_read_as_built_by_hand(maker, reference):
    assert getattr(catalog, maker)() == reference


class TestParseField:
    def test_unknown_without_rule_is_declared_unconstrained(self):
        X = parse_field("unknown b(t,x)  # no rule\neta_v = b_x", REAL_JET, "X")
        assert X.jet.functions == (("b", ("t", "x")),) and X.unknowns == ()
        assert X.eta_of("v") == func("b", ("t", "x"), ("x",)).as_expr()
        assert X.name == "X" and field_text(X) == "b_x*d_v"

    @pytest.mark.parametrize("text", [
        "unknown a(t,x):\neta_v = a", "unknown a(t,x): a_x = a\neta_v = a",
        "unknown a\neta_v = a", "zeta_v = 1", "xi_y = 1", "eta_x = 1",
        "unknown x(t): x_t = 0\neta_v = 1",
    ], ids=["empty-rule", "lead-by-second-argument", "no-arguments", "bad-slot",
            "xi-of-no-independent", "eta-of-no-dependent", "unknown-named-as-independent"])
    def test_malformed_text_raises(self, text):
        with pytest.raises(ValueError):
            parse_field(text, REAL_JET)

    def test_unknown_may_take_a_constant_name(self):
        X = parse_field("unknown c(t,x): c_t = c_xxx\neta_v = c_x",
                        REAL_JET.with_constants(("c",)))
        assert X.eta_of("v") == func("c", ("t", "x"), ("x",)).as_expr()


class TestDiscovery:
    def test_member1_contains_translations(self):
        S = catalogue_member(1)
        basis = ansatz_dictionary(REAL_JET, degree=1)
        fields = discover_symmetries(S, basis)
        texts = {field_text(F) for F in fields}
        for want in ("d_t", "d_x", "d_v", "d_w"):
            assert want in texts

    def test_member2_rank_and_nullity(self, discovery2):
        basis, det, fields = discovery2
        assert det.n_unknowns == 24
        assert det.nullity() == 7
        assert det.rank() == 17
        assert len(fields) == 7

    def test_member2_roundtrip(self, member2, discovery2):
        _, _, fields = discovery2
        for F in fields:
            assert verify_generator(member2, F).zero

    def test_member2_span_membership(self, discovery2):
        _, _, fields = discovery2
        for X in catalog.fields_member2():
            assert in_span([X], fields)[0] is not None, X.name

    def test_span_membership_none_when_field_leaves_dictionary(self, discovery2):
        _, _, fields = discovery2
        outside = VectorField(REAL_JET, xi={"t": R("t^3")})
        assert in_span([outside], fields) == [None]

    def test_member3_contains_trig_field(self, member3):
        basis = ansatz_dictionary(REAL_JET, degree=1, trig_order=2)
        fields = discover_symmetries(member3, basis)
        assert len(fields) == 7
        G5b = [X for X in catalog.fields_member3() if X.name == "G5b"][0]
        assert in_span([G5b], fields)[0] is not None

    def test_member4_exactly_translations(self, discovery4):
        basis, det, fields = discovery4
        assert det.nullity() == 4
        texts = sorted(field_text(F) for F in fields)
        assert texts == ["d_t", "d_v", "d_w", "d_x"]

    def test_monotone_in_ansatz(self, member2, discovery2):
        # enlarging the dictionary never loses symmetries
        _, det2, _ = discovery2
        big = ansatz_dictionary(REAL_JET, degree=2, trig_order=1)
        det_big = determining_system(member2, big)
        assert det_big.nullity() >= det2.nullity()

    def test_empty_basis(self, member2):
        from lieforge.symmetry import AnsatzBasis
        empty = AnsatzBasis(jet=REAL_JET, slots={})
        det = determining_system(member2, empty)
        assert det.nullity() == 0
        assert discover_symmetries(member2, empty, det) == []


class TestClosureProperty:
    def test_bracket_of_symmetries_is_symmetry(self, member2):
        from lieforge.liealg import lie_bracket
        fields = catalog.fields_member2()
        pairs = [(0, 4), (1, 2), (2, 6)]
        for i, j in pairs:
            Z = lie_bracket(fields[i], fields[j])
            assert verify_generator(member2, Z).zero
