"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Where the published source objects are internally inconsistent, the
literal claim is kept as a strict xfail right next to
the corrected assertion, so the defect stays visible without being masked:

  * criterion 3: the unknown-function family of the second member needs the
    coupled constraints a_t = b_xx, b_t = -a_xx (separate heat equations as
    printed leave an e^{-w} remainder);
  * criterion 8: the printed (3.22a/b) flip the sign of the c-terms relative
    to the (3.20) pair they reduce from, and the printed second-order
    wave-profile equation flips two signs;
  * criterion 9: the printed two-parameter closed form (s11) misses the
    first-order pair by O(1) for every parameter choice tested.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from lieforge import catalog
from lieforge.expr_core import Expr, I, eval_numeric, jet, sym
from lieforge.hierarchy import (REAL_JET, audit_member, catalogue_member,
                                complex_split, hierarchy_member)
from lieforge.liealg import (in_span, jacobi_check, lie_bracket,
                             structure_constants)
from lieforge.numerics import jacobi_sn
from lieforge.parser import expr_text, parse_expr
from lieforge.reduce import (ODE_JET, computed_second_order, equal_up_to_factor,
                             f_branch_322_printed, fig1_features, fig1_rows,
                             emit_series_csv, lift_and_check,
                             linear_solution_member4, printed_second_order,
                             rational_trig_solution, reduced_system,
                             rk4_from_system, s11_solution, sn_solution,
                             system_322, system_322_printed, system_33,
                             tan_antiderivatives, tan_solution,
                             verify_solution)
from lieforge.symmetry import (ansatz_dictionary, determining_system,
                               discover_symmetries, field_text,
                               verify_generator)
from lieforge.systems import JetSpec

from exprgen import (kernel_point, random_point, random_tree, tree_eval,
                     tree_to_expr)


def _ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


COMPLEX = JetSpec(("t", "x"), ("u", "ub"))


def test_criterion_01_hierarchy_golden():
    t0 = time.time()
    v0, w0 = complex_split(hierarchy_member(0))
    S1 = catalogue_member(1)
    assert v0 == S1.rhs["v"] and w0 == S1.rhs["w"]
    assert hierarchy_member(1) == parse_expr("-u_x^2 - I*u_xx", COMPLEX)
    v2, w2 = complex_split(hierarchy_member(2))
    S3 = catalogue_member(3)
    assert v2 == S3.rhs["v"] and w2 == S3.rhs["w"]
    rep4 = audit_member(4)
    assert not rep4.match
    items = rep4.itemized()
    assert items["v_t"] and items["w_t"]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(1, f"members 1-3 regenerate exactly; member 4 delta has "
           f"{len(items['v_t']) + len(items['w_t'])} terms ({elapsed:.2f}s)")


def test_criterion_02_member2_discovery():
    t0 = time.time()
    S = catalogue_member(2)
    basis = ansatz_dictionary(REAL_JET, degree=2)
    det = determining_system(S, basis)
    assert det.nullity() == 7
    fields = discover_symmetries(S, basis, det)
    assert len(fields) == 7
    for X in catalog.fields_member2():
        assert in_span([X], fields)[0] is not None, X.name
        assert verify_generator(S, X).zero, X.name
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(2, f"nullity exactly 7; G1a..G7a in span and verified ({elapsed:.2f}s)")


def test_criterion_03_member2_family():
    S = catalogue_member(2)
    assert verify_generator(S, catalog.family_member2()).zero
    rep_printed = verify_generator(S, catalog.family_member2_printed())
    assert not rep_printed.zero
    assert not verify_generator(S, catalog.family_member2_partial()).zero
    _ok(3, "family verifies Zero under the coupled constraints "
           "a_t = b_xx, b_t = -a_xx; separate heat constraints as printed "
           "and the dropped-constraint control are both Nonzero")


@pytest.mark.xfail(strict=True,
                   reason="printed constraints a_t = a_xx, b_t = b_xx leave an "
                          "e^{-w} remainder in both equations")
def test_criterion_03_literal_heat_constraints():
    S = catalogue_member(2)
    assert verify_generator(S, catalog.family_member2_printed()).zero


def test_criterion_04_member3():
    S = catalogue_member(3)
    for X in catalog.fields_member3():
        if X.name == "G2b":
            rep = verify_generator(S, X)
            # flagged discrepancy
            assert not rep.zero and any(r != "0" for r in rep.remainders())
        else:
            assert verify_generator(S, X).zero, X.name
    assert verify_generator(S, catalog.fields_member3_scaling()).zero
    assert verify_generator(S, catalog.family_member3()).zero
    assert not verify_generator(S, catalog.family_member3_partial()).zero
    _ok(4, "G1b, G3b..G7b and t d_t + x/3 d_x verify; printed G2b flagged "
           "Nonzero; c,d-family Zero modulo c_t = c_xxx, d_t = d_xxx")


def test_criterion_05_member4_discovery(discovery4):
    basis, det, fields = discovery4
    assert det.nullity() == 4
    assert sorted(field_text(F) for F in fields) == ["d_t", "d_v", "d_w", "d_x"]
    _ok(5, "dictionary D=2, M=2, K=1 yields exactly span{d_t, d_x, d_v, d_w}")


def test_criterion_06_brackets():
    basis = catalog.fields_member2()
    table = structure_constants(basis)
    assert table.closed and jacobi_check(table)
    # antisymmetry: [X_j, X_i] reconstructs as the negated table entry
    for (i, j) in [(0, 1), (1, 2), (3, 4)]:
        back = lie_bracket(basis[j], basis[i])
        combo = None
        for k, q in table.constants.get((i, j), {}).items():
            term = basis[k].scale(Expr.zero() - q)
            combo = term if combo is None else combo.add(term)
        if combo is None:
            assert all(c.is_zero() for _, _, c in back.coeff_vector_atoms())
        else:
            for (_, _, c1), (_, _, c2) in zip(back.coeff_vector_atoms(),
                                              combo.coeff_vector_atoms()):
                assert (c1 - c2).is_zero()
    b = {F.name: F for F in catalog.fields_member3()}
    R = lambda s: parse_expr(s, REAL_JET)
    Z = lie_bracket(b["G5b"], b["G7b"])
    assert Z.eta_of("v") == R("-cos(2*v)") and Z.eta_of("w") == R("-sin(2*v)")
    Z2 = lie_bracket(b["G5b"], b["G6b"])
    assert Z2.eta_of("v") == R("-1/2") and Z2.eta_of("w").is_zero()
    # disagreements with the printed second-member table must be flagged
    from lieforge.cli import _printed_disagreements
    flags = _printed_disagreements(table, catalog.printed_table_member2())
    assert flags
    _ok(6, f"computed table closed, antisymmetric, Jacobi-exact; "
           f"[G5b,G7b] = -2 G6b and [G5b,G6b] = -G7b/2 confirmed; "
           f"{len(flags)} printed-table entries flagged")


def test_criterion_07_reduced_algebras():
    S32 = reduced_system(2)
    for X in catalog.fields_reduced2():
        assert verify_generator(S32, X).zero, X.name
    for X in catalog.fields_reduced2_printed_variants():
        assert not verify_generator(S32, X).zero, X.name  # flagged misprints
    S320 = reduced_system(3)
    for X in catalog.fields_reduced3():
        assert verify_generator(S320, X).zero, X.name
    fields = catalog.fields_reduced3()[2:]
    table = structure_constants(fields)
    names = {F.name: k for k, F in enumerate(table.basis)}
    E = lambda s: parse_expr(s, ODE_JET)
    assert table.constants[(names["G3f"], names["G4f"])][names["G5f"]] \
        == E("-1/sqrt(c)")
    assert table.constants[(names["G3f"], names["G5f"])][names["G4f"]] \
        == E("-sqrt(c)")
    assert table.constants[(names["G4f"], names["G5f"])][names["G3f"]] \
        == E("sqrt(c)")
    _ok(7, "twelve d-fields (G7d/G12d sign-corrected, printed variants "
           "flagged) and five f-fields verify; so(2,1) constants exact "
           "under sqrt(c)^2 -> c")


def test_criterion_08_reductions():
    got32 = {expr_text(e) for e in reduced_system(2).equations_zero()}
    E = lambda s: parse_expr(s, ODE_JET)
    assert expr_text(E("g'' - f'^2 + g'^2 + c*f'")) in got32
    assert expr_text(E("f'' + 2*f'*g' - c*g'")) in got32
    got320 = {expr_text(e) for e in reduced_system(3).equations_zero()}
    assert expr_text(E("f''' + c*f' - f'^3 + 3*f'*g'^2 + 3*g'*f'' + 3*f'*g''")) \
        in got320
    FG = JetSpec(("s",), ("F", "G"), constants=("c",))
    EF = lambda s: parse_expr(s, FG)
    got33 = {expr_text(e) for e in system_33().equations_zero()}
    assert expr_text(EF("G' + c*F + G^2 - F^2")) in got33
    assert expr_text(EF("F' + 2*F*G - c*G")) in got33
    got322 = {expr_text(e) for e in system_322().equations_zero()}
    assert expr_text(EF("F'' + c*F - F^3 + 3*F*G^2 + 3*G*F' + 3*F*G'")) in got322
    assert expr_text(EF("G'' + c*G - 3*F^2*G + G^3 - 3*F*F' + 3*G*G'")) in got322
    # second-order elimination: minimal polynomial form
    got = computed_second_order()
    want = EF("(2*F - c)*F'' - 3*F'^2 + F*(F - c)*(2*F - c)^2")
    assert equal_up_to_factor(got, want) is not None
    # printed variant differs exactly by the documented sign flips
    char = Expr.rational(2) * (Expr.rational(2) * jet("F").as_expr()
                               - sym("c").as_expr()) * jet("F", ("s", "s")).as_expr()
    assert equal_up_to_factor(got + printed_second_order(), char) is not None
    _ok(8, "(3.2a/b), (3.20/3.20b), (3.3a/b) reproduced verbatim; (3.22a/b) "
           "and the second-order wave-profile equation reproduced up to the "
           "documented c-sign misprints (deltas characterised exactly)")


@pytest.mark.xfail(strict=True,
                   reason="printed (3.22a/b) carry -cF, -cG; order reduction "
                          "of the printed (3.20) pair forces +cF, +cG")
def test_criterion_08_literal_printed_322():
    got = {expr_text(e) for e in system_322().equations_zero()}
    printed = {expr_text(e) for e in system_322_printed().equations_zero()}
    assert got == printed


@pytest.mark.xfail(strict=True,
                   reason="printed second-order equation flips two signs; no "
                          "constant multiple matches")
def test_criterion_08_literal_second_order():
    assert equal_up_to_factor(computed_second_order(),
                              printed_second_order()) is not None


def test_criterion_09_solutions():
    assert verify_solution(system_33(), tan_solution(), mode="symbolic").zero
    rep = verify_solution(system_322(1), rational_trig_solution(),
                          mode="numeric",
                          param_values={"c": 1.0, "G0": 0.5, "G1": 0.25})
    assert rep.max_residual < 1e-9
    rep_printed = verify_solution(system_322(1),
                                  rational_trig_solution(printed=True),
                                  mode="numeric",
                                  param_values={"c": 1.0, "G0": 0.5, "G1": 0.25})
    assert rep_printed.max_residual > 1.0  # printed sign flagged
    k = 0.9
    rep_sn = verify_solution(f_branch_322_printed(Fraction(-181, 100)),
                             sn_solution(k, printed_system=True),
                             mode="numeric", s_range=(0.0, 6.0))
    assert rep_sn.max_residual < 1e-8
    rep_lin = verify_solution(reduced_system(4), linear_solution_member4(),
                              mode="symbolic")
    assert rep_lin.zero
    # the printed (s11) profile: report its actual residual (O(1))
    worst = {}
    for F1 in (0.0, 1.0, 2.0):
        r = verify_solution(system_33(1), s11_solution(), mode="numeric",
                            param_values={"c": 1.0, "F0": 1.0, "F1": F1})
        worst[F1] = r.max_residual
        assert r.samples == 200
    assert all(v > 0.1 for v in worst.values())
    _ok(9, "tan branch Zero symbolically; sign-corrected rational-trig G < "
           "1e-9; sn branch < 1e-8 under derived constraints c = -(1+k^2), "
           "F0^2 = 2k^2 (k = 0.9); member-4 linear profile Zero with "
           "f1(f1^3 + c) = 0; printed (s11) misses the pair by "
           + ", ".join(f"{v:.2f}" for v in worst.values())
           + " (flagged, see strict xfail)")


@pytest.mark.xfail(strict=True,
                   reason="printed (s11) is not a solution of the pair: its "
                          "denominator is quartic in exp(-ics) with trivial "
                          "gcd against the numerator, while every genuine "
                          "profile has a quadratic denominator; residual is "
                          "O(1) for all tested parameters")
def test_criterion_09_literal_s11():
    for F1 in (0.0, 1.0, 2.0):
        rep = verify_solution(system_33(1), s11_solution(), mode="numeric",
                              param_values={"c": 1.0, "F0": 1.0, "F1": F1})
        assert rep.max_residual < 1e-9


def test_criterion_10_numerics():
    c = 1.0
    S = system_33(1)
    traj = rk4_from_system(S, {}, {"F": 0.5, "G": 0.0}, (0.0, 2.0), 1e-3)
    err = max(abs(G - (-0.5 * c * math.tan(0.5 * c * s)))
              for s, G in zip(traj.grid, traj.values["G"]))
    assert err < 1e-6

    def run(h):
        tr = rk4_from_system(S, {}, {"F": 0.5, "G": 0.0}, (0.0, 2.0), h)
        return max(abs(G - (-0.5 * c * math.tan(0.5 * c * s)))
                   for s, G in zip(tr.grid, tr.values["G"]))
    ratio = run(0.05) / run(0.025)
    assert 12 <= ratio <= 20

    f_fn, g_fn = tan_antiderivatives(c)
    lift = lift_and_check(catalogue_member(2), {"f": f_fn, "g": g_fn}, c, n=50)
    assert lift < 1e-6

    h = 1e-3
    worst = 0.0
    for k in (0.3, 0.6, 0.9):
        for u in (-1.3, 0.4, 1.1, 2.2):
            snp = (jacobi_sn(u - 2 * h, k) - 8 * jacobi_sn(u - h, k)
                   + 8 * jacobi_sn(u + h, k) - jacobi_sn(u + 2 * h, k)) / (12 * h)
            sn = jacobi_sn(u, k)
            worst = max(worst, abs(snp ** 2 - (1 - sn ** 2) * (1 - k * k * sn ** 2)))
    assert worst < 1e-10
    _ok(10, f"RK4 error {err:.2e} < 1e-6; halving ratio {ratio:.1f} in "
            f"[12, 20]; lift residual {lift:.2e} < 1e-6 on 50x50; sn "
            f"identity {worst:.2e} < 1e-10")


def test_criterion_11_fig1(tmp_path):
    changes = {}
    for F1 in (0.0, 1.0, 2.0):
        rows = fig1_rows(1.0, F1, n=1000)
        emit_series_csv(rows, tmp_path / f"fig1_F1_{F1:g}.csv")
        feats = fig1_features(1.0, F1)
        assert feats["periodicity_error"] < 1e-6
        changes[F1] = feats["dFre_sign_changes_per_period"]
    for F1 in (0.0, 1.0, 2.0):
        assert (tmp_path / f"fig1_F1_{F1:g}.csv").exists()
    assert changes[2.0] > changes[0.0]
    _ok(11, f"CSV emitted for F1 in {{0, 1, 2}}; real parts 2*pi/c-periodic "
            f"within 1e-6; dF_re/ds sign changes per period "
            f"{changes[0.0]} / {changes[1.0]} / {changes[2.0]} "
            f"(strictly more at F1 = 2 than at F1 = 0)")


def test_criterion_12_kernel_property_suite():
    from lieforge.expr_core import derive, to_canonical
    from lieforge.parser import expr_text as pt, parse_expr as pe
    from lieforge.expr_core import PoleError
    ctx = JetSpec(("t", "x"), ("v", "w"))
    rng = random.Random(777)
    failures = 0
    n = 0
    for _ in range(1000):
        tree = random_tree(rng)
        e = tree_to_expr(tree)
        n += 1
        if to_canonical(e) != e or to_canonical(to_canonical(e)) != to_canonical(e):
            failures += 1
        if pe(pt(e), ctx) != e:
            failures += 1
        point = random_point(rng)
        try:
            want = tree_eval(tree, point)
            got = eval_numeric(e, kernel_point(point))
            if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                failures += 1
        except (PoleError, OverflowError):
            pass
        for mono in e._terms:
            for atom, kk in mono:
                if atom is I and kk != 1:
                    failures += 1
    for _ in range(1000):
        e1 = tree_to_expr(random_tree(rng, depth=2))
        e2 = tree_to_expr(random_tree(rng, depth=2))
        a = rng.choice([jet("v"), jet("v", ("x",)), sym("x")])
        if not (derive(e1 * e2, a) - e1 * derive(e2, a)
                - e2 * derive(e1, a)).is_zero():
            failures += 1
    assert failures == 0
    _ok(12, f"{n} random expressions: idempotence, roundtrip, numeric "
            f"soundness, i-reduction, and 1000 product-rule pairs with "
            f"zero failures")
