"""Brackets, structure tables, Jacobi identity, structural signature."""

import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest

from lieforge import catalog, liealg
from lieforge.expr_core import DomainError, Expr, _mul_into, derive, jet, sym
from lieforge.hierarchy import REAL_JET
from lieforge.liealg import (
    _param_atoms, algebra_signature, in_span, jacobi_check, lie_bracket,
    structure_constants,
)
from lieforge.parser import combo_text, parse_expr
from lieforge.reduce import ODE_JET
from lieforge.symmetry import VectorField, field_text


def R(text):
    return parse_expr(text, REAL_JET.with_constants(("c",)))


class TestBracket:
    def test_commuting_translations(self):
        X = VectorField(REAL_JET, xi={"t": Expr.one()})
        Y = VectorField(REAL_JET, xi={"x": Expr.one()})
        assert field_text(lie_bracket(X, Y)) == "0"

    def test_scaling_vs_translation(self):
        fields = {F.name: F for F in catalog.fields_member2()}
        Z = lie_bracket(fields["G2a"], fields["G4a"])
        assert Z.xi_of("x") == R("-1/2")

    def test_b_table_entries(self):
        b = {F.name: F for F in catalog.fields_member3()}
        Z = lie_bracket(b["G5b"], b["G7b"])
        assert Z.eta_of("v") == R("-cos(2*v)") and Z.eta_of("w") == R("-sin(2*v)")
        Z2 = lie_bracket(b["G5b"], b["G6b"])
        assert Z2.eta_of("v") == R("-1/2") and Z2.eta_of("w").is_zero()

    def test_antisymmetry_bilinearity(self):
        fields = catalog.fields_member2()
        X, Y, Z = fields[1], fields[2], fields[4]
        XY = lie_bracket(X, Y)
        YX = lie_bracket(Y, X)
        for kind, var, coeff in XY.coeff_vector_atoms():
            assert (coeff + YX.xi_of(var) if kind == "xi"
                    else coeff + YX.eta_of(var)).is_zero()
        lhs = lie_bracket(X.add(Y), Z)
        rhs = lie_bracket(X, Z).add(lie_bracket(Y, Z))
        for (k1, v1, c1), (k2, v2, c2) in zip(lhs.coeff_vector_atoms(),
                                              rhs.coeff_vector_atoms()):
            assert (c1 - c2).is_zero()

    def test_mismatched_spaces(self):
        X = VectorField(REAL_JET, xi={"t": Expr.one()})
        Y = VectorField(catalog.ODE_JET, xi={"s": Expr.one()})
        with pytest.raises(DomainError):
            lie_bracket(X, Y)


class TestStructureTable:
    def test_member2_table(self):
        table = structure_constants(catalog.fields_member2())
        assert table.closed
        assert jacobi_check(table)
        entries = {f"[{table.basis[i].name},{table.basis[j].name}]": txt
                   for i, j, txt in table.nonzero_entries()}
        assert entries["[G1a,G2a]"] == "G1a"
        assert entries["[G2a,G3a]"] == "G3a"
        assert entries["[G1a,G5a]"] == "G4a"

    def test_4A1_all_zero(self):
        table = structure_constants(catalog.fields_member4())
        assert table.closed and not table.nonzero_entries()
        assert jacobi_check(table)
        sig = algebra_signature(table)
        assert sig.dimension == 4 and sig.abelian

    def test_f_table_sqrt_constants(self):
        fields = catalog.fields_reduced3()[2:]  # G3f, G4f, G5f
        table = structure_constants(fields)
        assert table.closed and jacobi_check(table)
        names = {F.name: k for k, F in enumerate(table.basis)}
        c34 = table.constants[(names["G3f"], names["G4f"])]
        assert c34[names["G5f"]] == R("-1/sqrt(c)")
        c35 = table.constants[(names["G3f"], names["G5f"])]
        assert c35[names["G4f"]] == R("-sqrt(c)")
        c45 = table.constants[(names["G4f"], names["G5f"])]
        assert c45[names["G3f"]] == R("sqrt(c)")

    def test_reconstruction(self):
        basis = catalog.fields_member2()
        table = structure_constants(basis)
        for (i, j), vec in table.constants.items():
            Z = lie_bracket(basis[i], basis[j])
            back = None
            for k, q in enumerate(vec):
                if q.is_zero():
                    continue
                term = basis[k].scale(q)
                back = term if back is None else back.add(term)
            if back is None:
                for _, _, coeff in Z.coeff_vector_atoms():
                    assert coeff.is_zero()
            else:
                for (k1, v1, c1), (k2, v2, c2) in zip(Z.coeff_vector_atoms(),
                                                      back.coeff_vector_atoms()):
                    assert (c1 - c2).is_zero()

    def test_dependent_basis_rejected(self):
        fields = catalog.fields_member2()
        with pytest.raises(DomainError):
            structure_constants(fields + [fields[0].scale(2)])

    def test_zero_field_rejected(self):
        fields = catalog.fields_member2()
        with pytest.raises(DomainError):
            structure_constants(fields + [VectorField(REAL_JET, name="Z")])

    def test_non_closing_flagged(self):
        # {d_t, t^2 d_t} does not close (bracket gives 2t d_t)
        t = sym("t").as_expr()
        X = VectorField(REAL_JET, xi={"t": Expr.one()}, name="X1")
        Y = VectorField(REAL_JET, xi={"t": t * t}, name="X2")
        table = structure_constants([X, Y])
        assert not table.closed
        assert (0, 1) in table.non_closing

    def test_reduced2_basis_does_not_span_its_brackets(self):
        # the catalogued twelve wave-profile fields are each symmetries, but
        # their brackets escape the span (the full point-symmetry algebra of
        # the linearisable pair is larger); every escaping field must itself
        # verify as a symmetry
        from lieforge.reduce import reduced_system
        from lieforge.symmetry import verify_generator
        fields = catalog.fields_reduced2()
        table = structure_constants(fields)
        assert not table.closed
        assert table.non_closing
        S32 = reduced_system(2)
        for (i, j), Z in list(table.non_closing.items())[:3]:
            assert verify_generator(S32, Z).zero, (i, j)


class TestJacobi:
    def test_corrupted_table_fails(self):
        table = structure_constants(catalog.fields_member2())
        bad = {k: list(v) for k, v in table.constants.items()}
        # perturb one constant of a nonzero entry
        key = next(k for k, v in bad.items() if any(not q.is_zero() for q in v))
        idx = next(i for i, q in enumerate(bad[key]) if not q.is_zero())
        bad[key][idx] = bad[key][idx] + Expr.one()
        from lieforge.liealg import StructureTable
        corrupted = StructureTable(basis=table.basis, constants=bad, closed=True)
        assert jacobi_check(table)
        assert not jacobi_check(corrupted)


class TestSignature:
    def test_so21_perfect(self):
        table = structure_constants(catalog.fields_reduced3()[2:])
        sig = algebra_signature(table)
        assert sig.dimension == 3
        assert sig.derived_series[0] == 3  # perfect: [g, g] = g
        assert not sig.solvable and not sig.nilpotent

    def test_member2_seven_dim(self):
        table = structure_constants(catalog.fields_member2())
        sig = algebra_signature(table)
        assert sig.dimension == 7
        assert sig.derived_series[0] < 7
        assert not sig.abelian

    def test_reduced3_full_sig(self):
        table = structure_constants(catalog.fields_reduced3())
        sig = algebra_signature(table)
        # 2A_1 abelian complement next to the so(2,1) part
        assert sig.dimension == 5
        assert sig.abelian_complement_dim == 2

    def test_series_weakly_decreasing(self):
        for fields in (catalog.fields_member2(), catalog.fields_member4()):
            sig = algebra_signature(structure_constants(fields))
            for series in (sig.derived_series, sig.lower_central_series):
                assert all(a >= b for a, b in zip(series, series[1:]))


class TestSpan:
    def test_in_span_with_parameters(self):
        fields = catalog.fields_reduced3()
        Z = lie_bracket(fields[2], fields[3])
        alphas, = in_span([Z], fields)
        assert alphas is not None
        assert alphas[4] == R("-1/sqrt(c)")

    def test_not_in_span(self):
        X = VectorField(REAL_JET, xi={"t": Expr.one()})
        t2 = VectorField(REAL_JET, xi={"t": sym("t").as_expr() ** 3})
        assert in_span([t2], [X]) == [None]


def _formula_apply(X, f):
    """X(f), differentiating f once for each nonzero coefficient of X."""
    out = {}
    for kind, var, c in X.coeff_vector_atoms():
        if not c.is_zero():
            d = derive(f, sym(var) if kind == "xi" else jet(var))
            _mul_into(out, c._terms, d._terms)
    return Expr(out)


def _formula_bracket(X, Y):
    """[X, Y]^i = X(Y^i) - Y(X^i) with both fields differentiated anew."""
    xi, eta = {}, {}
    for indep in X.jet.independents:
        c = _formula_apply(X, Y.xi_of(indep)) - _formula_apply(Y, X.xi_of(indep))
        if not c.is_zero():
            xi[indep] = c
    for dep in X.jet.dependents:
        c = _formula_apply(X, Y.eta_of(dep)) - _formula_apply(Y, X.eta_of(dep))
        if not c.is_zero():
            eta[dep] = c
    return VectorField(X.jet, xi, eta)


def _slots(F):
    """Components with their term order, which later sums follow."""
    return [(kind, var, list(c._terms.items())) for kind, var, c in F.coeff_vector_atoms()]


def _bases():
    r2 = catalog.fields_reduced2()
    # a change of basis, as tables are built from in practice
    changed = [r2[0].add(r2[3].scale(Fraction(2, 3))), r2[1].add(r2[0].scale(-1))] + r2[2:]
    return [catalog.fields_member2(), catalog.fields_member3(), catalog.fields_member4(),
            r2, changed, catalog.fields_reduced3()]


class TestBracketTables:
    def test_tables_match_bracket_formula(self):
        for basis in _bases():
            pairs = list(combinations(range(len(basis)), 2))
            ref = [_formula_bracket(basis[i], basis[j]) for i, j in pairs]
            ref_alphas = in_span(ref, basis, _param_atoms(basis))
            table = structure_constants(basis)
            for (i, j), Z, alphas in zip(pairs, ref, ref_alphas):
                assert _slots(lie_bracket(basis[i], basis[j])) == _slots(Z)
                if alphas is None:
                    assert _slots(table.non_closing[(i, j)]) == _slots(Z)
                    alphas = [Expr.zero()] * len(basis)
                got = table.constants[(i, j)]
                assert [list(q._terms.items()) for q in got] == \
                    [list(q._terms.items()) for q in alphas]

    def test_table_differentiates_each_field_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(liealg, "derive", lambda e, a: calls.append(a) or derive(e, a))
        structure_constants(catalog.fields_reduced2())
        # one derivative per (field, component, coordinate): 12 x 3 x 3
        assert len(calls) <= 108


def test_printed_sums_keep_the_sign_of_each_coefficient():
    """A coefficient -a + b prints in parentheses as it is, never as -(a + b)."""
    basis = catalog.fields_reduced3()
    basis[4] = dataclasses.replace(basis[4].add(basis[2]), name="Y")  # G5f + G3f
    entries = {(basis[i].name, basis[j].name): txt
               for i, j, txt in structure_constants(basis).nonzero_entries()}
    assert entries[("G4f", "Y")] == "(-c^-1*sqrt(c) + sqrt(c))*G3f + c^-1*sqrt(c)*Y"
    pairs = [(parse_expr(q, ODE_JET), name)
             for q, name in [("c - 1", "X"), ("1 - c", "Y"), ("-2", "Z")]]
    assert combo_text(pairs) == "(-1 + c)*X + (1 - c)*Y - 2*Z"
    assert combo_text(pairs[::-1]) == "-2*Z + (1 - c)*Y + (-1 + c)*X"
