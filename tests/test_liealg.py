"""Brackets, structure tables, Jacobi identity, structural signature."""

import dataclasses
from fractions import Fraction
from itertools import combinations, product

import pytest

from lieforge import catalog, expr_core, liealg
from lieforge.expr_core import (
    DomainError, Expr, Root, _mul_into, derive, gradient, jet, substitute, sym,
)
from lieforge.hierarchy import REAL_JET
from lieforge.liealg import (
    AlgebraSignature, StructureTable, _param_atoms, algebra_signature, in_span,
    jacobi_check, lie_bracket, structure_constants,
)
from lieforge.linalg import echelon, nullspace, rank, rref, transpose
from lieforge.parser import combo_text, parse_expr
from lieforge.reduce import ODE_JET
from lieforge.symmetry import VectorField, field_text, parse_field
from lieforge.systems import JetSpec

# the dependence check of `in_span` and the parametric tables run on an empty
# product table
pytestmark = pytest.mark.usefixtures("cold_tables")


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
        Y = VectorField(ODE_JET, xi={"s": Expr.one()})
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

    def test_entries_antisymmetric(self):
        # the table stores i < j; c(j, i, k) = -c(i, j, k) and c(i, i, k) = 0
        table = structure_constants(catalog.fields_member2())
        for i, j, k in product(range(table.dim), repeat=3):
            assert table.c(j, i, k) == -table.c(i, j, k)
            if i == j:
                assert table.c(i, j, k).is_zero()
        assert table.c(1, 0, 0) == Expr.rational(-1)  # [G2a,G1a] = -G1a

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
        for i, j in combinations(range(table.dim), 2):
            Z = lie_bracket(basis[i], basis[j])
            back = None
            for k, q in table.constants.get((i, j), {}).items():
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
        with pytest.raises(DomainError, match="basis fields are linearly dependent"):
            structure_constants(fields + [fields[0].scale(2)])

    def test_zero_field_rejected(self):
        fields = catalog.fields_member2()
        with pytest.raises(DomainError, match="basis fields are linearly dependent"):
            structure_constants(fields + [VectorField(REAL_JET, name="Z")])

    @pytest.mark.parametrize("slots", [
        ["1", "s", "c*s", "s^2"],  # c s d_s = c (s d_s): sl(2), not 4-dimensional
        ["1", "sqrt(c)", "s"],
        ["s/c^2 + 1", "s + c^2", "s^2"],  # c^2 X1 = X2
    ], ids=["c-multiple", "sqrt-multiple", "laurent-combination"])
    def test_basis_dependent_over_the_constants_rejected(self, slots):
        fields = [parse_field(f"xi_s = {e}", ODE_JET) for e in slots]
        with pytest.raises(DomainError, match="basis fields are linearly dependent"):
            structure_constants(fields)

    def test_root_alone_brackets_into_its_square(self):
        # [sqrt(c) d_s, sqrt(c) s^2 d_s] = 2c s d_s: the dictionary holds c,
        # though the basis holds only sqrt(c)
        fields = [parse_field(f"xi_s = {e}", ODE_JET) for e in ("sqrt(c)", "s", "sqrt(c)*s^2")]
        table = structure_constants(fields)
        assert table.closed
        assert table.nonzero_entries() == [(0, 1, "X1"), (0, 2, "2*c*X2"), (1, 2, "X3")]

    def test_non_closing_flagged(self):
        # {d_t, t^2 d_t} does not close (bracket gives 2t d_t)
        t = sym("t").as_expr()
        X = VectorField(REAL_JET, xi={"t": Expr.one()}, name="X1")
        Y = VectorField(REAL_JET, xi={"t": t * t}, name="X2")
        table = structure_constants([X, Y])
        assert not table.closed
        assert (0, 1) in table.non_closing

    def test_root_of_an_independent_is_no_parameter(self):
        # sqrt(s) is no constant: read as one, sqrt(s) X1 = s^-1 X2 = s d_s
        # made the basis dependent; [X1, X2] leaves the span
        fields = [parse_field(f"xi_s = {e}", ODE_JET) for e in ("sqrt(s)", "s^2")]
        table = structure_constants(fields)
        assert not table.closed
        assert list(table.non_closing) == [(0, 1)]
        # sqrt(s) differentiates by s: [sqrt(s) d_s, s^2 d_s] = (2 - 1/2) s sqrt(s) d_s
        assert field_text(table.non_closing[0, 1]) == "3/2*s*sqrt(s)*d_s"

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
        bad = {k: dict(v) for k, v in table.constants.items()}
        # perturb one constant of a nonzero entry, in both of its rows
        (i, j), idx = next((k, m) for k, v in bad.items() for m in v)
        bad[(i, j)][idx] = bad[(i, j)][idx] + Expr.one()
        bad[(j, i)][idx] = bad[(j, i)][idx] - Expr.one()
        corrupted = StructureTable(basis=table.basis, constants=bad)
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

    def test_each_parameter_at_its_own_point(self, monkeypatch):
        # [X1, X2] = (c - d) X1 vanishes where c = d: each name has its own value
        ctx = JetSpec(("s",), ("f", "g"), constants=("c", "d"))
        fields = [parse_field(t, ctx) for t in ("xi_s = 1", "xi_s = (c - d)*s", "eta_f = 1")]
        table = structure_constants(fields)
        assert table.nonzero_entries() == [(0, 1, "(c - d)*X1")]
        real, points = liealg._signature_at, []
        monkeypatch.setattr(liealg, "_signature_at",
                            lambda t, p: points.append(p) or real(t, p))
        sig = algebra_signature(table)
        assert [{a.name: q.as_rational() for a, q in p.items()} for p in points] == [
            {"c": 4, "d": 9}, {"c": Fraction(9, 4), "d": Fraction(25, 4)}]
        assert (sig.derived_series, sig.lower_central_series) == ([1, 0], [1, 1])
        assert sig.center_dim == 1 and not sig.abelian

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


def _typed(terms):
    """Terms with their order and each coefficient's class (int or Fraction)."""
    return [(m, q, q.__class__) for m, q in terms.items()]


def _slots(F):
    """Components with their term order, which later sums follow."""
    return [(kind, var, _typed(c._terms)) for kind, var, c in F.coeff_vector_atoms()]


def _bases():
    r2, m2 = catalog.fields_reduced2(), catalog.fields_member2()
    # a change of basis, as tables are built from in practice
    changed = [r2[0].add(r2[3].scale(Fraction(2, 3))), r2[1].add(r2[0].scale(-1))] + r2[2:]
    # odd rational rescalings: denominators that are not powers of two, on
    # trig fields whose products put halves and on polynomial ones
    scales = (Fraction(1, 3), Fraction(3, 2), Fraction(5, 4))
    rescaled = [[F.scale(scales[k % 3]) for k, F in enumerate(fields)] for fields in (r2, m2)]
    # fractional trig and exp arguments: the chain rule puts non-integral factors
    # into the Jacobian of cleared coefficients; each field is the sum of two
    # cyclically adjacent slots, so no pair of fields commutes
    slots = [parse_field(t, ODE_JET) for t in (
        "xi_s = sin(s/2)", "eta_f = exp(-g/3)*cos(f/2)", "eta_g = cos(s/3)/5",
        "eta_g = exp(g/2)*sin(3*f/4)", "xi_s = c*s/7")]
    fractional = [F.add(slots[(k + 1) % 5]) for k, F in enumerate(slots)]
    return [m2, catalog.fields_member3(), catalog.fields_member4(),
            r2, changed, catalog.fields_reduced3(), fractional] + rescaled


class TestBracketTables:
    def test_tables_match_bracket_formula(self):
        for basis in _bases():
            pairs = list(combinations(range(len(basis)), 2))
            ref = [_formula_bracket(basis[i], basis[j]) for i, j in pairs]
            ref_alphas = in_span(ref, basis)
            table = structure_constants(basis)
            for (i, j), Z, alphas in zip(pairs, ref, ref_alphas):
                assert _slots(lie_bracket(basis[i], basis[j])) == _slots(Z)
                if alphas is None:
                    assert _slots(table.non_closing[(i, j)]) == _slots(Z)
                    alphas = {}
                got = table.constants.get((i, j), {})
                assert [(k, _typed(q._terms)) for k, q in got.items()] == \
                    [(k, _typed(q._terms)) for k, q in alphas.items()]

    def test_table_differentiates_each_field_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(liealg, "gradient",
                            lambda e, atoms: calls.append(e) or gradient(e, atoms))
        structure_constants(catalog.fields_reduced2())
        # one sweep per (field, component): 12 x 3
        assert len(calls) == 36

    def test_reading_cleared_fields_puts_no_fraction(self, monkeypatch):
        """The reduced-2 fields' Jacobians are swept on their cleared integers,
        so from cold tables no kernel put adds a Fraction."""
        fields = catalog.fields_reduced2()
        expr_core.clear_caches()
        put, fractions = expr_core._put, []
        monkeypatch.setattr(expr_core, "_put", lambda out, m, q: (
            q.__class__ is Fraction and fractions.append(q)) or put(out, m, q))
        for F in fields:
            liealg._read(F)
        assert fractions == []


def test_tables_store_sparse_antisymmetric_rows():
    """Every catalogue table: nonzero constants only, k ascending, (j, i) the
    negated (i, j) row, and no row for a commuting or a non-closing pair."""
    for basis in _bases() + [_member3_scaled()]:
        table = structure_constants(basis)
        for (i, j), row in table.constants.items():
            assert row and not any(q.is_zero() for q in row.values())
            assert list(row) == sorted(row)
            assert table.constants[(j, i)] == {k: -q for k, q in row.items()}
        for i, j in combinations(range(table.dim), 2):
            if (i, j) in table.non_closing:
                assert (i, j) not in table.constants and (j, i) not in table.constants
            elif (i, j) not in table.constants:
                assert field_text(lie_bracket(basis[i], basis[j])) == "0", (i, j)
                assert (j, i) not in table.constants


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


# ---------------------------------------------------------------------------
# signature against a reference: both parameter points for every table, and
# every ordered pair of every series step, starting from g itself
# ---------------------------------------------------------------------------

def _reference_signature(table):
    params = _param_atoms(table.basis)
    sigs = []
    for base in (Fraction(4), Fraction(9, 4)):
        point = {}
        for a in params:
            if isinstance(a, Root):
                point[a] = Expr.rational(Fraction(2) if base == 4 else Fraction(3, 2))
                point[sym(a.of)] = Expr.rational(base)
            elif a not in point:
                point[a] = Expr.rational(base)
        sigs.append(_reference_at(table, point))
    assert sigs[0] == sigs[1]
    return sigs[0]


def _reference_at(table, point):
    n = table.dim
    br = {(i, j): {k: q for k in range(n)
                   if (q := substitute(table.c(i, j, k), point).as_rational())}
          for i, j in product(range(n), repeat=2)}

    def bracket(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, q in br.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + a * b * q
        return {k: q for k, q in out.items() if q}

    def bracket_span(A, B):
        return rref([bracket(u, v) for u in A for v in B])[0]

    full = [{i: Fraction(1)} for i in range(n)]

    def series(step):
        spans = [full]
        while True:
            spans.append(step(spans[-1]))
            if not spans[-1] or len(spans[-1]) == len(spans[-2]):
                return spans[1:]

    derived = series(lambda A: bracket_span(A, A))
    lower_central = series(lambda A: bracket_span(full, A))
    cols = transpose({(j, k): q for j in range(n)
                      for k, q in br.get((i, j), {}).items()} for i in range(n))
    center = nullspace(list(cols.values()), n)
    d, l = [len(A) for A in derived], [len(A) for A in lower_central]
    return AlgebraSignature(
        dimension=n, derived_series=d, lower_central_series=l,
        center_dim=len(center), abelian=d[0] == 0, nilpotent=l[-1] == 0,
        solvable=d[-1] == 0,
        abelian_complement_dim=rank(derived[0] + center) - d[0])


def _table(n, rows):
    """A parameter-free table on n placeholder fields from sparse rows
    {(i, j): {k: c_ij^k}}, i < j; absent pairs commute."""
    basis = [VectorField(REAL_JET, xi={"t": Expr.one()}, name=f"E{k}")
             for k in range(n)]
    constants = {}
    for (i, j), row in rows.items():
        row = {k: Expr.rational(q) for k, q in sorted(row.items()) if q}
        if row:
            constants[(i, j)], constants[(j, i)] = row, {k: -q for k, q in row.items()}
    return StructureTable(basis=basis, constants=constants)


def _unit_table(units):
    """The matrix algebra spanned by the units E_ab, (a, b) in `units`:
    [E_ab, E_cd] = [b = c] E_ad - [d = a] E_cb."""
    at = {u: k for k, u in enumerate(units)}
    rows = {}
    for (p, (a, b)), (q, (c, d)) in combinations(enumerate(units), 2):
        row = rows.setdefault((p, q), {})
        if b == c:
            row[at[(a, d)]] = row.get(at[(a, d)], 0) + 1
        if d == a:
            row[at[(c, b)]] = row.get(at[(c, b)], 0) - 1
    return _table(len(units), rows)


def _member3_scaled():
    return [f if f.name != "G2b" else catalog.fields_member3_scaling()
            for f in catalog.fields_member3()]


def _upper(m):
    return [(a, b) for a in range(m) for b in range(a, m)]


HAND_TABLES = {
    "abelian": (_table(3, {}), [0], [0]),
    "heisenberg": (_unit_table([(0, 1), (1, 2), (0, 2)]), [1, 0], [1, 0]),
    "filiform": (_table(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}), [2, 0], [2, 1, 0]),
    "b3": (_unit_table(_upper(3)), [3, 1, 0], [3, 3]),
    "b5": (_unit_table(_upper(5)), [10, 6, 1, 0], [10, 10]),
    "so21+2A1": (_table(5, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
                 [3, 3], [3, 3]),
}


class TestSignatureReference:
    def test_catalogue_algebras(self):
        for basis in (catalog.fields_member2(), _member3_scaled(), catalog.fields_member3(),
                      catalog.fields_member4(), catalog.fields_reduced3(),
                      catalog.fields_reduced3()[2:]):
            table = structure_constants(basis)
            assert table.closed
            assert vars(algebra_signature(table)) == vars(_reference_signature(table))

    @pytest.mark.parametrize("name", sorted(HAND_TABLES))
    def test_hand_built_tables(self, name):
        table, derived, lower_central = HAND_TABLES[name]
        assert jacobi_check(table)
        sig = algebra_signature(table)
        assert (sig.derived_series, sig.lower_central_series) == (derived, lower_central)
        assert vars(sig) == vars(_reference_signature(table))


CATALOGUE = {"m2": catalog.fields_member2, "m3": _member3_scaled,
             "m4": catalog.fields_member4, "r3": catalog.fields_reduced3}


class TestSignatureWork:
    def test_one_specialisation_without_parameters(self, monkeypatch):
        real, points = liealg._signature_at, []
        monkeypatch.setattr(liealg, "_signature_at",
                            lambda t, p: points.append(p) or real(t, p))
        runs = {}
        for name, fields in CATALOGUE.items():
            table = structure_constants(fields())
            points.clear()
            algebra_signature(table)
            runs[name] = len(points)
        assert runs == {"m2": 1, "m3": 1, "m4": 1, "r3": 2}

    def test_rows_eliminated_per_signature(self, monkeypatch):
        rows = []
        monkeypatch.setattr(liealg, "echelon", lambda r: rows.append(len(r)) or echelon(r))
        counts = {}
        for name, fields in CATALOGUE.items():
            table = structure_constants(fields())
            rows.clear()
            algebra_signature(table)
            counts[name] = sum(rows)
        # every ordered pair at both points from g itself: 352, 334, 64, 148
        assert counts == {"m2": 65, "m3": 53, "m4": 0, "r3": 42}

    def test_disagreeing_points_raise(self, monkeypatch):
        real, calls = liealg._signature_at, []

        def shifted(table, point):
            sig = real(table, point)
            calls.append(point)
            if len(calls) == 2:
                sig = dataclasses.replace(sig, center_dim=sig.center_dim + 1)
            return sig

        monkeypatch.setattr(liealg, "_signature_at", shifted)
        with pytest.raises(DomainError,
                           match="signature differs between parameter specialisations"):
            algebra_signature(structure_constants(catalog.fields_reduced3()))
