"""Parity of the per-system residual map with the plain residual formula.

The reference below is the formula the map replaces, built from public
pieces only: prolong the whole generator, subtract the products of the
prolonged coefficients with the partials of each rhs, then reduce the sum on
solutions.  The map builds the system half once and assembles each residual
from factors reduced beforehand, on integer terms over one denominator per
equation.  A generator's residuals are the rows of its slots' columns
summed (`symmetry_residual`, through a map kept per system and unknown
rules), and must equal the reference term for term, in `_mono_key` order
and in coefficient type, on cold, warm and overflowing tables.  Each term
q*p*g of a dictionary entry is merged from the Leibniz pieces R_{Y,K} of its
base field Y = g d_var, with one table of D_L(Q_Y) per base field (an eta
table shared between the dependents).  Every residual the map gives must
equal the reference as an expression, column by column, for every system
kind it serves, and every row
of a determining system must equal the reference row in value and in type
(`int` or `Fraction`), also on time-scaled and reduced systems whose
coefficients are fractions.  A column is the list of its Leibniz summands
(c, mono, d, R_{Y,K}) on monomials packed into the map's ring, which
`determining_system` writes straight into rows; `residuals_of` sums them
and reads the monomials back, and every column's residuals must equal the
reference in value and in type.  The ring's own cases close the file:
negative exponents, products of two non-plain monomials, and an exponent
past the ring's bound.
"""

import functools
import inspect
import random
from fractions import Fraction

import pytest

from lieforge import catalog, expr_core, symmetry
from lieforge.expr_core import (
    _INTERN, DomainError, Expr, Jet, _mono_key, atoms_of, derive, func,
    random_rational, sym,
)
from lieforge.hierarchy import (REAL_JET, catalogue_member, complex_split,
                                hierarchy_member)
from lieforge.linalg import transpose
from lieforge.reduce import reduced_system
from lieforge.symmetry import (
    AnsatzBasis, VectorField, _ResidualMap,
    ansatz_dictionary, determining_system, discover_symmetries, prolong_generator,
    symmetry_residual, verify_generator,
)
from lieforge.systems import PDESystem, Reducer

# row order and provenance are checked on an empty prolongation memo and
# product table
pytestmark = pytest.mark.usefixtures("cold_tables")


def _unit_field(jet_spec, key, e):
    """The field e d_var of the slot key = (kind, var) of a dictionary."""
    kind, var = key
    return VectorField(jet_spec, **{kind: {var: e}})


def reference_residual(system, X):
    equations = system.equations()
    reducer = Reducer(equations + list(X.unknowns))
    needed = {lead for lead, _ in equations}
    for _, rhs in equations:
        needed.update(a for a in atoms_of(rhs) if isinstance(a, Jet))
    coeffs = prolong_generator(X, needed)
    out = []
    for lead, rhs in equations:
        r = coeffs[lead]
        for indep in system.jet.independents:
            r = r - X.xi_of(indep) * derive(rhs, sym(indep))
        for a in atoms_of(rhs):
            if isinstance(a, Jet):
                r = r - coeffs[a] * derive(rhs, a)
        out.append(reducer.reduce(r))
    return out


def _member5():
    v_rhs, w_rhs = complex_split(hierarchy_member(4))
    return PDESystem(jet=REAL_JET, rhs={"v": v_rhs, "w": w_rhs},
                     label="member 5 (generated)")


def _scaled(S, lam):
    q = Expr.rational(lam)
    return PDESystem(jet=S.jet, rhs={dep: q * e for dep, e in S.rhs.items()},
                     label=f"{S.label}, time scaled by {lam}")


def _systems():
    rng = random.Random(20261018)
    out = {f"member {k}": catalogue_member(k) for k in (1, 2, 3, 4)}
    out["member 5"] = _member5()
    for k in (2, 3):
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(2, 12), rng.randint(1, 12))
        out[f"member {k} scaled"] = _scaled(catalogue_member(k), lam)
    for k in (2, 3):
        out[f"reduced {k}"] = reduced_system(k)
    return out


SYSTEMS = _systems()


# dictionaries of degree 0-3 whose columns are checked on every system:
# (degree, trig, expw), so Leibniz terms d_K p run up to |K| = 3
DEGREES = [(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 0, 1)]


@functools.cache
def _reference_columns(name, size):
    """The basis of size (degree, trig, expw) on SYSTEMS[name] and the
    reference residual of each of its columns."""
    S = SYSTEMS[name]
    basis = ansatz_dictionary(S.jet, *size)
    return basis, [reference_residual(S, _unit_field(basis.jet, key, e))
                   for key, _, e in basis.columns()]


def leibniz_sums(rmap, column):
    """Per equation, {packed monomial: Fraction} summed over the Leibniz
    summands (c, mono, d, R) of a column of the map, entries that cancel
    kept as zeros; c and d are ints, d > 0, and each R[i] holds nonzero
    integer terms over a positive int denominator."""
    sums = [{} for _ in rmap.parts]
    for c, mono, d, r in column:
        assert c.__class__ is d.__class__ is int and c and d > 0, (c, d)
        for acc, (terms, den) in zip(sums, r, strict=True):
            assert den.__class__ is int and den > 0, den
            assert all(q.__class__ is int and q for q in terms.values()), terms
            for m, q in terms.items():
                acc[m + mono] = acc.get(m + mono, 0) + Fraction(c * q, d * den)
    return sums


def residuals_of(rmap, column):
    """The residuals of a column of the map, one expression per equation,
    its monomials unpacked from the map's ring; a coefficient is an int
    where its value is one, as in the reference."""
    sums = leibniz_sums(rmap, column)
    keys = rmap.ring.keys(rmap.ring.shift, (m for acc in sums for m in acc))
    mono = {m: tuple((_INTERN[a], e) for a, e in key) for m, (_, key) in keys.items()}
    return [Expr({mono[m]: q.numerator if q.denominator == 1 else q
                  for m, q in acc.items() if q}) for acc in sums]


def typed(residuals):
    """Residuals as {monomial: (coefficient, its type)}, so == also compares types."""
    return [{m: (q, q.__class__) for m, q in r._terms.items()} for r in residuals]


def in_order(residuals):
    """Residuals as lists of (monomial, coefficient, its type) as stored."""
    return [[(m, q, q.__class__) for m, q in r._terms.items()] for r in residuals]


def by_mono_key(residuals):
    """`in_order` with the terms sorted in `_mono_key` order."""
    return [sorted(r, key=lambda t: _mono_key(t[0])) for r in in_order(residuals)]


def sorted_reference(system, X):
    return by_mono_key(reference_residual(system, X))


def coefficient_vector(parts):
    """Sparse rational vector of keyed expressions over the monomial basis:
    {(key, monomial key): coefficient} for every term of every part."""
    return {(key, _mono_key(m)): q for key, e in parts for m, q in e._terms.items()}


def _reference_rows(residuals):
    rowmap = transpose(coefficient_vector(enumerate(r)) for r in residuals)
    return sorted(rowmap), rowmap


def _combination(rng, basis):
    """A random field of several slots: a rational combination of columns."""
    cols = basis.columns()
    picks = rng.sample(cols, min(3, len(cols)))
    X = _unit_field(basis.jet, picks[0][0], picks[0][2])
    for key, _, e in picks[1:]:
        q = random_rational(rng, -3, 3, 5) or 1
        X = X.add(_unit_field(basis.jet, key, e).scale(q))
    return X


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_map_matches_reference_on_every_column(name):
    S = SYSTEMS[name]
    for size in DEGREES:
        basis, refs = _reference_columns(name, size)
        rmap = _ResidualMap(S)
        columns = basis.columns()
        kinds = {key[0] for key, _, _ in columns}
        assert kinds == {"xi", "eta"}
        for (key, _, e), ref in zip(columns, refs):
            assert typed(residuals_of(rmap, rmap.column(key, e))) == typed(ref), \
                (name, size, key, e)
    basis, refs = _reference_columns(name, DEGREES[1])
    for (key, _, e), ref in zip(basis.columns(), refs):
        assert in_order(symmetry_residual(S, _unit_field(basis.jet, key, e))) == \
            by_mono_key(ref), (name, key, e)
    rng = random.Random(len(name))
    for _ in range(3):
        X = _combination(rng, basis)
        assert in_order(symmetry_residual(S, X)) == sorted_reference(S, X), (name, X)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_determining_rows_match_reference(name):
    basis, refs = _reference_columns(name, DEGREES[2])
    det = determining_system(SYSTEMS[name], basis)
    prov, rowmap = _reference_rows(refs)
    assert det.provenance == prov
    assert list(det.rows) == [rowmap[k] for k in prov]


def _xi_dependent_basis(S):
    """Entries with rational coefficients, and xi entries holding dependents,
    whose tables meet a lead derivative twice on a reduced system."""
    parse = S.jet.parse
    return AnsatzBasis(S.jet, {
        ("xi", "s"): [parse("1"), parse("f/7"), parse("s*g/2 - f^2"),
                      parse("s^2*sin(f)")],
        ("eta", "f"): [parse("s*g"), parse("exp(-g)/5"), parse("s^2*cos(f)")],
        ("eta", "g"): [parse("-f^2/3"), parse("s*sin(g) + 4/9")]})


def _mixed(S):
    """S with its rhs scaled by 3/4 and 2/9 u_x added to each."""
    return PDESystem(jet=S.jet, label=f"{S.label}, 3/4 K + 2/9 u_x", rhs={
        dep: Expr.rational(Fraction(3, 4)) * e + S.jet.parse(f"2/9*{dep}_x")
        for dep, e in S.rhs.items()})


# systems whose rows hold fractions: time-scaled members (u_t = lambda K[u]),
# a reduced system at a rational speed and a member with two denominators;
# (system, dictionary size or None for the dictionary above)
SCALED = {
    "member 4 scaled by -7/5": (lambda: _scaled(catalogue_member(4), Fraction(-7, 5)),
                                (2, 2, 1)),
    "member 5 scaled by 11/6": (lambda: _scaled(_member5(), Fraction(11, 6)), (1, 1, 0)),
    "reduced 2 at c = 5/3": (lambda: reduced_system(2, Fraction(5, 3)), None),
    # fourths and ninths: a piece sums parts over 4, 9, 12, ... whose lcm
    # exceeds the largest of them
    "member 2, 3/4 K + 2/9 u_x": (lambda: _mixed(catalogue_member(2)), (1, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(SCALED))
def test_scaled_rows_match_reference_in_value_and_type(name):
    make, size = SCALED[name]
    S = make()
    basis = ansatz_dictionary(S.jet, *size) if size else _xi_dependent_basis(S)
    refs = [reference_residual(S, _unit_field(basis.jet, key, e))
            for key, _, e in basis.columns()]
    det = determining_system(S, basis)
    prov, rowmap = _reference_rows(refs)
    assert det.provenance == prov
    for k, row in zip(prov, det.rows):
        ref = rowmap[k]
        assert list(row) == list(ref), k
        assert [(q, q.__class__) for q in row.values()] == \
            [(q, q.__class__) for q in ref.values()], k
    assert any(q.__class__ is Fraction for row in det.rows for q in row.values())
    if name.startswith("reduced"):
        # the rhs holds thirds; a table entry that meets the lead twice holds
        # ninths, and the dictionary's own denominators multiply the columns
        rmap = _ResidualMap(S)
        assert {d for ps in rmap.partials for _, _, d in ps} == {1, 3}
        dens = {d * den for key, _, e in basis.columns() for _, _, d, r in rmap.column(key, e)
                for terms, den in r if terms}
        assert max(d for t in rmap.tables.values() for _, d in t.values()) == 9
        assert max(dens) > 9, dens


def _unsplit_basis(S):
    """Entries that are no monomial p(t, x) times a factor g of dependents,
    beside ones that are: several terms, an independent inside exp, an
    unknown function, an xi entry holding a dependent.  Each term still
    splits as p*g, g holding everything that is not a plain independent."""
    parse = S.jet.with_functions({"a": ("t", "x")}).parse
    return AnsatzBasis(S.jet, {
        ("xi", "t"): [parse("1"), parse("v")],
        ("xi", "x"): [parse("x"), parse("t*v")],
        ("eta", "v"): [parse("t + sin(v)"), parse("x*exp(t)"), parse("t*x*cos(v)")],
        ("eta", "w"): [parse("x*a*sin(v)"), parse("x^2*exp(-w)")]})


@pytest.mark.parametrize("name", ["member 2", "member 3 scaled", "member 4"])
def test_unsplit_entries_take_the_entry_residual(name, monkeypatch):
    """Every entry goes through the pieces of the base fields of its terms,
    and its column is the entry's residual."""
    S = SYSTEMS[name]
    basis = _unsplit_basis(S)
    refs = [reference_residual(S, _unit_field(basis.jet, key, e))
            for key, _, e in basis.columns()]
    piece, used = _ResidualMap.piece, []
    monkeypatch.setattr(_ResidualMap, "piece",
                        lambda self, *args: used.append(args) or piece(self, *args))
    rmap = _ResidualMap(S)
    for (key, _, e), ref in zip(basis.columns(), refs):
        used.clear()
        assert typed(residuals_of(rmap, rmap.column(key, e))) == typed(ref), (name, key, e)
        assert {g for _, _, g, _ in used} == {
            tuple(f for f in m if f[0] not in rmap.syms) for m in e._terms}, \
            (name, key, e)
    det = determining_system(S, basis)
    prov, rowmap = _reference_rows(refs)
    assert det.provenance == prov
    assert list(det.rows) == [rowmap[k] for k in prov]


# system -> catalogue functions whose fields act on it
CATALOGUE = {
    "member 1": ["transport_family_examples"],
    "member 2": ["fields_member2", "family_member2", "family_member2_printed",
                 "family_member2_partial"],
    "member 3": ["fields_member3", "fields_member3_scaling", "family_member3",
                 "family_member3_partial"],
    "member 4": ["fields_member4"],
    "reduced 2": ["fields_reduced2", "fields_reduced2_printed_variants"],
    "reduced 3": ["fields_reduced3"],
}


def _catalogue_fields():
    for name, makers in CATALOGUE.items():
        for maker in makers:
            fields = getattr(catalog, maker)()
            for X in fields if isinstance(fields, list) else [fields]:
                yield name, maker, X


def test_catalogue_table_covers_every_field_maker():
    makers = {n for n, f in inspect.getmembers(catalog, inspect.isfunction)
              if f.__module__ == catalog.__name__ and not n.startswith("_")
              and not n.startswith("printed_table")}
    assert makers == {m for ms in CATALOGUE.values() for m in ms}


def _cross_fields():
    """Fields verified on a member they do not belong to: nonzero residuals."""
    for name, maker in (("member 3", "fields_member2"), ("member 4", "fields_member3")):
        for X in getattr(catalog, maker)():
            yield name, f"{maker} on {name}", X


@functools.cache
def _catalogue_references():
    return [(name, maker, X, sorted_reference(SYSTEMS[name], X))
            for name, maker, X in [*_catalogue_fields(), *_cross_fields()]]


def test_catalogue_fields_and_families_match_reference(tables):
    """Every catalogue field and family, partial and printed ones, the
    transport examples and the reduced fields on their own systems, and
    member-2 and member-3 fields on the next member."""
    cases = _catalogue_references()
    assert sum(bool(X.unknowns) for _, _, X, _ in cases) >= 4  # the families
    assert sum(any(ref) for *_, ref in cases) >= 10  # nonzero residuals
    for _ in tables:
        for name, maker, X, ref in cases:
            assert in_order(symmetry_residual(SYSTEMS[name], X)) == ref, \
                (name, maker, X.name)


# the field eta_v = exp(-w)*cos(v), eta_w = exp(-w)*sin(v) of member 2 in
# other spellings, and a reciprocal coefficient
SPELLINGS = [
    "eta_v = exp(-w)*cos(v)\neta_w = exp(-w)*tan(v)*cos(v)",
    "eta_v = 1/2*exp(-w)*(exp(I*v) + exp(-I*v))\neta_w = exp(-w)*sin(v)",
    "xi_x = 1/(1+v^2)",
    "xi_t = t\nxi_x = x/(1+v^2)\neta_w = exp(-w)/(2 + sin(v))",
]

# generated member k -> the member whose README dictionary (`symmetries
# find` defaults) discovers the fields verified on it
GENERATED = {2: 2, 3: 3, 4: 4, 5: 4, 6: 4}


def test_spellings_and_generated_members_match_reference(tables, discovery2, discovery4):
    """Spellings of one member-2 field that hide its zero from a term-dict
    test (tan(v)*cos(v), exp(I*v) + exp(-I*v)), reciprocal coefficients, and
    generated members 2-6 with the fields the README dictionaries discover
    on members 2-4."""
    cases = []
    for text in SPELLINGS:
        for k in (2, 3):
            S = catalogue_member(k)
            X = symmetry.parse_field(text, REAL_JET)
            cases.append((S, X, sorted_reference(S, X)))
    fields = {2: discovery2[2], 4: discovery4[2],
              3: discover_symmetries(SYSTEMS["member 3"], ansatz_dictionary(REAL_JET, 1, 2, 0))}
    assert [len(fields[k]) for k in (2, 3, 4)] == [7, 7, 4]
    for k, source in GENERATED.items():
        v_rhs, w_rhs = complex_split(hierarchy_member(k - 1))
        S = PDESystem(jet=REAL_JET, rhs={"v": v_rhs, "w": w_rhs},
                      label=f"member {k} (generated)")
        cases += [(S, X, sorted_reference(S, X)) for X in fields[source]]
    assert sum(any(ref) for *_, ref in cases) >= 4
    for _ in tables:
        for S, X, ref in cases:
            assert in_order(symmetry_residual(S, X)) == ref, (S.label, X)


class _Sides(dict):
    """A term dict that records its size each time its terms are read."""

    def __init__(self, terms, seen):
        super().__init__(terms)
        self.seen = seen

    def items(self):
        self.seen.append(len(self))
        return super().items()


def test_verifying_a_field_multiplies_no_zero_coefficient(monkeypatch):
    """A zero prolonged coefficient adds nothing to a residual, so the map
    makes no product with it: the member-4 fields, most of whose prolonged
    coefficients are zero, offer their pieces only empty summands, and over
    the fields of members 2-4 no product of two term dicts reads an empty side."""
    expr_core.clear_caches()
    read, offered = [], []
    combine = symmetry._Ring.combine

    def spy(self, summands):
        summands = list(summands)
        offered.extend(not (A and B) for _, A, B, _ in summands)
        return combine(self, [(c, _Sides(A, read), _Sides(B, read), d)
                              for c, A, B, d in summands])

    monkeypatch.setattr(symmetry._Ring, "combine", spy)
    for X in catalog.fields_member4():
        assert verify_generator(SYSTEMS["member 4"], X).zero, X.name
    assert offered and all(offered) and not read
    for k in (2, 3):
        for X in getattr(catalog, f"fields_member{k}")():
            verify_generator(SYSTEMS[f"member {k}"], X)
    assert not all(offered) and read and 0 not in read


def _heat_fields():
    """Generators whose coefficients hold a_t under the rule a_t = a_xx: in
    an xi slot, and alone in one eta slot."""
    ctx = REAL_JET.with_functions({"a": ("t", "x")})
    heat = ((func("a", ("t", "x"), ("t",)), func("a", ("t", "x"), ("x", "x")).as_expr()),)
    return [
        VectorField(ctx, xi={"x": ctx.parse("a_t")},
                    eta={"v": ctx.parse("a_x*exp(-w)")}, unknowns=heat),
        VectorField(ctx, eta={"w": ctx.parse("a_t*cos(v) + t*a")}, unknowns=heat),
    ]


def _explicit_x(S):
    """S with x*u_x added to every rhs, so xi^x meets a nonzero partial."""
    return PDESystem(jet=S.jet, rhs={dep: e + S.jet.parse(f"x*{dep}_x")
                                     for dep, e in S.rhs.items()},
                     label=f"{S.label} + x u_x")


@pytest.mark.parametrize("name", ["member 2", "member 3 scaled"])
def test_reducible_unknowns_in_coefficients_match_reference(name):
    S = _explicit_x(SYSTEMS[name])
    for X in _heat_fields():
        assert symmetry_residual(S, X) == reference_residual(S, X), (name, X)


# ---------------------------------------------------------------------------
# the monomial ring of a map: signed exponents, the non-plain boundary and
# the exponent bound
# ---------------------------------------------------------------------------

def _parity(S, basis):
    """The determining system of S on basis against the reference rows, in
    value and in type, in provenance order."""
    refs = [reference_residual(S, _unit_field(basis.jet, key, e))
            for key, _, e in basis.columns()]
    det = determining_system(S, basis)
    prov, rowmap = _reference_rows(refs)
    assert det.provenance == prov
    assert [[(k, q, q.__class__) for k, q in row.items()] for row in det.rows] == \
        [[(k, q, q.__class__) for k, q in rowmap[key].items()] for key in prov]
    return det


def _over_x():
    """v_t = v_xx + v_x/x: x^-1 and x^-2 in the rhs partials."""
    P = REAL_JET.parse
    return PDESystem(jet=REAL_JET, rhs={"v": P("v_xx + v_x/x"), "w": P("w_xx")},
                     label="v_x over x")


def test_negative_exponents_match_reference():
    S = _over_x()
    det = _parity(S, ansatz_dictionary(REAL_JET, 1, 0, 0))
    assert (len(det.rows), len(discover_symmetries(S, det.basis, det))) == (13, 5)
    P = REAL_JET.parse
    # negative powers of an independent in p: d_K p runs up to the jet orders
    basis = AnsatzBasis(REAL_JET, {
        ("xi", "t"): [P("1"), P("x^-2*exp(w)")],
        ("xi", "x"): [P("1/x"), P("t^2/x")],
        ("eta", "v"): [P("1/x"), P("v/x^2"), P("w/x"), P("t/x^3*sin(v)")]})
    det = _parity(S, basis)
    assert any(e < 0 for _, key in det.provenance for _, e in key)


def test_non_plain_partials_take_the_accumulate_boundary(monkeypatch):
    """sin(v) and exp(w) in the rhs partials times trig/exp tables: those
    products are unpacked, canonicalised (sin*cos to a sum, exps merged) and
    packed again, with the halves of product-to-sum in the rows."""
    P = REAL_JET.parse
    S = PDESystem(jet=REAL_JET, label="sin-exp transport", rhs={
        "v": P("v_xx + sin(v)*v_x"), "w": P("w_xx + exp(w)*w_x + cos(v)")})
    rmap = _ResidualMap(S)
    assert rmap.ring.monos.keys() & {m for ps in rmap.partials for _, h, _ in ps for m in h}
    calls = []
    accumulate = symmetry._accumulate
    monkeypatch.setattr(symmetry, "_accumulate",
                        lambda out, fl, q: calls.append(fl) or accumulate(out, fl, q))
    det = _parity(S, ansatz_dictionary(REAL_JET, 1, 1, 1))
    assert calls
    assert any(q.__class__ is Fraction for row in det.rows for q in row.values())


def test_xi_tables_of_non_plain_fields_meet_non_plain_partials():
    """g u^A_{L var} of an xi field, g or the value of u non-plain: its
    products are registered as non-plain, so a non-plain partial times a
    table entry is canonicalised (exps merged, sin*sin to a sum)."""
    P = REAL_JET.parse
    S = PDESystem(jet=REAL_JET, label="sin-exp transport", rhs={
        "v": P("v_xx + sin(v)*v_x"), "w": P("w_xx + exp(w)*w_x + cos(v)")})
    _parity(S, AnsatzBasis(REAL_JET, {
        ("xi", "t"): [P("exp(w)"), P("v"), P("cos(v)")],
        ("xi", "x"): [P("v*exp(w)"), P("exp(-w)"), P("sin(v)")]}))


def test_exponent_past_the_ring_bound_names_the_system():
    S, P = _over_x(), REAL_JET.parse
    bound = symmetry._BOUND
    ok = AnsatzBasis(REAL_JET, {("eta", "v"): [P(f"v^{bound}")]})
    assert determining_system(S, ok).rows
    for slot, entry in [(("eta", "v"), f"v^{bound + 1}"), (("xi", "x"), f"x^-{bound + 1}")]:
        with pytest.raises(DomainError, match=r"exceeds \d+ in 'v_x over x'"):
            determining_system(S, AnsatzBasis(REAL_JET, {slot: [P(entry)]}))
