"""On-shell values on a residual map's ring.

A residual map keeps the `Reducer`'s values as packed int terms over one
denominator (`symmetry._OnShell`): a consequence is `_Ring.derive` of the
value below it, and every substitution, of a value into a consequence or
into a prolongation of a determining table, is one `combine`.  Three checks:

* every value a map's tables asked for, decoded, equals the value of the
  `Reducer` on `Expr`s term for term, in `_mono_key` order (the order rows are
  read in; a dict of packed keys has no kernel insertion order) and in
  coefficient type, on generated members 2-7, catalogue members 1-4,
  time-scaled systems and the unknown-function families of `catalog`, on
  cold, warm and overflowing tables, and the residuals of fields whose
  terms the ring hands to the kernel, or whose reducible factor is raised
  to the 1200th power (one product per bit), equal the reference;
* `_Ring.derive` equals `systems.total_derivative` on seeded random trees,
  raises jets and functions into new fields, reads a product that
  `combine` did not keep by its fields, and refuses an exponent past the
  ring's bound with the message `pack` gives;
* the work the tables do: on the member-3 default dictionary of a
  time-scaled system, with the prolongations in the memo, the tables make no
  total derivative and hand the kernel's product no plain monomial.
"""

import random
from fractions import Fraction

import pytest

from lieforge import catalog, expr_core, symmetry, systems
from lieforge.expr_core import DomainError, Expr, _is_plain, _mono_key, func, jet
from lieforge.hierarchy import REAL_JET, catalogue_member, complex_split, hierarchy_member
from lieforge.linalg import cleared, divided
from lieforge.symmetry import (
    _ResidualMap, _Ring, _Rows, ansatz_dictionary, determining_system, parse_field,
    symmetry_residual,
)
from lieforge.systems import PDESystem, Reducer, total_derivative

from exprgen import random_tree, tree_to_expr
from test_residual_map import _scaled, reference_residual


def _generated(k):
    v_rhs, w_rhs = complex_split(hierarchy_member(k - 1))
    return PDESystem(jet=REAL_JET, rhs={"v": v_rhs, "w": w_rhs},
                     label=f"member {k} (generated)")


def _cases():
    """label -> (system, unknown rules, dictionary size) of the maps checked."""
    out = {f"member {k}": (catalogue_member(k), (), (1, 1, 0)) for k in (1, 2, 3, 4)}
    out.update({f"member {k} (generated)": (_generated(k), (), (1, 0, 0))
                for k in (2, 3, 4, 5, 6, 7)})
    for k, lam in ((2, Fraction(3, 4)), (3, Fraction(-7, 5)), (4, Fraction(3, 4)),
                   (5, Fraction(-7, 5))):
        S = catalogue_member(k) if k < 5 else _generated(k)
        out[f"member {k} by {lam}"] = (_scaled(S, lam), (), (1, 1, 0))
    for name in ("family_member2", "family_member2_printed", "family_member2_partial"):
        out[name] = (_scaled(catalogue_member(2), Fraction(3, 4)),
                     getattr(catalog, name)().unknowns, (1, 1, 0))
    for name in ("family_member3", "family_member3_partial"):
        out[name] = (catalogue_member(3), getattr(catalog, name)().unknowns, (1, 1, 0))
    return out


CASES = _cases()


def _typed(terms):
    return [(m, q, q.__class__) for m, q in sorted(terms.items(), key=lambda t: _mono_key(t[0]))]


@pytest.mark.parametrize("label", sorted(CASES))
def test_values_on_the_ring_are_the_reducer_values(label, tables):
    S, unknowns, size = CASES[label]
    rules = S.equations() + list(unknowns)
    want = Reducer(rules)
    for _ in tables:
        rmap = _ResidualMap(S, unknowns)
        basis = ansatz_dictionary(S.jet, *size)
        _Rows(rmap, ((key, e) for key, _, e in basis.columns()))
        # the atoms with rules below the tables' jets, asked for directly too
        for lead, _ in rules:
            for idx in [(), *((i,) for i in S.jet.independents)]:
                atom = (jet(lead.dep, lead.idx + idx) if lead.__class__ is expr_core.Jet
                        else func(lead.name, lead.args, lead.idx + idx))
                assert (rmap.reducer.value(atom) is None) == (want.value(atom) is None)
        got = rmap.reducer._memo
        assert len(got) > len(rules), label
        for key, (terms, den) in got.items():
            assert den.__class__ is int and den > 0, key
            assert all(q.__class__ is int for q in terms.values()), key
            num, d = want._value(*key)
            decoded = divided({rmap.ring.decode(k): q for k, q in terms.items()}, den)
            assert _typed(decoded) == _typed(divided(num._terms, d)), (label, key)


KERNEL_FIELDS = [  # a reducible factor at a negative power, or in a trig argument
    "unknown a(t,x): a_t = 1/b_x\nunknown b(x,t): b_x = t + 1\neta_v = a\n",
    "unknown a(t,x): a_t = 1/(1 + b_x)\nunknown b(x,t): b_x = t*x\neta_v = a^2 + cos(a)\n",
    "unknown a(t,x): a_t = b_x^2\nunknown b(x,t): b_x = a\neta_v = sin(a_t)*v\nxi_t = a\n"]


@pytest.mark.parametrize("text", KERNEL_FIELDS)
def test_terms_the_ring_hands_to_the_kernel_match_reference(text):
    """A term `on_shell` cannot substitute on the ring goes through the
    kernel's `Reducer.reduce`; the residuals still equal the reference term
    for term in `_mono_key` order and in coefficient type."""
    X = parse_field(text, REAL_JET)
    for S in (catalogue_member(2), _scaled(catalogue_member(3), Fraction(-7, 5))):
        got, want = symmetry_residual(S, X), reference_residual(S, X)
        assert [_typed(r._terms) for r in got] == [_typed(r._terms) for r in want], (S.label, text)


@pytest.mark.parametrize("value", ["x", "x + t", "v_x"])
def test_a_reducible_factor_at_a_high_power_is_one_product_per_bit(value, monkeypatch):
    """a_t^1200 takes the value of a_t to the 1200th power by square-and-multiply:
    10 squarings and 3 more products (1200 = 10010110000 in binary), not 1199
    products, so no exponent within the ring's bound nests a call per unit."""
    X = parse_field(f"unknown a(t,x): a_t = {value}\neta_v = a_t^1200\n", REAL_JET)
    closed, calls = symmetry._OnShell.closed, []
    monkeypatch.setattr(symmetry._OnShell, "closed",
                        lambda self, summands: calls.append(1) or closed(self, summands))
    rmap = _ResidualMap(catalogue_member(2), X.unknowns)
    rmap.reducer.product(((func("a", ("t", "x"), "t"), 1200),))
    assert len(calls) == 13
    S = catalogue_member(2)
    got, want = symmetry_residual(S, X), reference_residual(S, X)
    assert [_typed(r._terms) for r in got] == [_typed(r._terms) for r in want]
    assert not all(r.is_zero() for r in got)


def test_ring_derive_is_the_total_derivative():
    rng, ring, checked = random.Random(20261022), _Ring("random trees"), 0
    for _ in range(240):
        e = tree_to_expr(random_tree(rng)) * tree_to_expr(random_tree(rng, depth=1))
        terms, den = ring.terms(e)
        for i in ("t", "x"):
            d_terms, d = cleared(ring.derive(terms, i))
            got = Expr(divided({ring.decode(k): q for k, q in d_terms.items()}, den * d))
            assert got == total_derivative(e, i), e
            checked += bool(d_terms)
    assert checked >= 200


def test_ring_derive_raises_jets_and_functions_into_new_fields():
    ctx = REAL_JET.with_functions({"a": ("t", "x"), "b": ("t",)})
    ring = _Ring("raised")
    # v_x^2 w a^2 b is plain: each factor's field steps to its raised atom's;
    # sin(a) is not, and the kernel's chain rule raises a inside its argument
    e = ctx.parse("v_x^2*w*a^2*b + 3*sin(a)*v/2")
    terms, den = ring.terms(e)
    before = set(ring.shift)
    d_terms, d = cleared(ring.derive(terms, "x"))
    new = set(ring.shift) - before
    assert {jet("v", "xx"), jet("w", "x"), func("a", ("t", "x"), "x")} <= new
    got = Expr(divided({ring.decode(k): q for k, q in d_terms.items()}, den * d))
    assert got == total_derivative(e, "x")
    assert got == ctx.parse("2*v_x*v_xx*w*a^2*b + v_x^2*w_x*a^2*b + 2*v_x^2*w*a*a_x*b"
                            " + 3*cos(a)*a_x*v/2 + 3*sin(a)*v_x/2")
    # b takes no x: it stays a factor, and D_t raises it
    assert func("b", ("t",), "t") not in ring.shift
    ring.derive(terms, "t")
    assert func("b", ("t",), "t") in ring.shift


def test_ring_derive_reads_a_non_plain_product_by_its_fields():
    """A product of a plain and a non-plain key is not kept in `monos`; its
    trig factor still goes through the kernel's chain rule, not a shift."""
    ring = _Ring("product")
    (A, _), (B, _) = ring.terms(REAL_JET.parse("sin(v)")), ring.terms(REAL_JET.parse("v_x^2*w"))
    terms, _ = ring.combine([(1, A, B, 1)])
    assert not set(terms) & set(ring.monos)
    got = Expr({ring.decode(k): q for k, q in ring.derive(terms, "x").items()})
    assert got == total_derivative(REAL_JET.parse("sin(v)*v_x^2*w"), "x")


def test_ring_derive_refuses_an_exponent_past_the_bound():
    bound, ring = symmetry._BOUND, _Ring("bounded")
    terms, _ = ring.terms(REAL_JET.parse(f"v*v_x^{bound} + w^{bound}"))
    ring.derive(terms, "t")  # raises v to v_t beside v_x^bound, w^bound to w^(bound - 1) w_t
    with pytest.raises(DomainError, match=rf"exponent {bound + 1} of v_x exceeds {bound} "
                                          r"in 'bounded'"):
        ring.derive(terms, "x")
    terms, _ = ring.terms(REAL_JET.parse(f"1/w^{bound}"))
    with pytest.raises(DomainError, match=rf"exponent -{bound + 1} of w exceeds {bound}"):
        ring.derive(terms, "x")


def test_the_tables_make_no_total_derivative_and_no_plain_product(monkeypatch):
    """The member-3 default dictionary (degree 1, trig 2) of member 3 scaled by
    -7/5, with the prolongations in the memo: counted inside the map's tables,
    the `Reducer` on `Expr`s made 4 `systems.total_derivative` calls (its
    consequences) and 94 `_accumulate` calls on plain monomials (its
    substitutions, and atoms made expressions); the ring makes 0 of each."""
    basis = ansatz_dictionary(REAL_JET, 1, 2, 0)
    determining_system(_scaled(catalogue_member(3), Fraction(3, 4)), basis)
    S = _scaled(catalogue_member(3), Fraction(-7, 5))
    counts, inside = {"total_derivative": 0, "plain": 0}, []

    def counted(name, fn, plain=False):
        def call(*args):
            if inside and (not plain or _is_plain(tuple(args[1]))):
                counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(systems, "total_derivative",
                        counted("total_derivative", systems.total_derivative))
    monkeypatch.setattr(symmetry, "total_derivative",
                        counted("total_derivative", symmetry.total_derivative))
    for module in (expr_core, symmetry):
        monkeypatch.setattr(module, "_accumulate",
                            counted("plain", expr_core._accumulate, plain=True))
    table = _ResidualMap.table

    def timed(self, *args):
        inside.append(1)
        try:
            return table(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(_ResidualMap, "table", timed)
    det = determining_system(S, basis)
    assert (len(det.rows), det.nullity()) == (180, 7)
    assert counts == {"total_derivative": 0, "plain": 0}


def test_ring_keep_reads_every_field():
    """`_Ring.keep` refuses exactly the keys a field of which is past the
    bound, read with the fields below and above it at their extremes too."""
    bound, half, rng = symmetry._BOUND, symmetry._HALF, random.Random(20261023)
    ring = _Ring("fields")
    atoms = [jet("v", "x" * n) for n in range(8)] + [jet("w", "x" * n) for n in range(8)]
    for a in atoms:
        ring.field(a)
    edges = [0, 1, -1, bound, -bound, bound + 1, -bound - 1, half - 1, 1 - half]
    for _ in range(3000):
        es = [rng.choice(edges) if rng.random() < 0.5 else rng.randint(1 - half, half - 1)
              if rng.random() < 0.1 else rng.randint(-3, 3) for _ in atoms]
        k = sum(e << ring.shift[a] for a, e in zip(atoms, es))
        if all(abs(e) <= bound for e in es):
            assert ring.keep(k) == k
        else:
            with pytest.raises(DomainError, match=f"exceeds {bound} in 'fields'"):
                ring.keep(k)
