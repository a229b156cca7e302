"""Lie brackets, structure constants relative to a computed basis, closure
and Jacobi checks, and a structural signature of the resulting algebra.

Structure constants are expressions in the declared parameter symbols (most
tables are purely rational; the reduced third-member algebra needs sqrt(c)).
A table reads each basis field once: its coefficients, cleared to integers
over one denominator, and the Jacobian of those integers, one derivation sweep
per component, serve all of its brackets, summed on integers and divided once.
Membership of a bracket in the span of a basis is decided by matching
coefficients over the shared functional basis of monomials and solving
exactly, never by sampling points; one elimination, on rows keyed (slot,
monomial), answers every bracket of a table and rejects a basis dependent
over the parameter dictionary.  A table holds its brackets as sparse
antisymmetric rows {(i, j): {k: c_ij^k}}, nonzero constants only, and the
Jacobi check, the signature and the printed table read those rows as they
are; the Jacobi check takes each sum's status from `expr_core.verdict`.  Both
series of a signature, on integer echelon rows at each point of its parameters
(the empty point if none), start from [g, g], the span of the table's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations
from math import lcm

from .expr_core import (DomainError, Expr, Root, Sym, Trig, ZeroStatus, _add_into, _mono_key,
                        _mul_into, atoms_of, gradient, jet, substitute, sym, verdict)
from .linalg import divided, echelon, nullspace, rank, solve_exact, transpose
from .parser import combo_text
from .symmetry import VectorField, _same_space, _slot_sums

__all__ = ["lie_bracket", "StructureTable", "structure_constants",
           "jacobi_check", "AlgebraSignature", "algebra_signature"]


def _read(F: VectorField) -> tuple:
    """(F, its slots, their term dicts, its Jacobian rows dF^i/dz^j as term dicts,
    den) in `coeff_vector_atoms` order.  The slot dicts are ints, times den, the
    lcm of their denominators, doubled when sin or cos puts product-to-sum
    halves.  The Jacobian is one sweep per component of those ints, so it is
    den times the field's; a fractional trig or exp argument's chain rule can
    leave a Fraction in it."""
    slots = list(F.coeff_vector_atoms())
    coords = [sym(var) if kind == "xi" else jet(var) for kind, var, _ in slots]
    terms = [c._terms for _, _, c in slots]
    trig = any(a.__class__ is Trig and a.fn != "tan" for t in terms for m in t for a, _ in m)
    den = (1 + trig) * lcm(*[q.denominator for t in terms for q in t.values()])
    terms = [{m: q.numerator * (den // q.denominator) for m, q in t.items()} for t in terms]
    jac = [[d._terms for d in gradient(Expr(t), coords)] for t in terms]
    return F, slots, terms, jac, den


def _bracket(X: tuple, Y: tuple) -> VectorField:
    """[X, Y] of two fields read by `_read`: X(Y^i) summed in one dict, -Y(X^i)
    in another and added, in the term order of their difference, on integers
    divided once by the product of the fields' denominators."""
    (F, slots, cx, jx, dx), (G, _, cy, jy, dy) = X, Y
    if F.unknowns or G.unknowns:
        raise DomainError("lie_bracket needs concrete coefficients")
    xi, eta = {}, {}
    for (kind, var, _), gx, gy in zip(slots, jx, jy):
        out, sub = {}, {}
        for c, d in zip(cx, gy):
            _mul_into(out, c, d)
        for c, d in zip(cy, gx):
            _mul_into(sub, c, d)
        if _add_into(out, ((m, -q) for m, q in sub.items())):
            (xi if kind == "xi" else eta)[var] = Expr(divided(out, dx * dy))
    return VectorField(F.jet, xi, eta)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i), componentwise."""
    _same_space("lie_bracket", X.jet, Y.jet)
    return _bracket(_read(X), _read(Y))


# ---------------------------------------------------------------------------
# span arithmetic over a shared functional basis
# ---------------------------------------------------------------------------

def _param_atoms(fields) -> list:
    """The parameter symbols and roots, by key, of the distinct monomials of
    fields on one jet space; a root brings its symbol, as sqrt(c)^2 is c."""
    monos = {m: 1 for F in fields for _, _, c in F.coeff_vector_atoms() for m in c._terms}
    indep = fields[0].jet.independents if fields else ()
    params = set()
    for a in atoms_of(Expr(monos)):
        if isinstance(a, Root) and a.of not in indep:
            params.update((a, sym(a.of)))
        elif isinstance(a, Sym) and a.name not in indep:
            params.add(a)
    return sorted(params, key=lambda a: a.key)


def _const_dictionary(params) -> list[Expr]:
    """Candidate constant monomials: Laurent powers -2..2 of parameter symbols
    times at most one root factor."""
    syms = [a for a in params if isinstance(a, Sym)]
    roots = [a for a in params if isinstance(a, Root)]
    consts = [Expr.one()]
    for a in syms:
        cur = list(consts)
        for k in (-2, -1, 1, 2):
            consts += [c * a.as_expr() ** k for c in cur]
    return consts + [c * r.as_expr() for r in roots for c in consts]


def in_span(targets: list[VectorField], basis: list[VectorField]):
    """Exact membership: target = sum_k alpha_k basis_k with alpha_k constant
    expressions over the dictionary of the parameters of basis and targets.
    One elimination answers every target; returns per target its nonzero
    alpha_k as {k: alpha_k}, k ascending, or None outside the span.  The
    dictionary constants are independent over Q, so its columns are
    dependent, and DomainError is raised, iff the basis is dependent over
    their span, or if the fields lie on more than one jet space."""
    _same_space("in_span", *(F.jet for F in basis + targets))
    consts = _const_dictionary(_param_atoms(basis + targets))
    terms = [[c._terms for _, _, c in F.coeff_vector_atoms()] for F in basis + targets]
    labels = [(k, c) for k in range(len(basis)) for c in consts]
    # rows {(slot index, _mono_key(monomial)): coefficient}, sorted as plain tuples
    vecs = [[_mul_into({}, e, c._terms) for e in terms[k]] for k, c in labels] + terms[len(basis):]
    keys = {m: _mono_key(m) for m in dict.fromkeys(m for F in vecs for e in F for m in e)}
    rows = [{(s, keys[m]): q for s, e in enumerate(F) for m, q in e.items()} for F in vecs]
    try:
        sols = solve_exact(rows[:len(labels)], rows[len(labels):])
    except ValueError:
        raise DomainError("basis fields are linearly dependent") from None
    # a constant c is one monomial at coefficient 1, so alpha_k*c is {c: alpha_k}; the
    # dictionary holds distinct monomials, so no alpha_k summed is zero
    monos = [(k, next(iter(c._terms))) for k, c in labels]
    return [None if sol is None else _slot_sums(
        (monos[l][0], Expr({monos[l][1]: q.numerator if q.denominator == 1 else q}))
        for l, q in sol.items()) for sol in sols]


# ---------------------------------------------------------------------------
# structure tables
# ---------------------------------------------------------------------------

@dataclass
class StructureTable:
    """[X_i, X_j] = sum_k c_ij^k X_k as rows constants[(i, j)] = {k: c_ij^k}:
    nonzero constants only, k ascending, (j, i) the negated row.  A pair that
    commutes has no row, nor has one in `non_closing`, whose bracket leaves
    the span."""

    basis: list[VectorField]
    constants: dict[tuple[int, int], dict[int, Expr]]
    non_closing: dict[tuple[int, int], VectorField] = dc_field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return not self.non_closing

    @property
    def dim(self) -> int:
        return len(self.basis)

    def c(self, i: int, j: int, k: int) -> Expr:
        return self.constants.get((i, j), {}).get(k, Expr.zero())

    @property
    def names(self) -> list[str]:
        return [F.name or f"X{k + 1}" for k, F in enumerate(self.basis)]

    def nonzero_entries(self) -> list[tuple[int, int, str]]:
        names = self.names
        return [(i, j, combo_text((q, names[k]) for k, q in row.items()))
                for (i, j), row in sorted(self.constants.items()) if i < j]


def structure_constants(basis: list[VectorField]) -> StructureTable:
    """Pairwise brackets expressed exactly in the span of the basis;
    non-closing pairs are flagged with their residual field.  A basis
    dependent over the constants raises DomainError."""
    pairs = list(combinations(range(len(basis)), 2))
    read = [_read(F) for F in basis]
    brackets = [_bracket(read[i], read[j]) for i, j in pairs]
    constants, non_closing = {}, {}
    for (i, j), br, row in zip(pairs, brackets, in_span(brackets, basis)):
        if row is None:
            non_closing[(i, j)] = br
        elif row:
            constants[(i, j)], constants[(j, i)] = row, {k: -q for k, q in row.items()}
    return StructureTable(basis=basis, constants=constants, non_closing=non_closing)


def jacobi_check(table: StructureTable) -> bool:
    """Exact Jacobi identity on the structure constants, summing products of
    nonzero constants only."""
    if not table.closed:
        raise DomainError("Jacobi check needs a closed table")
    for i, j, k in combinations(range(table.dim), 3):
        # sum over cyclic (a, b, e) of c_ab^m c_me^l, for every l at once
        totals: dict[int, dict] = {}
        for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cab in table.constants.get((a, b), {}).items():
                for l, cme in table.constants.get((m, e), {}).items():
                    _mul_into(totals.setdefault(l, {}), cab._terms, cme._terms)
        if any(verdict(Expr(t)) != ZeroStatus.ZERO for t in totals.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# structural signature
# ---------------------------------------------------------------------------

@dataclass
class AlgebraSignature:
    dimension: int
    derived_series: list[int]
    lower_central_series: list[int]
    center_dim: int
    abelian: bool
    nilpotent: bool
    solvable: bool
    abelian_complement_dim: int


def algebra_signature(table: StructureTable) -> AlgebraSignature:
    """Derived/lower-central series via exact rank computations.  The runs at the
    k-th parameter name c = (2 + k)^2, sqrt(c) = 2 + k, then at (3/2 + k)^2, 3/2 + k,
    must agree, against rank drops at special values; a table whose constants
    hold no parameter has one run, at the empty point."""
    if not table.closed:
        raise DomainError("signature needs a closed table")
    atoms = {a: a.of if isinstance(a, Root) else a.name
             for row in table.constants.values() for e in row.values() for a in atoms_of(e)}
    names = {n: k for k, n in enumerate(sorted(set(atoms.values())))}
    points = [{a: Expr.rational((base + names[n]) ** (1 if isinstance(a, Root) else 2))
               for a, n in atoms.items()} for base in (Fraction(2), Fraction(3, 2))]
    sigs = [_signature_at(table, point) for point in points[:2 if names else 1]]
    if sigs[0] != sigs[-1]:
        raise DomainError("signature differs between parameter specialisations")
    return sigs[0]


def _signature_at(table: StructureTable, point: dict) -> AlgebraSignature:
    """The signature with every constant specialised at `point`."""
    n = table.dim
    # rows specialised (a constant may vanish), cleared by one lcm: only dimensions are read
    br = {p: {k: q for k, e in row.items() if (q := substitute(e, point).as_rational())}
          for p, row in table.constants.items()}
    den = lcm(*(q.denominator for row in br.values() for q in row.values()))
    br = {p: {k: q.numerator * (den // q.denominator) for k, q in row.items()}
          for p, row in br.items()}

    def bracket(u, v):
        out: dict[int, int] = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, q in br.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + a * b * q
        return {k: q for k, q in out.items() if q}

    full = [{i: 1} for i in range(n)]
    # [g, g] is spanned by the table's own rows c_ij, one per pair i < j
    gg = echelon([row for (i, j), row in br.items() if i < j])[0]

    def series(step):
        """Spans A_1 = [g, g], A_2, ... with A_{m+1} = step(A_m), up to the
        first zero or repeated dimension."""
        spans = [full, gg]
        while spans[-1] and len(spans[-1]) != len(spans[-2]):
            spans.append(step(spans[-1]))
        return spans[1:]

    # [A, A] needs each unordered pair once: [u, u] = 0, [v, u] = -[u, v]
    derived = series(lambda A: echelon([bracket(u, v) for u, v in combinations(A, 2)])[0])
    lower_central = series(lambda A: echelon([bracket(u, v) for u in full for v in A])[0])
    derived_series = [len(A) for A in derived]
    lcs_series = [len(A) for A in lower_central]

    # center: vectors u with [u, e_j] = 0 for all j; column i holds the
    # coefficients of [e_i, e_j] on e_k, keyed by (j, k)
    rows = transpose({(j, k): q for j in range(n)
                      for k, q in br.get((i, j), {}).items()} for i in range(n))
    cen_basis = nullspace(list(rows.values()), n)

    # abelian direct-sum complement: central directions outside [g, g],
    # dim(Z + [g, g]) - dim [g, g]
    abelian_complement = rank(derived[0] + cen_basis) - derived_series[0]

    return AlgebraSignature(
        dimension=n,
        derived_series=derived_series,
        lower_central_series=lcs_series,
        center_dim=len(cen_basis),
        abelian=derived_series[0] == 0,
        nilpotent=lcs_series[-1] == 0,
        solvable=derived_series[-1] == 0,
        abelian_complement_dim=abelian_complement,
    )
