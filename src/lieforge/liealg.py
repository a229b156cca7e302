"""Lie brackets, structure constants relative to a computed basis, closure
and Jacobi checks, and a structural signature of the resulting algebra.

Structure constants are expressions in the declared parameter symbols (most
tables are purely rational; the reduced third-member algebra needs sqrt(c)).
A table differentiates each basis field once: one Jacobian per field, held
for the call, serves all of its brackets.
Membership of a bracket in the span of a basis is decided by matching
coefficients over the shared functional basis of monomials and solving
exactly, never by sampling points; one elimination answers every bracket of
a table.  A table holds its brackets as sparse antisymmetric rows
{(i, j): {k: c_ij^k}}, nonzero constants only, and the Jacobi check, the
signature and the printed table read those rows as they are.  Both series of
a signature start from [g, g], the span of the table's own rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

from .expr_core import (
    DomainError, Expr, Root, Sym, _mul_into, atoms_of, derive, jet, substitute,
    sym,
)
from .linalg import nullspace, rank, rref, solve_exact, transpose
from .parser import combo_text
from .symmetry import VectorField, field_vector

__all__ = ["lie_bracket", "StructureTable", "structure_constants",
           "jacobi_check", "AlgebraSignature", "algebra_signature"]


def _jacobian(F: VectorField) -> list[list[Expr]]:
    """d F^i / d z^j for every component F^i and coordinate z^j, both in
    `coeff_vector_atoms` order: each component is differentiated once."""
    slots = list(F.coeff_vector_atoms())
    coords = [sym(var) if kind == "xi" else jet(var) for kind, var, _ in slots]
    return [[derive(c, z) for z in coords] for _, _, c in slots]


def _apply_field(coeffs: list[Expr], grad: list[Expr]) -> Expr:
    """X, with coefficients `coeffs`, applied to a function with gradient `grad`."""
    out: dict = {}
    for c, d in zip(coeffs, grad):
        if not c.is_zero():
            _mul_into(out, c._terms, d._terms)
    return Expr(out)


def _bracket(X: VectorField, JX, Y: VectorField, JY) -> VectorField:
    """[X, Y] from the Jacobians JX and JY of X and Y."""
    if X.jet.independents != Y.jet.independents or \
            X.jet.dependents != Y.jet.dependents:
        raise DomainError("mismatched jet spaces in lie_bracket")
    if X.unknowns or Y.unknowns:
        raise DomainError("lie_bracket needs concrete coefficients")
    cx, cy = ([c for _, _, c in F.coeff_vector_atoms()] for F in (X, Y))
    xi, eta = {}, {}
    for (kind, var, _), gx, gy in zip(X.coeff_vector_atoms(), JX, JY):
        c = _apply_field(cx, gy) - _apply_field(cy, gx)
        if not c.is_zero():
            (xi if kind == "xi" else eta)[var] = c
    return VectorField(X.jet, xi, eta)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i), componentwise."""
    return _bracket(X, _jacobian(X), Y, _jacobian(Y))


# ---------------------------------------------------------------------------
# span arithmetic over a shared functional basis
# ---------------------------------------------------------------------------

def _param_atoms(fields) -> list:
    params = set()
    for F in fields:
        for _, _, coeff in F.coeff_vector_atoms():
            for a in atoms_of(coeff):
                if isinstance(a, Root):
                    params.add(a)
                elif isinstance(a, Sym) and a.name not in F.jet.independents:
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


def in_span(targets: list[VectorField], basis: list[VectorField], params=None):
    """Exact membership: target = sum_k alpha_k basis_k with alpha_k constant
    expressions over the parameter dictionary.  One elimination answers every
    target; returns per target its nonzero alpha_k as {k: alpha_k}, k
    ascending, or None outside the span."""
    if params is None:
        params = _param_atoms(basis + targets)
    consts = _const_dictionary(params)
    labels = [(k, c) for k in range(len(basis)) for c in consts]
    sols = solve_exact([field_vector(basis[k], c) for k, c in labels],
                       [field_vector(T) for T in targets])

    def alphas(sol):
        # the dictionary holds distinct monomials, so no alpha_k built is zero
        out = {}
        for (k, c), q in zip(labels, sol):
            if q:
                out[k] = out.get(k, Expr.zero()) + Expr.rational(q) * c
        return out

    return [None if sol is None else alphas(sol) for sol in sols]


def basis_independent(basis: list[VectorField]) -> bool:
    """Exact linear independence over rational constants."""
    return rank([field_vector(F) for F in basis]) == len(basis)


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
    closed: bool
    non_closing: dict[tuple[int, int], VectorField] = dc_field(default_factory=dict)

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
    non-closing pairs are flagged with their residual field."""
    if not basis_independent(basis):
        raise DomainError("basis fields are linearly dependent")
    pairs = list(combinations(range(len(basis)), 2))
    jac = [_jacobian(F) for F in basis]
    brackets = [_bracket(basis[i], jac[i], basis[j], jac[j]) for i, j in pairs]
    constants, non_closing = {}, {}
    for (i, j), br, row in zip(pairs, brackets,
                               in_span(brackets, basis, _param_atoms(basis))):
        if row is None:
            non_closing[(i, j)] = br
        elif row:
            constants[(i, j)], constants[(j, i)] = row, {k: -q for k, q in row.items()}
    return StructureTable(basis=basis, constants=constants,
                          closed=not non_closing, non_closing=non_closing)


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
        if any(totals.values()):
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
    """Derived/lower-central series via exact rank computations.  A table
    without parameter symbols has rational constants, so one run decides it.
    Parameter symbols are specialised at exact rational square points (c = 4
    and c = 9/4); the runs must agree, which guards against accidental rank
    drops at special parameter values."""
    if not table.closed:
        raise DomainError("signature needs a closed table")
    params = _param_atoms(table.basis)
    if not params:
        return _signature_at(table, None)
    sigs = []
    for base in (Fraction(4), Fraction(9, 4)):
        point = {}
        for a in params:
            if isinstance(a, Root):
                rq = Fraction(2) if base == 4 else Fraction(3, 2)
                point[a] = Expr.rational(rq)
                point[sym(a.of)] = Expr.rational(base)
            elif a not in point:
                point[a] = Expr.rational(base)
        sigs.append(_signature_at(table, point))
    if sigs[0] != sigs[1]:
        raise DomainError("signature differs between parameter specialisations")
    return sigs[0]


def _signature_at(table: StructureTable, point) -> AlgebraSignature:
    """The signature at `point`; with None the constants are read as rationals."""
    n = table.dim
    # each row with its constants specialised; one may vanish at the point
    br = {p: {k: q for k, e in row.items()
              if (q := (e if point is None else substitute(e, point)).as_rational())}
          for p, row in table.constants.items()}

    def bracket(u, v):
        out: dict[int, Fraction] = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, q in br.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + a * b * q
        return {k: q for k, q in out.items() if q}

    full = [{i: Fraction(1)} for i in range(n)]
    # [g, g] is spanned by the table's own rows c_ij, one per pair i < j
    gg = rref([row for (i, j), row in br.items() if i < j])[0]

    def series(step):
        """Spans A_1 = [g, g], A_2, ... with A_{m+1} = step(A_m), up to the
        first zero or repeated dimension."""
        spans = [full, gg]
        while spans[-1] and len(spans[-1]) != len(spans[-2]):
            spans.append(step(spans[-1]))
        return spans[1:]

    # [A, A] needs each unordered pair once: [u, u] = 0, [v, u] = -[u, v]
    derived = series(lambda A: rref([bracket(u, v) for u, v in combinations(A, 2)])[0])
    lower_central = series(lambda A: rref([bracket(u, v) for u in full for v in A])[0])
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
