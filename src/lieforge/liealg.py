"""Lie brackets, structure constants relative to a computed basis, closure
and Jacobi checks, and a structural signature of the resulting algebra.

Structure constants are expressions in the declared parameter symbols (most
tables are purely rational; the reduced third-member algebra needs sqrt(c)).
A table differentiates each basis field once: one Jacobian per field, held
for the call, serves all of its brackets.
Membership of a bracket in the span of a basis is decided by matching
coefficients over the shared functional basis of monomials and solving
exactly, never by sampling points; one elimination, on rows keyed (slot,
monomial), answers every bracket of a table and rejects a basis dependent
over the parameter dictionary.  A table holds its brackets as sparse
antisymmetric rows {(i, j): {k: c_ij^k}}, nonzero constants only, and the
Jacobi check, the signature and the printed table read those rows as they
are.  Both series of a signature start from [g, g], the span of the table's
own rows.
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
from .symmetry import VectorField, _slot_sums

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
                if isinstance(a, Root) and a.of not in F.jet.independents:
                    params.update((a, sym(a.of)))  # sqrt(c)^2 is c
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


def _rows(F: VectorField, const: Expr | None = None) -> dict:
    """F (times const) as a row {(slot index, monomial): coefficient}."""
    return {(s, m): q for s, (_, _, e) in enumerate(F.coeff_vector_atoms())
            for m, q in (e if const is None else e * const)._terms.items()}


def in_span(targets: list[VectorField], basis: list[VectorField]):
    """Exact membership: target = sum_k alpha_k basis_k with alpha_k constant
    expressions over the dictionary of the parameters of basis and targets.
    One elimination answers every target; returns per target its nonzero
    alpha_k as {k: alpha_k}, k ascending, or None outside the span.  The
    dictionary constants are independent over Q, so its columns are
    dependent, and DomainError is raised, iff the basis is dependent over
    their span."""
    consts = _const_dictionary(_param_atoms(basis + targets))
    labels = [(k, c) for k in range(len(basis)) for c in consts]
    cols, rows = [_rows(basis[k], c) for k, c in labels], [_rows(T) for T in targets]
    try:
        sols = solve_exact(cols, rows)
    except ValueError:
        raise DomainError("basis fields are linearly dependent") from None
    # the dictionary holds distinct monomials, so no alpha_k summed is zero
    return [None if sol is None else _slot_sums(
        (k, Expr.rational(q) * c) for (k, c), q in zip(labels, sol) if q) for sol in sols]


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
    jac = [_jacobian(F) for F in basis]
    brackets = [_bracket(basis[i], jac[i], basis[j], jac[j]) for i, j in pairs]
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
    whose constants hold no parameter is rational: one run decides it.  Else
    the runs at the k-th parameter name c = (2 + k)^2, sqrt(c) = 2 + k, then at
    (3/2 + k)^2, 3/2 + k, must agree, against rank drops at special values."""
    if not table.closed:
        raise DomainError("signature needs a closed table")
    atoms = {a: a.of if isinstance(a, Root) else a.name
             for row in table.constants.values() for e in row.values() for a in atoms_of(e)}
    names = sorted(set(atoms.values()))
    if not names:
        return _signature_at(table, None)
    sigs = []
    for base in (Fraction(2), Fraction(3, 2)):
        root = {n: base + k for k, n in enumerate(names)}
        sigs.append(_signature_at(table, {a: Expr.rational(
            root[n] if isinstance(a, Root) else root[n] ** 2) for a, n in atoms.items()}))
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
