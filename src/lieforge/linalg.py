"""Exact rational linear algebra on sparse rows.

Rows are dicts {column key: int or Fraction}; column keys are column
indices, or for `rref`/`rank` any mutually comparable keys.  Elimination is
fraction-free (Bareiss, Math. Comp. 22, 1968): a one-entry row is its
column's pivot row as it stands (most determining rows are); the others
leave those columns first, and each left non-empty and unseen is cleared
once by `cleared`, kept primitive (integers with gcd 1) and deduplicated up
to scale; only the final pivot rows become Fractions, normalised to 1.  The
reduced echelon form is unique, so echelon forms, nullspace bases, and the
solutions of `solve_exact`, whose columns must be independent, are
deterministic; they hold Fractions whatever the input rows hold.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

__all__ = ["cleared", "divided", "primitive", "rref", "nullspace", "rank", "solve_exact",
           "transpose"]


def cleared(terms: dict) -> tuple[dict, int]:
    """(integer terms, denominator) of a dict of int or Fraction values: the
    values over the lcm of their denominators, in key order, zeros dropped."""
    den = lcm(*(v.denominator for v in terms.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in terms.items() if v}, den


def divided(terms: dict, den: int) -> dict:
    """The inverse of `cleared`: int values over den, int if exact; terms if den == 1."""
    return terms if den == 1 else {
        c: v // den if not v % den else Fraction(v, den) for c, v in terms.items()}


def primitive(row: dict, lead) -> dict:
    """row divided by the gcd of its entries, signed so that row[lead] > 0."""
    g = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict, prow: dict, pc) -> dict:
    """The primitive multiple of a*row - v*prow, a = prow[pc], v = row[pc],
    which is zero in column pc.  row is consumed; keys keep its order, with
    prow's new keys after them, as a Fraction axpy would leave them."""
    g = gcd(prow[pc], row[pc])
    a, v = prow[pc] // g, row[pc] // g
    if a != 1:
        row = {c: a * w for c, w in row.items()}
    for c, w in prow.items():
        s = row.get(c, 0) - v * w
        if s:
            row[c] = s
        else:
            del row[c]
    return primitive(row, next(iter(row))) if row else row


def rref(rows: Iterable[dict]):
    """Reduced row-echelon form.  Returns (pivot_rows, pivots) where
    pivot_rows[i] has a 1 in column pivots[i] and zeros in other pivot
    columns; the columns are read from the rows themselves."""
    # explicit zeros are dropped (a zero pivot entry cannot be normalised); a one-entry
    # row is its column's unit pivot row; the others, smallest support first, leave the
    # unit columns, and each left non-empty and unseen is kept primitive, once per vector
    rows = [row if all(row.values()) else {c: v for c, v in row.items() if v} for row in rows]
    units = {c: None for row in rows if len(row) == 1 for c in row}
    todo, seen = {}, set()
    for row in sorted((row for row in rows if len(row) > 1), key=len):
        if not units.keys().isdisjoint(row):
            row = {c: v for c, v in row.items() if c not in units}
        if not row or (key := frozenset(row.items())) in seen:
            continue
        seen.add(key)
        row = primitive(cleared(row)[0], min(row))
        todo.setdefault(frozenset(row.items()), row)

    pivot_rows: list[dict] = []
    pivots: list = []
    where: dict = {}  # pivot column -> its index in pivots
    # eliminating one pivot column brings in no other: a row meets only the pivots it holds
    for row in todo.values():
        for i in sorted(where[c] for c in row if c in where):
            row = _eliminate(row, pivot_rows[i], pivots[i])
        if not row:
            continue
        pc = min(row)
        for i, prow in enumerate(pivot_rows):
            if prow.get(pc):
                pivot_rows[i] = _eliminate(prow, row, pc)
        where[pc] = len(pivots)
        pivot_rows.append(row)
        pivots.append(pc)

    order = sorted([*zip(pivots, pivot_rows), *((c, {c: 1}) for c in units)], key=lambda t: t[0])
    return ([{c: Fraction(w, prow[pc]) for c, w in prow.items()} for pc, prow in order],
            [pc for pc, _ in order])


def rank(rows: Iterable[dict]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Iterable[dict], ncols: int) -> list[dict[int, Fraction]]:
    """Canonical nullspace basis: one vector per free column, with a 1 in the
    free column and pivot columns filled in; ordered by free column index."""
    pivot_rows, pivots = rref(rows)
    pivot_set = set(pivots)
    return [{j: Fraction(1), **{pc: -prow[j] for prow, pc in zip(pivot_rows, pivots)
                                if prow.get(j)}}
            for j in range(ncols) if j not in pivot_set]


def transpose(cols: Iterable[dict]) -> dict:
    """Rows {row key: {column index: value}} of sparse column vectors, built
    in one pass over their entries; each column may be dropped once read."""
    rows: dict = {}
    for k, col in enumerate(cols):
        for r, q in col.items():
            rows.setdefault(r, {})[k] = q
    return rows


def solve_exact(cols: list[dict], targets: list[dict]) -> list:
    """Solve sum_k x_k * cols[k] = target exactly, for every target at once.

    Column vectors and targets are sparse over any set of mutually comparable
    row keys.  One RREF of [cols | targets] answers all: a column without a
    pivot raises ValueError, as no free value is chosen; a target is outside
    the span iff a pivot row with its pivot in the target block (a row with no
    basis entries) touches its column; else x[k] is its entry in the row of
    pivot k.  Returns one coefficient list per target, None outside the span."""
    nc = len(cols)
    rows = transpose(cols + targets)
    pivot_rows, pivots = rref([rows[r] for r in sorted(rows)])
    if pivots[:nc] != list(range(nc)):
        raise ValueError("dependent columns")
    zero, outside = Fraction(0), {c for prow in pivot_rows[nc:] for c in prow}
    return [None if t in outside else [prow.get(t, zero) for prow in pivot_rows[:nc]]
            for t in range(nc, nc + len(targets))]
