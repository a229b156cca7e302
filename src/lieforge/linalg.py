"""Exact rational linear algebra on sparse rows.

Rows are dicts {column key: int or Fraction}; column keys are column
indices, or for `rref`/`rank` any mutually comparable keys.  Reduction is
Gauss-Jordan with pivots chosen in column order and normalised to 1, so
echelon forms, nullspace bases, and solve results are deterministic; they
hold Fractions whatever the input rows hold.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

__all__ = ["rref", "nullspace", "rank", "solve_exact", "transpose"]


def _scale(row: dict[int, Fraction], q: Fraction) -> dict[int, Fraction]:
    return {c: v * q for c, v in row.items()}


def _axpy(dst: dict[int, Fraction], src: dict[int, Fraction], q: Fraction) -> None:
    for c, v in src.items():
        s = dst.get(c)
        s = q * v if s is None else s + q * v
        if s:
            dst[c] = s
        else:
            del dst[c]


def rref(rows: list[dict]):
    """Reduced row-echelon form.  Returns (pivot_rows, pivots) where
    pivot_rows[i] has a 1 in column pivots[i] and zeros in other pivot
    columns; the columns are read from the rows themselves."""
    pivot_rows: list[dict[int, Fraction]] = []
    pivots: list[int] = []

    def reduce_row(row: dict[int, Fraction]) -> dict[int, Fraction]:
        row = dict(row)
        for prow, pc in zip(pivot_rows, pivots):
            v = row.get(pc)
            if v:
                _axpy(row, prow, -v)
        return row

    # dedupe incoming rows, smallest support first for cheaper elimination;
    # explicit zeros are dropped (a zero pivot entry cannot be normalised)
    seen = set()
    todo = []
    for row in rows:
        key = tuple(sorted((c, v.numerator, v.denominator)
                           for c, v in row.items() if v))
        if key and key not in seen:
            seen.add(key)
            todo.append(row if len(key) == len(row) else
                        {c: v for c, v in row.items() if v})
    todo.sort(key=len)

    for row in todo:
        row = reduce_row(row)
        if not row:
            continue
        pc = min(row)
        row = _scale(row, Fraction(1) / row[pc])
        for prow in pivot_rows:
            v = prow.get(pc)
            if v:
                _axpy(prow, row, -v)
        pivot_rows.append(row)
        pivots.append(pc)

    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivot_rows[i] for i in order], [pivots[i] for i in order]


def rank(rows: list[dict]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Canonical nullspace basis: one vector per free column, with a 1 in the
    free column and pivot columns filled in; ordered by free column index."""
    pivot_rows, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec: dict[int, Fraction] = {j: Fraction(1)}
        for prow, pc in zip(pivot_rows, pivots):
            v = prow.get(j)
            if v:
                vec[pc] = -v
        basis.append(vec)
    return basis


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
    row keys.  One RREF of [cols | targets] answers all: a target is outside
    the span iff a pivot row with its pivot in the target block (a row with
    no basis entries) touches its column; else x[pc] is its entry in the row
    of pivot pc.  Returns one coefficient list per target, free variables
    set to zero, or None for a target outside the span."""
    nc = len(cols)
    rows = transpose(cols + targets)
    pivot_rows, pivots = rref([rows[r] for r in sorted(rows)])
    outside = {c for prow, pc in zip(pivot_rows, pivots) if pc >= nc for c in prow}
    out = [None if t in outside else [Fraction(0)] * nc
           for t in range(nc, nc + len(targets))]
    for prow, pc in zip(pivot_rows, pivots):
        for c, v in prow.items():
            if c >= nc and out[c - nc] is not None:
                out[c - nc][pc] = v
    return out
