"""Exact sparse rational elimination."""

import random
from fractions import Fraction

import pytest

from lieforge import linalg
from lieforge.linalg import cleared, nullspace, rank, rref, solve_exact

F = Fraction


def reference_rref(rows):
    """Plain Fraction Gauss-Jordan: exact duplicates dropped, smallest support
    first, each pivot row normalised to 1 and eliminated from earlier ones."""
    todo = list({frozenset(r.items()): r for r in
                 ({c: F(v) for c, v in row.items() if v} for row in rows) if r}.values())
    pivot_rows, pivots = [], []

    def axpy(dst, src, q):
        for c, v in src.items():
            s = dst.get(c, 0) + q * v
            if s:
                dst[c] = s
            else:
                del dst[c]

    for row in sorted(todo, key=len):
        for prow, pc in zip(pivot_rows, pivots):
            if row.get(pc):
                axpy(row, prow, -row[pc])
        if row:
            pc = min(row)
            row = {c: v / row[pc] for c, v in row.items()}
            for prow in pivot_rows:
                if prow.get(pc):
                    axpy(prow, row, -prow[pc])
            pivot_rows.append(row)
            pivots.append(pc)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [pivot_rows[i] for i in order], [pivots[i] for i in order]


def rows_of(mat):
    return [{j: F(v) for j, v in enumerate(row) if v} for row in mat]


def test_rref_pivots_normalised():
    rows = rows_of([[2, 4, 0], [1, 2, 1]])
    pivot_rows, pivots = rref(rows)
    assert pivots == [0, 2]
    for prow, pc in zip(pivot_rows, pivots):
        assert prow[pc] == 1


def test_rank_and_nullspace():
    rows = rows_of([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert rank(rows) == 2
    null = nullspace(rows, 3)
    assert len(null) == 1
    vec = null[0]
    # 1*x0 + 2*x1 + 3*x2 = 0 with x1 = 1 free
    assert vec[1] == 1 and vec[0] == -2 and 2 not in vec


def test_nullspace_exactness():
    # Hilbert-like ill-conditioned matrix stays exact
    n = 6
    rows = [{j: F(1, i + j + 1) for j in range(n)} for i in range(n - 1)]
    null = nullspace(rows, n)
    assert len(null) == 1
    vec = null[0]
    for row in rows:
        s = sum(row.get(j, F(0)) * vec.get(j, F(0)) for j in range(n))
        assert s == 0


def test_solve_exact_consistent():
    cols = [{0: F(1), 1: F(2)}, {0: F(0), 1: F(1)}]
    target = {0: F(3), 1: F(8)}
    x, = solve_exact(cols, [target])
    assert x == [F(3), F(2)]


def test_solve_exact_inconsistent():
    cols = [{0: F(1)}]
    target = {1: F(1)}
    assert solve_exact(cols, [target]) == [None]


def test_solve_exact_rejects_dependent_columns():
    """A column without a pivot is an error, with or without targets, inside
    or outside the span: no free value is chosen for it."""
    for cols in ([{0: 1, 1: 2}, {0: F(-1, 2), 1: -1}], [{0: 1}, {}], [{}],
                 [{0: 1}, {1: 1}, {0: 2, 1: 3}]):
        for targets in ([], [{0: 1, 1: 2}], [{2: 1}]):
            with pytest.raises(ValueError, match="dependent columns"):
                solve_exact(cols, targets)


def test_cleared_takes_the_lcm_of_denominators():
    """Denominators 4 and 6 clear over 12, not over the larger one; keys keep
    their order, zeros are dropped, and integers need no denominator."""
    terms, den = cleared({"b": F(3, 4), "a": F(0), "c": 2, "d": F(-5, 6)})
    assert (list(terms.items()), den) == ([("b", 9), ("c", 24), ("d", -10)], 12)
    assert all(type(v) is int for v in terms.values())
    assert cleared({"x": 3, "y": F(-4, 2)}) == ({"x": 3, "y": -2}, 1)
    assert cleared({}) == ({}, 1)


def test_duplicate_rows_deduped():
    rows = rows_of([[1, 1], [1, 1], [1, 1]])
    assert rank(rows) == 1


def test_explicit_zero_entries_dropped():
    # the zero in column 1 survives elimination of the second row; it must
    # neither become a pivot nor keep the row apart from its duplicate
    rows = [{0: F(1), 1: F(0)}, {0: F(1)}]
    assert rref(rows) == ([{0: F(1)}], [0])
    assert nullspace(rows, 2) == [{1: F(1)}]


def _ordered(rows):
    """Rows as item lists, so that == also compares key order and types."""
    return [[(c, type(v), v) for c, v in row.items()] for row in rows]


def _random_entry(rng):
    v = rng.choice([1, 2, 3, -1, -2, -6, 0])
    return F(v, rng.choice([1, 2, 3, 4, 9, 12])) if rng.random() < 0.5 else v


def _random_rows(rng, keys):
    rows = []
    for _ in range(rng.randint(1, 12)):
        if rows and rng.random() < 0.25:  # a multiple of an earlier row
            q = F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
            rows.append({c: q * v for c, v in rng.choice(rows).items()})
        else:
            support = rng.sample(keys, rng.randint(1, min(4, len(keys))))
            rows.append({c: _random_entry(rng) for c in support})
    return rows


def _solved(cols, targets):
    """linalg.solve_exact's answer, or ValueError where it finds the columns
    dependent; read from the module, so a patched rref is the one used."""
    try:
        return linalg.solve_exact(cols, targets)
    except ValueError:
        return ValueError


def test_rref_equals_fraction_gauss_jordan(monkeypatch):
    rng = random.Random(20261018)
    seen = {True: 0, False: 0}  # dependent columns, independent ones
    for trial in range(300):
        n = rng.randint(2, 8)
        keys = list(range(n)) if trial % 2 else \
            [(("eta", "v"), (k,)) if k % 2 else (("xi", "t"), (k,)) for k in range(n)]
        rows = _random_rows(rng, keys)
        # the rows as columns, solved for a row and a unit vector
        span = (rows[:-1], [rows[-1], {keys[0]: F(1)}])
        got_rows, got_pivots = rref(rows)
        got_null = nullspace(rows, n) if trial % 2 else None
        got_x = _solved(*span)
        with monkeypatch.context() as m:
            m.setattr(linalg, "rref", reference_rref)
            want_rows, want_pivots = linalg.rref(rows)
            want_null = linalg.nullspace(rows, n) if trial % 2 else None
            want_x = _solved(*span)
        assert got_pivots == want_pivots
        assert _ordered(got_rows) == _ordered(want_rows)
        assert all(type(v) is Fraction for row in got_rows for v in row.values())
        assert got_null is None or _ordered(got_null) == _ordered(want_null)
        # dependent columns raise on both, independent ones solve alike
        assert got_x == want_x
        assert got_x is ValueError or all(type(q) is Fraction for x in got_x if x for q in x)
        seen[got_x is ValueError] += 1
    assert min(seen.values()) >= 10, seen


def _unit_heavy_rows(rng, keys, fraction):
    """Mostly one-entry rows, with multiples of earlier rows and explicit
    zeros ({c: 0}, {a: 0, b: 3}); int rows, or Fraction rows."""
    def entry():
        v = rng.choice([1, 2, 3, -1, -4, -6])
        return F(v, rng.choice([1, 2, 3, 5])) if fraction else v

    rows = []
    for _ in range(rng.randint(1, 16)):
        a, b = rng.sample(keys, 2)
        pick = rng.random()
        if rows and pick < 0.2:  # a multiple of an earlier row, keys shuffled
            q = F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7])) if fraction \
                else rng.choice([-3, -1, 2, 5])
            items = list(rng.choice(rows).items())
            rng.shuffle(items)
            rows.append({c: q * v for c, v in items})
        elif pick < 0.35:
            zero = F(0) if fraction else 0
            rows.append(rng.choice([{a: zero}, {a: zero, b: 3 * entry()},
                                    {b: entry(), a: zero}]))
        elif pick < 0.8:
            rows.append({a: entry()})
        else:
            rows.append({c: entry() for c in rng.sample(keys, rng.randint(2, min(4, len(keys))))})
    return rows


def test_unit_rows_first_equal_fraction_gauss_jordan():
    """One-entry rows become pivot rows first and leave the other rows
    before those are made primitive: pivots, values, key order and types
    as plain Gauss-Jordan gives them, on int rows and on Fraction rows."""
    rng = random.Random(20261019)
    for trial in range(400):
        n = rng.randint(2, 8)
        keys = list(range(n)) if trial % 2 else \
            [(("eta", "v"), (k,)) if k % 2 else (("xi", "t"), (k,)) for k in range(n)]
        rows = _unit_heavy_rows(rng, keys, fraction=trial % 4 < 2)
        got_rows, got_pivots = rref(rows)
        want_rows, want_pivots = reference_rref(rows)
        assert got_pivots == want_pivots, rows
        assert _ordered(got_rows) == _ordered(want_rows), rows
        assert all(type(v) is Fraction for row in got_rows for v in row.values())


def test_emptied_and_duplicate_rows_are_neither_cleared_nor_made_primitive(monkeypatch):
    """A multi-entry row the unit columns empty, and an exact copy of a row
    seen before (keys in any order) once the unit columns have left it, are
    dropped before `cleared` and `primitive`: adding them to any rows adds
    no input row to either (`primitive` also serves elimination, whose
    calls are not counted), and the echelon form stays plain Gauss-Jordan's,
    on int rows and on Fraction rows."""
    made = {"cleared": 0, "primitive": 0}
    fresh = []  # the terms `cleared` gave last, not yet made primitive
    cleared_, primitive_ = linalg.cleared, linalg.primitive

    def cleared_input(row):
        made["cleared"] += 1
        fresh[:] = [cleared_(row)]
        return fresh[0]

    def primitive_input(row, lead):
        if fresh and fresh.pop()[0] is row:
            made["primitive"] += 1
        return primitive_(row, lead)

    monkeypatch.setattr(linalg, "cleared", cleared_input)
    monkeypatch.setattr(linalg, "primitive", primitive_input)

    def counted(rows):
        made.update(cleared=0, primitive=0)
        return rref(rows), dict(made)

    rng = random.Random(20261020)
    added = 0
    for trial in range(300):
        keys = list(range(rng.randint(3, 8)))
        rows = [{c: v for c, v in row.items() if v}
                for row in _unit_heavy_rows(rng, keys, fraction=trial % 4 < 2)]
        units = sorted({c for row in rows if len(row) == 1 for c in row})
        extra = []
        for row in rows:
            # the row again less some of its unit columns, the same once they leave
            items = [(c, v) for c, v in row.items() if c not in units or rng.random() < 0.5]
            if len(row) > 1 and len(items) > 1:
                extra.append(dict(items))
            if len(units) > 1:  # a row of unit columns only
                a, b = rng.sample(units, 2)
                extra.append({a: rng.choice([1, -3, F(2, 5)]), b: rng.choice([2, F(-1, 3)])})
        (got, n), (more, n_more) = counted(rows), counted(rows + extra)
        assert n_more == n, (rows, extra)
        assert more == got == reference_rref(rows), rows
        assert all(type(v) is Fraction for row in more[0] for v in row.values())
        added += len(extra)
    assert added > 300
    dup = {0: 2, 1: F(-4, 3)}
    assert counted([dup, dict(reversed(dup.items()))])[1] == {"cleared": 1, "primitive": 1}
    emptied = [{0: 5}, {2: 1}, {0: 1, 2: 3}, {2: F(1, 2), 0: -1}]
    assert counted(emptied) == (reference_rref(emptied), {"cleared": 0, "primitive": 0})


def test_rref_is_exact_beyond_machine_words():
    big = 3 ** 50  # above 2^79; floats would call these rows dependent
    near = [{0: big, 1: big + 1}, {0: big - 1, 1: big}]  # determinant 1
    assert rank(near) == 2
    assert rank(near[:1] + [{0: F(big * (big + 1), 7), 1: F((big + 1) ** 2, 7)}]) == 1
    assert nullspace(near[:1], 2) == [{1: F(1), 0: F(-(big + 1), big)}]
    assert solve_exact(near, [{0: F(1)}]) == [[F(big), F(-(big + 1))]]


def test_rows_equal_up_to_scale_have_rank_1():
    rows = [{0: 2, 1: 4}, {0: -1, 1: -2}, {0: F(1, 3), 1: F(2, 3)}]
    assert rank(rows) == 1
    assert rref(rows) == ([{0: F(1), 1: F(2)}], [0])
