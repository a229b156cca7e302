"""Exact sparse rational elimination."""

from fractions import Fraction

from lieforge.linalg import nullspace, rank, rref, solve_exact

F = Fraction


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


def test_duplicate_rows_deduped():
    rows = rows_of([[1, 1], [1, 1], [1, 1]])
    assert rank(rows) == 1


def test_explicit_zero_entries_dropped():
    # the zero in column 1 survives elimination of the second row; it must
    # neither become a pivot nor keep the row apart from its duplicate
    rows = [{0: F(1), 1: F(0)}, {0: F(1)}]
    assert rref(rows) == ([{0: F(1)}], [0])
    assert nullspace(rows, 2) == [{1: F(1)}]
