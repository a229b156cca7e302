"""Determining systems kept as integer rows, one scale per equation.

Discovery, `rank()` and `nullity()` read the integer rows; the rational rows
and their provenance are built on the first read and kept.  The contract:
building a system, counting its rows and discovering its symmetries make no
sort keys and no rational rows, and the first read of either `rows` or
`provenance` makes the sort keys once.  The oracle: the nullspace and rank
of the integer rows equal those of the rational rows, in values, key order
and types, on every pinned determining system and on time-scaled and
reduced systems whose rows hold fractions.
"""

from fractions import Fraction

import pytest

from lieforge import linalg, symmetry
from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.symmetry import ansatz_dictionary, determining_system, discover_symmetries

from test_determining_golden import determining_cases
from test_residual_map import (
    DEGREES, SCALED, SYSTEMS, _explicit_x, _reference_rows, _scaled, _unit_field,
    _xi_dependent_basis, leibniz_sums, reference_residual,
)


@pytest.fixture
def key_calls(monkeypatch):
    """The number of `_Ring.keys` calls made so far."""
    calls, keys = [], symmetry._Ring.keys
    monkeypatch.setattr(symmetry._Ring, "keys",
                        staticmethod(lambda *args: calls.append(1) or keys(*args)))
    return calls


@pytest.mark.parametrize("first", ["rows", "provenance"])
def test_counting_and_discovery_build_no_keys_or_rational_rows(key_calls, first):
    S = _scaled(catalogue_member(4), Fraction(-7, 5))
    basis = ansatz_dictionary(REAL_JET, 2, 2, 1)
    det = determining_system(S, basis)
    assert len(det.rows) == 5713
    assert len(discover_symmetries(S, basis, det)) == 4
    assert (det.rank(), det.nullity()) == (188, 4)
    assert not key_calls and "read" not in vars(det.rows)
    getattr(det, first)[0]
    assert len(key_calls) == 1
    rows, provenance = det.rows[0], det.provenance
    assert len(key_calls) == 1 and len(provenance) == 5713
    assert det.rows[0] is rows and det.provenance is provenance
    assert any(q.__class__ is Fraction for row in det.rows for q in row.values())


def _oracle_cases():
    for label, (S, size) in determining_cases().items():
        yield label, S, ansatz_dictionary(REAL_JET, *size)
    for name, (make, size) in SCALED.items():
        S = make()
        yield name, S, ansatz_dictionary(S.jet, *size) if size else _xi_dependent_basis(S)
    for name in ("member 2 scaled", "member 3 scaled", "reduced 2", "reduced 3"):
        S = SYSTEMS[name]
        yield name, S, ansatz_dictionary(S.jet, *DEGREES[2])


def _typed(vectors):
    return [[(k, q, q.__class__) for k, q in v.items()] for v in vectors]


def test_integer_rows_have_the_nullspace_and_rank_of_the_rational_rows(monkeypatch):
    found = []
    nullspace = symmetry.nullspace
    monkeypatch.setattr(symmetry, "nullspace",
                        lambda rows, n: found.append(nullspace(rows, n)) or found[-1])
    labels = []
    for label, S, basis in _oracle_cases():
        det = determining_system(S, basis)
        found.clear()
        fields = discover_symmetries(S, basis, det)
        want = linalg.nullspace(list(det.rows), det.n_unknowns)
        assert _typed(found[0]) == _typed(want), label
        assert len(fields) == len(want) == det.nullity(), label
        assert det.rank() == linalg.rank(list(det.rows)), label
        labels.append(label)
    assert len(labels) == len(determining_cases()) + len(SCALED) + 4


def test_rows_hold_no_zero_and_count_as_the_reference_rows():
    """Rows are written straight from the Leibniz summands of each column, so
    an entry whose summands cancel is dropped, and a row left empty with it:
    no explicit zero and no empty row, and as many rows and nonzero entries
    as the reference rows, on every oracle case and on member 2 + x u_x,
    where the summands of the column x d_x cancel on a row (so the case is
    there to be met)."""
    S = _explicit_x(SYSTEMS["member 2"])
    cases = [*_oracle_cases(), ("member 2 + x u_x", S, ansatz_dictionary(S.jet, 1, 0, 0))]
    cancelling = []
    for label, S, basis in cases:
        det = determining_system(S, basis)
        rows = list(det.rows.ints.values())
        assert all(row and all(row.values()) for row in rows), label
        _, ref = _reference_rows([reference_residual(S, _unit_field(basis.jet, key, e))
                                  for key, _, e in basis.columns()])
        assert (len(rows), sum(map(len, rows))) == \
            (len(ref), sum(map(len, ref.values()))), label
        rmap = symmetry._ResidualMap(S)
        cancelling += [(label, key, e) for key, _, e in basis.columns()
                       if not all(q for acc in leibniz_sums(rmap, rmap.column(key, e))
                                  for q in acc.values())]
    x = REAL_JET.parse("x")
    assert cancelling == [("member 2 + x u_x", ("xi", "x"), x)]
