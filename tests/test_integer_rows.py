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
from test_residual_map import DEGREES, SCALED, SYSTEMS, _scaled, _xi_dependent_basis


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
