"""One exact elimination answers every span question.

`solve_exact(cols, targets)` solves all targets from one RREF of
`[cols | targets]`; each answer must equal the single-target solve kept
here as `reference_solve`, on seeded int and Fraction systems with targets
outside the span, sums of an outside target and a span vector, duplicates,
zero targets and no targets at all; dependent columns must raise.
`structure_constants` asks `in_span` once per table, and
`tests/data/table_golden.json` pins every catalogue structure table, its
non-closing fields and its signature, also after seeded unimodular changes
of basis.
"""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from lieforge import catalog, liealg
from lieforge.cli import _named_basis
from lieforge.linalg import rank, rref, solve_exact, transpose
from lieforge.liealg import algebra_signature, in_span, structure_constants
from lieforge.parser import expr_text
from lieforge.symmetry import field_text

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "table_golden.json").read_text())
SEED = 20261020
N_SYSTEMS = 200


def reference_solve(cols, target):
    """Single-target solve: one RREF of [cols | -target]; None iff the target
    column holds a pivot."""
    nc = len(cols)
    rows = transpose(cols + [{r: -q for r, q in target.items()}])
    pivot_rows, pivots = rref([rows[r] for r in sorted(rows)])
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for prow, pc in zip(pivot_rows, pivots):
        x[pc] = -prow.get(nc, Fraction(0))
    return x


def _number(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _vector(rng, keys):
    vec = {}
    for r in rng.sample(keys, rng.randint(0, len(keys))):
        q = _number(rng)
        if q:
            vec[r] = q
    return vec


def _combination(rng, cols):
    out = {}
    for col in cols:
        a = _number(rng)
        for r, q in col.items():
            out[r] = out.get(r, 0) + a * q
    return {r: q for r, q in out.items() if q}


def _add(u, v):
    out = dict(u)
    for r, q in v.items():
        out[r] = out.get(r, 0) + q
    return {r: q for r, q in out.items() if q}


def _system(rng):
    """Columns over int or tuple row keys, and a target list mixing span
    vectors, random vectors, outside-plus-span sums, duplicates and zeros;
    also returns the kinds of target drawn."""
    n_rows = rng.randint(1, 7)
    keys = list(range(n_rows)) if rng.random() < 0.7 else \
        [("r", k) for k in range(n_rows)]
    cols = [_vector(rng, keys) for _ in range(rng.randint(0, 6))]
    targets, kinds = [], []
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(("span", "random", "shifted", "duplicate", "zero"))
        outside = [t for t in targets if reference_solve(cols, t) is None]
        if kind == "span":
            targets.append(_combination(rng, cols))
        elif kind == "random":
            targets.append(_vector(rng, keys))
        elif kind == "shifted" and outside:
            targets.append(_add(rng.choice(outside), _combination(rng, cols)))
        elif kind == "duplicate" and targets:
            targets.append(dict(rng.choice(targets)))
        elif kind == "zero":
            targets.append({})
        else:
            continue
        kinds.append(kind)
    return cols, targets, kinds


def test_multi_target_solve_equals_single_target_solves():
    rng = random.Random(SEED)
    seen = {"span": 0, "random": 0, "shifted": 0, "duplicate": 0, "zero": 0,
            "outside": 0, "no targets": 0, "dependent": 0}
    for _ in range(N_SYSTEMS):
        cols, targets, kinds = _system(rng)
        try:
            got = solve_exact(cols, targets)
        except ValueError:
            got = ValueError
        # dependent columns (rank below their number) must raise
        if rank(cols) < len(cols):
            assert got is ValueError, (cols, targets)
            seen["dependent"] += 1
            continue
        want = [reference_solve(cols, t) for t in targets]
        assert got == want, (cols, targets)
        for x in got:
            assert x is None or all(type(q) is Fraction for q in x)
        for kind in kinds:
            seen[kind] += 1
        seen["outside"] += want.count(None)
        seen["no targets"] += not targets
    assert min(seen.values()) >= 10, seen


def test_outside_target_next_to_inside_ones():
    cols = [{0: 1, 1: 2}, {1: 1}]
    inside, outside = {0: 3, 1: 8}, {2: 1}
    shifted = _add(outside, inside)
    assert solve_exact(cols, [outside, inside, shifted, inside, {}]) == [
        None, [Fraction(3), Fraction(2)], None, [Fraction(3), Fraction(2)],
        [Fraction(0), Fraction(0)]]
    assert solve_exact(cols, []) == []
    assert solve_exact([], [{}, {0: 1}]) == [[], None]


# ---------------------------------------------------------------------------
# structure tables
# ---------------------------------------------------------------------------

def test_structure_constants_asks_in_span_once(monkeypatch):
    calls = []

    def counting(targets, basis):
        calls.append(len(targets))
        return in_span(targets, basis)

    monkeypatch.setattr(liealg, "in_span", counting)
    table = structure_constants(catalog.fields_reduced3())
    assert calls == [10]
    assert table.closed


def _change_basis(fields, rng, additions):
    """Seeded unimodular integer change of basis: row additions and an
    optional sign flip."""
    n = len(fields)
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(additions):
        i, j = rng.sample(range(n), 2)
        a = rng.choice((-2, -1, 1, 2))
        M[i] = [x + a * y for x, y in zip(M[i], M[j])]
    if rng.random() < 0.5:
        k = rng.randrange(n)
        M[k] = [-x for x in M[k]]
    out = []
    for i, row in enumerate(M):
        X = None
        for F, m in zip(fields, row):
            if m:
                X = F.scale(m) if X is None else X.add(F.scale(m))
        X.name = f"Y{i + 1}"
        out.append(X)
    return out


def _catalogue_bases() -> dict:
    r2_printed = {F.name.split("(")[0]: F
                  for F in catalog.fields_reduced2_printed_variants()}
    return {
        "member 2": _named_basis(2, False),
        "member 3": _named_basis(3, False),
        "member 3 (printed G2b)": catalog.fields_member3(),
        "member 4": _named_basis(4, False),
        "reduced 2": _named_basis(2, True),
        "reduced 2 (printed G7d, G12d)": [r2_printed.get(F.name, F)
                                          for F in catalog.fields_reduced2()],
        "reduced 3": _named_basis(3, True),
    }


def table_outputs() -> dict:
    """Per basis: closure, the SHA-256 of every structure constant and of the
    non-closing fields, and the signature of a closed table."""
    rng = random.Random(SEED)
    cases = _catalogue_bases()
    for name in ("member 2", "member 3", "member 4", "reduced 2", "reduced 3"):
        for k in range(1 if name == "reduced 2" else 2):
            cases[f"{name}, change of basis {k + 1}"] = _change_basis(
                cases[name], rng, 1 if name == "reduced 2" else 2)
    out = {}
    for name, basis in cases.items():
        table = structure_constants(basis)
        constants = [(i, j, [expr_text(table.c(i, j, k)) for k in range(table.dim)])
                     for i, j in combinations(range(table.dim), 2)]
        non_closing = [(i, j, field_text(Z))
                       for (i, j), Z in sorted(table.non_closing.items())]
        out[name] = {
            "dim": table.dim, "closed": table.closed,
            "constants": hashlib.sha256(repr(constants).encode()).hexdigest(),
            "non_closing": hashlib.sha256(repr(non_closing).encode()).hexdigest(),
            "signature": dataclasses.asdict(algebra_signature(table))
            if table.closed else None,
        }
    return out


def test_structure_tables_pinned():
    assert table_outputs() == GOLDEN
