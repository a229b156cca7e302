"""Determining systems and generator verdicts pinned: the SHA-256 of
(provenance, rows) for the default dictionaries of members 1-4 and for the
generated member 5 at degrees 1 and 2, and the `verify_generator` status and
remainders of every catalogue field and family.

`tests/data/determining_golden.json` holds the values of
`determining_outputs`, recorded before the on-shell reducer took one rule
form; a change to prolongation or reduction must leave every entry unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lieforge import catalog
from lieforge.cli import _MEMBER_DICTIONARIES
from lieforge.hierarchy import (REAL_JET, catalogue_member, complex_split,
                                hierarchy_member)
from lieforge.reduce import reduced_system
from lieforge.symmetry import (ansatz_dictionary, determining_system,
                               verify_generator)
from lieforge.systems import PDESystem

# the prolongations of `symmetry` start empty
pytestmark = pytest.mark.usefixtures("cold_tables")

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "determining_golden.json").read_text())

# system -> catalogue functions whose fields are verified against it
VERIFIED = {
    "member 1": ["transport_family_examples"],
    "member 2": ["fields_member2", "family_member2", "family_member2_printed",
                 "family_member2_partial"],
    "member 3": ["fields_member3", "fields_member3_scaling", "family_member3",
                 "family_member3_partial"],
    "member 4": ["fields_member4"],
    "reduced 2": ["fields_reduced2", "fields_reduced2_printed_variants"],
    "reduced 3": ["fields_reduced3"],
}


def _member5() -> PDESystem:
    v_rhs, w_rhs = complex_split(hierarchy_member(4))
    return PDESystem(jet=REAL_JET, rhs={"v": v_rhs, "w": w_rhs},
                     label="member 5 (generated)")


def _system(name: str):
    kind, n = name.split()
    return catalogue_member(int(n)) if kind == "member" else reduced_system(int(n))


def _digest(det) -> str:
    rows = [sorted((col, q.numerator, q.denominator) for col, q in row.items())
            for row in det.rows]
    return hashlib.sha256(repr((det.provenance, rows)).encode()).hexdigest()


def determining_cases() -> dict:
    """label -> (system, dictionary size) of every pinned determining system."""
    cases = {f"member {k} ({d}, {m}, {e})": (catalogue_member(k), (d, m, e))
             for k, (d, m, e) in sorted(_MEMBER_DICTIONARIES.items())}
    for degree in (1, 2):
        cases[f"member 5 ({degree}, 0, 0)"] = (_member5(), (degree, 0, 0))
    return cases


def determining_outputs() -> dict:
    out = {"determining": {}, "verify": {}}
    for label, (S, (degree, trig, expw)) in determining_cases().items():
        basis = ansatz_dictionary(REAL_JET, degree, trig, expw)
        det = determining_system(S, basis)
        out["determining"][label] = {"rows": len(det.rows), "sha256": _digest(det)}
    for name, makers in VERIFIED.items():
        S = _system(name)
        for maker in makers:
            fields = getattr(catalog, maker)()
            for X in fields if isinstance(fields, list) else [fields]:
                rep = verify_generator(S, X)
                out["verify"][f"{name}: {maker}: {X.name}"] = {
                    "status": rep.status, "remainder": rep.remainders()}
    return out


def test_determining_outputs_pinned(tables):
    for state in tables:
        assert determining_outputs() == GOLDEN, state
