"""The residual maps that generator verdicts keep in the process memo.

`symmetry_residual` takes the map of a system from `expr_core._memo`, keyed
on (jet, equations, unknown rules, label), so fields verified on one system
share its tables, pieces and splits.  These tests count the maps built with a spy
on `_ResidualMap.__init__`: one per key, none for a field seen before, a
new one after `clear_caches()`, and over seed-1 `exact` decks 1-8 of the
benchmark nine maps, none evicted by the other entries of the memo.
"""

from pathlib import Path

import pytest

from lieforge import catalog, expr_core, symmetry
from lieforge.expr_core import DomainError
from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.symmetry import _ResidualMap, parse_field, verify_generator
from lieforge.systems import PDESystem

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def built(monkeypatch):
    """The (system label, unknown rules) of every map built, on empty tables."""
    expr_core.clear_caches()
    out = []
    init = _ResidualMap.__init__

    def spy(self, system, unknowns=()):
        out.append((system.label, unknowns))
        init(self, system, unknowns)

    monkeypatch.setattr(_ResidualMap, "__init__", spy)
    return out


def _maps():
    return [m for key, m in expr_core._MEMO.items() if key[0] == "residual map"]


def test_one_map_per_system_and_unknown_rules(built):
    for X in catalog.fields_member2():
        assert verify_generator(catalogue_member(2), X).zero, X.name
    assert len(built) == 1
    family, partial = catalog.family_member2(), catalog.family_member2_partial()
    assert family.unknowns and partial.unknowns != family.unknowns
    for _ in range(2):
        assert verify_generator(catalogue_member(2), family).zero
        assert not verify_generator(catalogue_member(2), partial).zero
    assert [u for _, u in built] == [(), family.unknowns, partial.unknowns]
    for X in catalog.fields_member3():
        verify_generator(catalogue_member(3), X)
    assert len(built) == len(_maps()) == 4


def test_a_field_seen_before_adds_nothing_to_its_map(built):
    S = catalogue_member(3)
    for X in [*catalog.fields_member3(), catalog.family_member3()]:
        first = verify_generator(S, X).remainders()
        rmap = expr_core._MEMO["residual map", S.jet, tuple(S.equations()), X.unknowns, S.label]
        sizes = [len(rmap.tables), len(rmap.pieces), len(rmap.splits)]
        assert verify_generator(S, X).remainders() == first, X.name
        assert [len(rmap.tables), len(rmap.pieces), len(rmap.splits)] == sizes, X.name
    assert len(built) == 2


def test_clear_caches_drops_the_maps(built):
    X = catalog.fields_member2()[0]
    verify_generator(catalogue_member(2), X)
    assert len(_maps()) == 1
    expr_core.clear_caches()
    assert _maps() == []
    verify_generator(catalogue_member(2), X)
    assert len(built) == 2


def test_exact_decks_build_nine_maps_and_evict_none(built, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import jobs
    decks = jobs.build("exact", 1, 8)
    verdicts = 0
    for deck in decks:
        for job in deck:
            job.run()
            verdicts += job.label.startswith(("combo ", "family "))
    assert verdicts == 72
    assert len(built) == len(_maps()) == 9


def test_a_refusal_leaves_the_kept_map_whole(built):
    """A refusal raised while a kept map builds a table, a piece or an
    on-shell value keeps no part of it: the same field is refused the same
    way again, and other fields verify on the same map."""
    S, bound = catalogue_member(2), symmetry._BOUND
    # the w partial v*sin(v) times the table of v^bound*cos(v), which keeps
    # within the bound, passes it in the second piece of the map
    T = PDESystem(jet=REAL_JET, label="v sin(v) transport", rhs={
        "v": REAL_JET.parse("v_xx"), "w": REAL_JET.parse("w_xx + v*sin(v)*v_x")})
    rules = "unknown a(t,x): a_t = sin(b_x)\nunknown b(x,t): b_x = exp(t)\n"
    bad, good = (parse_field(rules + slot, REAL_JET) for slot in ("eta_v = a_t", "eta_v = b"))
    past = rf"exponent {bound + 1} of v exceeds {bound}"
    for system, X, message in [
            (S, parse_field(f"eta_v = x*v^{bound + 1}", REAL_JET), past),  # table
            (T, parse_field(f"eta_v = v^{bound}*cos(v)", REAL_JET), past),  # piece
            (S, bad, "sin argument contains a transcendental factor")]:  # Reducer
        for _ in range(2):
            with pytest.raises(DomainError, match=message):
                verify_generator(system, X)
    assert verify_generator(S, catalog.fields_member2()[0]).zero
    assert not verify_generator(S, good).zero
    assert verify_generator(T, parse_field("xi_x = 1", REAL_JET)).zero
    assert len(built) == 3
    # the same equations under another name: the refusal names that system
    renamed = PDESystem(jet=S.jet, rhs=S.rhs, label="member 2, renamed")
    with pytest.raises(DomainError, match=f"{past} in 'member 2, renamed'"):
        verify_generator(renamed, parse_field(f"eta_v = x*v^{bound + 1}", REAL_JET))
