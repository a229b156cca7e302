import pytest

from lieforge import expr_core
from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.symmetry import ansatz_dictionary, determining_system, discover_symmetries


@pytest.fixture(scope="session")
def member2():
    return catalogue_member(2)


@pytest.fixture(scope="session")
def member3():
    return catalogue_member(3)


@pytest.fixture(scope="session")
def member4():
    return catalogue_member(4)


@pytest.fixture(scope="session")
def discovery2(member2):
    basis = ansatz_dictionary(REAL_JET, degree=2)
    det = determining_system(member2, basis)
    fields = discover_symmetries(member2, basis, det)
    return basis, det, fields


@pytest.fixture(scope="session")
def discovery4(member4):
    basis = ansatz_dictionary(REAL_JET, degree=2, trig_order=2, exp_range=1)
    det = determining_system(member4, basis)
    fields = discover_symmetries(member4, basis, det)
    return basis, det, fields


@pytest.fixture(scope="module")
def cold_tables():
    """The process-wide tables emptied at the start of a module, as a fresh
    process running it alone starts them; earlier modules fill them."""
    expr_core.clear_caches()


@pytest.fixture
def tables(monkeypatch):
    """The states a golden is computed in, in turn: `cold` (tables emptied),
    `warm` (as the cold run left them, so the same output a second time) and
    `overflow` (emptied, then bounded to 2 products and 1 memo entry, so
    nearly every lookup recomputes)."""
    def states():
        expr_core.clear_caches()
        yield "cold"
        yield "warm"
        expr_core.clear_caches()
        monkeypatch.setattr(expr_core, "_PRODUCTS_SIZE", 2)
        monkeypatch.setattr(expr_core, "_MEMO_SIZE", 1)
        yield "overflow"
    return states()
