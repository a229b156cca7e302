"""One zero decision behind every exact verdict: generator and profile reports,
the Jacobi check and the member audit all take their status from
`expr_core.verdict`, and generator and profile verdicts share one report."""

import dataclasses
import sys

import pytest

from lieforge import catalog, expr_core, reduce, symmetry
from lieforge.expr_core import ZeroStatus, verdict
from lieforge.hierarchy import REAL_JET, audit_member, catalogue_member
from lieforge.liealg import jacobi_check, structure_constants
from lieforge.reduce import linear_solution_member4, reduced_system, verify_solution
from lieforge.symmetry import parse_field, verify_generator


def _flipped(e, constraints=()):
    return ZeroStatus.NONZERO if verdict(e, constraints) == ZeroStatus.ZERO else ZeroStatus.ZERO


VERDICTS = {
    "generator": lambda: verify_generator(catalogue_member(2), catalog.fields_member2()[0]).zero,
    "profile": lambda: verify_solution(reduced_system(4), linear_solution_member4()).zero,
    "jacobi": lambda: jacobi_check(structure_constants(catalog.fields_member2())),
    "audit": lambda: audit_member(1).match,
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_replacing_the_kernel_decision_flips_the_verdict(name, monkeypatch):
    assert VERDICTS[name]() is True
    # every binding of the decision in the package, wherever it was imported
    bound = [m for m in list(sys.modules.values()) if m.__name__.startswith("lieforge")
             and getattr(m, "verdict", None) is verdict]
    for module in bound:
        monkeypatch.setattr(module, "verdict", _flipped)
    assert expr_core in bound
    assert VERDICTS[name]() is False


def test_one_report_class_and_one_decision():
    assert reduce.VerifyReport is symmetry.VerifyReport
    assert not hasattr(symmetry, "VerificationReport")
    assert reduce.equal_up_to_factor is expr_core.equal_up_to_factor


def test_generator_report_has_one_status_per_equation():
    # d_v shifted by t moves v_t only: the v equation fails, the w equation holds
    S = catalogue_member(2)
    rep = verify_generator(S, parse_field("eta_v = t", REAL_JET))
    assert len(rep.residuals) == len(S.equations()) == 2
    assert rep.statuses == [ZeroStatus.NONZERO, ZeroStatus.ZERO]
    assert rep.remainders() == ["1", "0"]
    assert rep.status == ZeroStatus.NONZERO and not rep.zero


def test_member4_linear_is_zero_through_its_constraint():
    cand = linear_solution_member4()
    rep = verify_solution(reduced_system(4), cand)
    assert rep.statuses == [ZeroStatus.ZERO, ZeroStatus.ZERO] and rep.zero
    # the second residual is no empty term dict: only the constraint rule makes it Zero
    assert rep.remainders() == ["0", "-c*f1 - f1^4"]
    bare = verify_solution(reduced_system(4), dataclasses.replace(cand, constraints=[]))
    assert bare.statuses == [ZeroStatus.ZERO, ZeroStatus.NONZERO]
