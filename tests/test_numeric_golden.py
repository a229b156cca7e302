"""Numeric outputs pinned bit for bit: sampled verification stdout and exit
codes, SHA-256 of the integrate and fig1 CSVs, and two lifting residuals (the
order-2 member and the order-3 member, on the tan antiderivatives).

`tests/data/numeric_golden.json` holds the values of `numeric_outputs`,
recorded before numeric evaluation was compiled into plans (the order-3 lift
residual: before the lift's grid loop was compiled); a change to
the evaluator must leave every float bit unchanged, on cold tables, on the
plans and derivatives a first run kept, and on tables too small to keep them,
and the lift residuals under a `sum` that compensates as Python 3.12's does.
"""

import builtins
import hashlib
import json
import math
from pathlib import Path

import pytest

from lieforge.cli import main
from lieforge.hierarchy import catalogue_member
from lieforge.reduce import lift_and_check, tan_antiderivatives

# the derivative chains, plans and stencils of `reduce` start empty
pytestmark = pytest.mark.usefixtures("cold_tables")

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "numeric_golden.json").read_text())

VERIFY_COMMANDS = [
    "verify-solution --system 3.22 --solution rational-trig --c 1",
    "verify-solution --system 3.3 --solution tan --c 1",
    "verify-solution --system 3.3 --solution s11 --c 1",
    "verify-solution --system 3.22-F-printed --solution sn --k 0.5",
]
CSV_COMMANDS = [
    "integrate --system 3.3 --c 1 --from tan --s0 0 --h 1e-3 --range 0:2",
    "fig1 --c 1 --F1 0,1,2 --n 200",
]


def numeric_outputs(capsys, tmp_path) -> dict:
    out = {"verify": {}, "csv_sha256": {}}
    for command in VERIFY_COMMANDS:
        code = main(command.split())
        out["verify"][command] = {"code": code, "stdout": capsys.readouterr().out}
    for i, command in enumerate(CSV_COMMANDS):
        folder = tmp_path / str(i)
        folder.mkdir()
        assert main(command.split() + ["--csv", str(folder / "out.csv")]) == 0
        capsys.readouterr()
        out["csv_sha256"][command] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(folder.iterdir())}
    f_fn, g_fn = tan_antiderivatives(1.0)
    out["lift_and_check"] = repr(lift_and_check(
        catalogue_member(2), {"f": f_fn, "g": g_fn}, 1.0, n=10))
    out["lift_and_check_member3"] = repr(lift_and_check(
        catalogue_member(3), {"f": f_fn, "g": g_fn}, 1.0, n=10))
    return out


def test_numeric_outputs_pinned(capsys, tmp_path, tables):
    for state in tables:
        (tmp_path / state).mkdir()
        assert numeric_outputs(capsys, tmp_path / state) == GOLDEN, state


_builtin_sum = builtins.sum


def _compensated_sum(items, start=0):
    """`sum` as Python 3.12 adds floats: Neumaier's compensated summation."""
    items = list(items)
    if not items or not all(type(v) is float for v in items):
        return _builtin_sum(items, start)
    total, comp = start + items[0], 0.0
    for v in items[1:]:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_lift_residuals_pinned_under_a_compensated_sum(monkeypatch):
    # the lift's stencil sums are written out left to right, so a Python whose
    # `sum` compensates float sums gives the same bits
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    f_fn, g_fn = tan_antiderivatives(1.0)
    got = [repr(lift_and_check(catalogue_member(m), {"f": f_fn, "g": g_fn}, 1.0, n=10))
           for m in (2, 3)]
    assert got == [GOLDEN["lift_and_check"], GOLDEN["lift_and_check_member3"]]
