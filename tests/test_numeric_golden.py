"""Numeric outputs pinned bit for bit: sampled verification stdout and exit
codes, SHA-256 of the integrate and fig1 CSVs, and one lifting residual.

`tests/data/numeric_golden.json` holds the values of `numeric_outputs`,
recorded before numeric evaluation was compiled into plans; a change to
the evaluator must leave every float bit unchanged.
"""

import hashlib
import json
from pathlib import Path

from lieforge.cli import main
from lieforge.hierarchy import catalogue_member
from lieforge.reduce import lift_and_check, tan_antiderivatives

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
    return out


def test_numeric_outputs_pinned(capsys, tmp_path):
    assert numeric_outputs(capsys, tmp_path) == GOLDEN
