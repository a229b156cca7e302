"""Seeded fuzz of the command-line argument space.

About 200 argument vectors, drawn with stdlib `random` over every subcommand
and its flags, each value small, negative, zero, huge, non-numeric, `1/0` or
`nan` (or a valid choice).  Every vector runs through `main()` in process;
it must return an exit code in {0, 1, 2} without an escaping exception, and
every exit 1 must print a `lieforge: error:` line.  Values a subcommand
admits are kept small, so every admitted vector runs quickly.
"""

import random

import pytest

from lieforge.cli import main

SEED = 20261018
N_VECTORS = 200

ODD = ["-3", "0", "10**9", "1000000000", "x", "1/0", "nan", "inf", ""]
INT_SMALL = ["0", "1", "2"]
FLOAT_SMALL = ["0.5", "1", "-0.25", "1e-3"]
RATIONAL = ["1", "1/2", "-3/4", "2", "c"]

# subcommand -> {flag: (required, admitted values)}; None marks a switch
# (and --field, which takes one of the field files)
SPEC = {
    ("member",): {"--n": (True, INT_SMALL), "--split": (False, None)},
    ("audit",): {"--k": (True, ["1", "2", "3", "4"])},
    ("symmetries", "find"): {
        "--member": (True, ["1", "2", "3", "4"]),
        "--degree": (False, ["0", "1"]), "--trig": (False, ["0", "1"]),
        "--expw": (False, ["0", "1"])},
    ("symmetries", "verify"): {
        "--member": (True, ["1", "2", "3", "4"]), "--field": (True, None)},
    ("brackets",): {"--member": (True, ["2", "3"]), "--reduced": (False, None)},
    ("classify",): {"--member": (True, ["2", "3", "4"]),
                    "--reduced": (False, None)},
    ("reduce",): {"--member": (True, ["1", "2", "3"]), "--c": (False, RATIONAL),
                  "--order-reduce": (False, None)},
    ("verify-solution",): {
        "--system": (True, ["3.3", "3.22", "3.22-F", "3.20", "4.3"]),
        "--solution": (True, ["tan", "s11", "rational-trig", "sn", "linear4"]),
        "--c": (False, RATIONAL), "--mode": (False, ["symbolic", "numeric"]),
        "--k": (False, ["0.5", "0.9"]), "--tol": (False, ["1e-9", "0.1"])},
    ("integrate",): {
        "--system": (True, ["3.3", "3.22"]), "--c": (True, ["1", "1/2", "2"]),
        "--from": (True, ["tan"]), "--s0": (False, FLOAT_SMALL),
        "--h": (False, ["0.1", "0.05", "1e300"]),
        "--range": (False, ["0:2", "-1:1", "2:0", "0:1e9", "nan:1", "0:2:3"])},
    ("fig1",): {"--c": (False, ["1", "1/2", "3/2"]), "--F1": (False, ["0", "1,2"]),
                "--n": (False, ["2", "10", "50"])},
}

FIELD_FILES = {
    "scaling": "xi_t = t\nxi_x = x/3\n",
    "translation": "xi_x = 1\n",
    "garbage": "this is not a field\n",
    "bad-slot": "zeta_v = 1\n",
    "bad-expr": "eta_v = exp(\n",
    "jet-coefficient": "eta_v = v_x\n",
    "empty": "",
}


def _vectors(fields):
    rng = random.Random(SEED)
    commands = sorted(SPEC)
    for _ in range(N_VECTORS):
        cmd = rng.choice(commands)
        argv = list(cmd)
        for flag, (required, admitted) in SPEC[cmd].items():
            if rng.random() < (0.9 if required else 0.5):
                argv.append(flag)
                if flag == "--field":
                    argv.append(rng.choice(fields))
                elif admitted is not None:
                    argv.append(rng.choice(admitted) if rng.random() < 0.6
                                else rng.choice(ODD))
        if rng.random() < 0.05:
            argv.append(rng.choice(["--bogus", "extra"]))
        yield argv


@pytest.fixture
def field_files(tmp_path):
    """Paths of the FIELD_FILES written out, and of one missing file."""
    for name, text in FIELD_FILES.items():
        (tmp_path / f"{name}.txt").write_text(text)
    return [str(tmp_path / f"{name}.txt") for name in [*FIELD_FILES, "missing"]]


def test_cli_fuzz_exit_contract(field_files, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = {}
    for argv in _vectors(field_files):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 1:
            assert "lieforge: error: " in err, (argv, err)
        assert "Traceback" not in err, argv
        codes[code] = codes.get(code, 0) + 1
    # the draw reaches success, usage errors and verification failures
    assert set(codes) == {0, 1, 2}, codes
