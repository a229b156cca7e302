"""Command-line surface: exit codes, JSON shape, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lieforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_module_entry_point_exit_codes(tmp_path):
    """`python -m lieforge` from the source tree, uninstalled, one command per exit
    code; the power past the parser's term-product budget is refused promptly."""
    field = tmp_path / "field.txt"
    field.write_text("eta_v = sin(v)^100000\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for argv, code in [(["brackets", "--member", "4"], 0),
                       (["symmetries", "verify", "--member", "2", "--field", str(field)], 1),
                       (["classify", "--member", "2", "--reduced"], 2)]:
        got = subprocess.run([sys.executable, "-m", "lieforge", *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=10)
        assert got.returncode == code, got.stderr
        assert "Traceback" not in got.stderr


def test_member_split(capsys):
    code, out = run(capsys, "member", "--n", "1", "--split")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["v_t"] == "-v_x^2 + w_x^2 + w_xx"


def test_audit_match_and_delta(capsys):
    code, out = run(capsys, "audit", "--k", "2")
    assert code == 0 and json.loads(out)["match"]
    code, out = run(capsys, "audit", "--k", "4")
    doc = json.loads(out)
    assert code == 0 and not doc["match"]
    assert doc["delta"]["v_t"]


def test_symmetries_find_member4_dimension(capsys):
    code, out = run(capsys, "symmetries", "find", "--member", "4",
                    "--degree", "2", "--trig", "2", "--expw", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 4


def test_symmetries_find_timings_adds_only_timings(capsys):
    code, plain = run(capsys, "symmetries", "find", "--member", "1")
    assert code == 0
    code, timed = run(capsys, "symmetries", "find", "--member", "1", "--timings")
    assert code == 0
    doc, timed_doc = json.loads(plain), json.loads(timed)
    assert list(timed_doc.pop("timings")) == ["seconds"]
    assert timed_doc == doc


def test_symmetries_find_timings_ignore_wall_clock_jumps(capsys, monkeypatch):
    """The wall clock set back an hour mid-command leaves the timing alone."""
    import time
    monkeypatch.setattr(time, "time", iter([7200.0, 3600.0] * 8).__next__)
    code, timed = run(capsys, "symmetries", "find", "--member", "1", "--timings")
    assert code == 0
    assert 0 <= json.loads(timed)["timings"]["seconds"] < 60


@pytest.mark.parametrize("eta_v", ["a_t - b_xx", "sin(a_t) - sin(b_xx)"],
                         ids=["polynomial", "inside-sin"])
def test_symmetries_verify_reduces_unknowns_everywhere(tmp_path, capsys, eta_v):
    # a_t = b_xx on solutions, also inside a sin argument
    field = tmp_path / "field.txt"
    field.write_text("unknown a(t,x): a_t = b_xx\nunknown b(t,x): b_t = -a_xx\n"
                     f"eta_v = {eta_v}\n")
    code, out = run(capsys, "symmetries", "verify", "--member", "2",
                    "--field", str(field))
    assert code == 0 and json.loads(out)["status"] == "Zero"


def test_symmetries_verify_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("xi_t = t\nxi_x = x/3\n")
    code, out = run(capsys, "symmetries", "verify", "--member", "3",
                    "--field", str(good))
    assert code == 0 and json.loads(out)["status"] == "Zero"
    bad = tmp_path / "bad.txt"
    bad.write_text("xi_t = 1\nxi_x = x/3\n")
    code, out = run(capsys, "symmetries", "verify", "--member", "3",
                    "--field", str(bad))
    assert code == 2 and json.loads(out)["status"] == "Nonzero"


def test_brackets_reduced_so21(capsys):
    code, out = run(capsys, "brackets", "--member", "3", "--reduced")
    doc = json.loads(out)
    assert code == 0 and doc["jacobi"]
    assert "[G3f,G4f] = -c^-1*sqrt(c)*G5f" in doc["table"]


def test_brackets_member2_flags_printed_table(capsys):
    code, out = run(capsys, "brackets", "--member", "2")
    doc = json.loads(out)
    assert code == 0 and doc["closed"] and doc["jacobi"]
    assert doc["printed_table_disagreements"]


def test_classify_member4(capsys):
    code, out = run(capsys, "classify", "--member", "4")
    doc = json.loads(out)
    assert doc["signature"]["abelian"] and doc["signature"]["dimension"] == 4


@pytest.mark.parametrize("member, reduced", [
    ("2", False), ("3", False), ("4", False), ("2", True), ("3", True),
], ids=["member2", "member3", "member4", "reduced2", "reduced3"])
def test_classify_is_the_brackets_report_on_its_keys(capsys, member, reduced):
    extra = ["--reduced"] if reduced else []
    _, out = run(capsys, "brackets", "--member", member, *extra)
    brackets = json.loads(out)
    code, out = run(capsys, "classify", "--member", member, *extra)
    classify = json.loads(out)
    keys = ["schema", "member", "reduced", "closed", "jacobi", "signature"]
    assert list(classify.items()) == [(k, brackets[k]) for k in keys]
    assert code == (0 if classify["closed"] else 2)
    # the reduced member-2 table is the one that does not close
    assert classify["closed"] == ((member, reduced) != ("2", True))


def test_reduce_output(capsys):
    code, out = run(capsys, "reduce", "--member", "2", "--order-reduce")
    doc = json.loads(out)
    assert code == 0
    assert any("F'" in e for e in doc["equations"])


def test_verify_solution_exit_codes(capsys):
    code, _ = run(capsys, "verify-solution", "--system", "3.3",
                  "--solution", "tan", "--c", "1", "--mode", "symbolic")
    assert code == 0
    code, _ = run(capsys, "verify-solution", "--system", "3.3",
                  "--solution", "s11", "--c", "1")
    assert code == 2


@pytest.mark.parametrize("system", ["3.22-F", "3.22-F-printed"])
def test_verify_solution_sn_takes_c_from_the_profile(capsys, system):
    code, out = run(capsys, "verify-solution", "--system", system,
                    "--solution", "sn")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == ["sampled"]
    assert doc["max_residual"] < 1e-6


@pytest.mark.parametrize("system", ["3.22-F", "3.22-F-printed"])
def test_verify_solution_sn_passes_a_tight_tol(capsys, system):
    """The jets are exact, so the residual is rounding, far below 1e-12."""
    code, out = run(capsys, "verify-solution", "--system", system, "--solution", "sn",
                    "--k", "0.999999", "--tol", "1e-12")
    assert code == 0 and json.loads(out)["max_residual"] < 1e-13


def test_verify_solution_sn_amplitude_off_by_1e_9_exits_2(monkeypatch, capsys):
    from lieforge import cli
    from lieforge.numerics import sn_jet
    from lieforge.reduce import sn_solution
    cand = sn_solution(0.5)
    cand.callables["F"] = sn_jet(0.5, cand.params["F0"] * (1 + 1e-9))
    monkeypatch.setitem(cli._SOLUTIONS, "sn", lambda args: cand)
    code, out = run(capsys, "verify-solution", "--system", "3.22-F-printed",
                    "--solution", "sn", "--k", "0.5", "--tol", "1e-12")
    assert code == 2 and 1e-12 < json.loads(out)["max_residual"] < 1e-8


def test_verify_solution_sn_fails_the_full_printed_pair(capsys):
    """G = 0 leaves the G-equation G'' = 3 F F' of 3.22 unsolved."""
    code, out = run(capsys, "verify-solution", "--system", "3.22-printed",
                    "--solution", "sn", "--k", "0.5")
    assert code == 2 and json.loads(out)["max_residual"] == pytest.approx(0.70, abs=0.01)


def test_verify_solution_sn_rejects_c(capsys):
    code = main(["verify-solution", "--system", "3.22-F", "--solution", "sn",
                 "--c", "5"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("lieforge: error: --c ")


@pytest.mark.parametrize("argv, message", [
    (["--system", "3.3", "--solution", "tan", "--c", "1", "--k", "0.5"],
     "--k does not apply to --solution tan: only sn has a modulus"),
    (["--system", "3.22-F", "--solution", "sn", "--k", "1.5"],
     "--k 1.5: modulus k must lie in [0, 1)"),
], ids=["not-sn", "out-of-range"])
def test_verify_solution_k_errors_name_the_flag(capsys, argv, message):
    code = main(["verify-solution", *argv])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == f"lieforge: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["verify-solution", "--system", "3.3", "--solution", "cosh"],
    ["integrate", "--system", "3.3", "--c", "1", "--from", "sin"],
], ids=["solution", "from"])
def test_unknown_choice_exits_1(capsys, argv):
    code = main(argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("lieforge: error: ")


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
@pytest.mark.parametrize("system, solution, want", [
    ("3.22", "rational-trig-printed", 2),
    ("4.3", "linear4", 0),
], ids=["rational-trig-printed", "linear4"])
def test_verify_solution_verdict_in_both_modes(capsys, mode, system, solution, want):
    code, out = run(capsys, "verify-solution", "--system", system,
                    "--solution", solution, "--mode", mode)
    assert code == want and json.loads(out)["mode"] == mode


@pytest.mark.parametrize("system, solution, c, code", [
    ("3.3", "tan", "7", 0),
    ("3.22", "rational-trig", "4", 0),
    ("4.3", "linear4", "3", 0),
    ("3.22", "rational-trig", "2", 1),
    ("3.3", "tan", "1e400", 0),  # exact: no float of c is taken
], ids=["tan-7", "rational-trig-4", "linear4-3", "rational-trig-2", "tan-1e400"])
def test_verify_solution_symbolic_at_c(capsys, system, solution, c, code):
    # the profile and the system both at --c; sqrt(2) is outside the kernel
    got = main(["verify-solution", "--system", system, "--solution", solution,
                "--c", c, "--mode", "symbolic"])
    captured = capsys.readouterr()
    assert got == code
    if code == 0:
        assert json.loads(captured.out)["status"] == ["Zero", "Zero"]
    else:
        assert captured.err == ("lieforge: error: --c must be the square of a "
                                "rational for --solution rational-trig, got 2\n")
        assert not captured.out


def test_integrate_and_csv(tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    code, out = run(capsys, "integrate", "--system", "3.3", "--c", "1",
                    "--from", "tan", "--s0", "0", "--h", "1e-3",
                    "--range", "0:2", "--csv", str(csv))
    assert code == 0
    assert csv.read_text().startswith("s,F_re,F_im,G_re,G_im\n")


def test_integrate_blown_up_after_one_step_keeps_its_start(capsys):
    # F = c/2 = 5e7 starts within the RK4 guard and the first step leaves it:
    # the trajectory ends at the previous step, the start
    code, out = run(capsys, "integrate", "--system", "3.3", "--c", "1e8", "--from", "tan")
    assert code == 0 and json.loads(out)["points"] == 1


def test_fig1_csv(tmp_path, capsys):
    csv = tmp_path / "fig1.csv"
    code, out = run(capsys, "fig1", "--c", "1", "--F1", "0,2",
                    "--csv", str(csv), "--n", "64")
    doc = json.loads(out)
    assert code == 0
    assert (tmp_path / "fig1_F1_0.csv").exists()
    assert (tmp_path / "fig1_F1_2.csv").exists()
    assert doc["series"][1]["dFre_sign_changes_per_period"] > \
        doc["series"][0]["dFre_sign_changes_per_period"]


def test_failed_fig1_writes_no_csv(tmp_path, capsys):
    """A run that fails at its second --F1 value leaves its directory as it
    was: no CSV of the first series, no temporary, a file at a target kept."""
    argv = ["fig1", "--c", "1", "--F1", "0,1e200", "--n", "10", "--csv", str(tmp_path / "f.csv")]
    kept = tmp_path / "f_F1_0.csv"
    kept.write_text("kept\n")
    assert main(argv) == 1 and "at --F1 1e200" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [kept] and kept.read_text() == "kept\n"
    kept.unlink()
    assert main(argv) == 1 and list(tmp_path.iterdir()) == []
    # a target that cannot be replaced fails the run after the samples: no temporary stays
    (tmp_path / "f_F1_2.csv").mkdir()
    assert main(argv[:4] + ["0,2"] + argv[5:]) == 1 and "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f_F1_0.csv", "f_F1_2.csv"]


def test_fig1_replaces_its_targets_once_all_series_are_written(tmp_path, capsys):
    (tmp_path / "fig1_F1_0.csv").write_text("old\n")
    plain = tmp_path / "plain"
    plain.write_text("")
    code, out = run(capsys, "fig1", "--c", "1", "--F1", "0,2", "--n", "10",
                    "--csv", str(tmp_path / "fig1.csv"))
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1_F1_0.csv", "fig1_F1_2.csv",
                                                          "plain"]
    for name in ("fig1_F1_0.csv", "fig1_F1_2.csv"):
        path = tmp_path / name
        assert path.read_text().startswith("s,F_re,F_im,G_re,G_im\n")
        assert path.stat().st_mode == plain.stat().st_mode  # as `open` creates a file


def test_colliding_fig1_csv_names_refused_before_sampling(tmp_path, capsys, monkeypatch):
    from lieforge import cli
    monkeypatch.setattr(cli.red, "fig1_rows", lambda *a, **k: pytest.fail("sampled"))
    assert main(["fig1", "--F1", "2,0,2.0", "--csv", str(tmp_path / "f.csv")]) == 1
    assert "--F1 2 and 2.0 would both write" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_1(capsys):
    assert main(["nonsense-command"]) == 1
    assert main(["member"]) == 1  # missing --n


def test_json_byte_determinism(capsys):
    _, out1 = run(capsys, "symmetries", "find", "--member", "2")
    _, out2 = run(capsys, "symmetries", "find", "--member", "2")
    assert out1 == out2
    _, b1 = run(capsys, "brackets", "--member", "3", "--reduced")
    _, b2 = run(capsys, "brackets", "--member", "3", "--reduced")
    assert b1 == b2


README_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "readme_stdout.json").read_text())


@pytest.mark.parametrize("command", sorted(README_STDOUT))
def test_readme_command_stdout_pinned(capsys, command, tables):
    for state in tables:
        assert run(capsys, *command.split()) == (0, README_STDOUT[command]), state


def test_brackets_member3_reports_printed_field_outside_basis(capsys):
    code, out = run(capsys, "brackets", "--member", "3")
    doc = json.loads(out)
    assert code == 0 and doc["closed"] and doc["jacobi"]
    assert "G2b*: t*d_t + 1/3*x*d_x" in doc["basis"]
    # the printed G2b entry cannot be compared; the others are compared
    # as before: [G1b,G3b] disagrees, the G5b/G6b/G7b entries agree
    assert doc["printed_table_disagreements"] == [
        "[G1b,G3b]: printed G1b, computed 0",
        "[G2b,G3b]: printed (1/3)*G2b, not in the computed basis: G2b",
    ]


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--member", "2", "--c", "1/0"],
     "--c must be 'c' or a rational, got '1/0'"),
    (["fig1", "--c", "0"], "--c must be nonzero for fig1"),
    # at c = 0 the s11 profile has F = 0 and G = -F'/(2F - c) divides by zero
    (["verify-solution", "--system", "3.3", "--solution", "s11", "--c", "0"],
     "--c 0 is a degenerate wave speed for --solution s11"),
    (["verify-solution", "--system", "3.3", "--solution", "s11", "--c", "0",
      "--mode", "symbolic"],
     "--c 0 is a degenerate wave speed for --solution s11"),
    (["integrate", "--system", "3.3", "--c", "c", "--from", "tan"],
     "integrate needs a rational --c, got the symbol c"),
    (["fig1", "--c", "c"], "fig1 needs a rational --c, got the symbol c"),
    # sqrt(c) = 31.6i: the trig profile's sinh overflows
    (["verify-solution", "--system", "3.22", "--solution", "rational-trig", "--c", "-1000"],
     "--c -1000 is an overflowing wave speed for --solution rational-trig"),
    (["fig1", "--c", "1e308"], "--c 1e308 is an overflowing wave speed for fig1"),
    (["integrate", "--system", "3.3", "--c", "1e308", "--from", "tan"],
     "--c 1e308 is an overflowing wave speed for integrate"),
    # F = c/2 = 5e19 and G = 1.6e16 at the tan pole start past the RK4 guard
    (["integrate", "--system", "3.3", "--c", "1e20", "--from", "tan"],
     "--c 1e20 is an overflowing wave speed for integrate: F = c/2 = 5e+19 "
     "starts past the RK4 guard 1e+08"),
    (["integrate", "--system", "3.3", "--c", "2", "--from", "tan",
      "--s0", "1.5707963267948966"],
     "--s0 1.5707963267948966 starts integrate at G = 1.63312e+16, not within the "
     "RK4 guard 1e+08"),
    # (c/2)(lo - s0) overflows, so G has no value
    (["integrate", "--system", "3.3", "--c", "2", "--from", "tan", "--s0=-1e308",
      "--range", "1.7e308:1.75e308"],
     "--s0 -1e+308 starts integrate at G = nan, not within the RK4 guard"),
    # 1e400 has no float at all
    (["integrate", "--system", "3.3", "--c", "1e400", "--from", "tan"],
     "--c 1e400 is an overflowing wave speed"),
    (["fig1", "--c", "1e400", "--n", "10"], "--c 1e400 is an overflowing wave speed"),
    (["verify-solution", "--system", "3.3", "--solution", "tan", "--c", "1e400"],
     "--c 1e400 is an overflowing wave speed"),
    # the start is within the RK4 guard, so only the step can overflow
    (["integrate", "--system", "3.3", "--c", "1", "--from", "tan", "--h", "1e300",
      "--range", "0:1e300"],
     "--h 1e+300 is an overflowing step for integrate: complex exponentiation"),
    # the second --F1 value overflows the profile, not c
    (["fig1", "--c", "1", "--F1", "0,1e200", "--n", "10"],
     "--c 1 is an overflowing wave speed for fig1 at --F1 1e200: complex exponentiation"),
    # at c this small a denominator of the s11 profile falls within the pole tolerance
    (["fig1", "--c", "1e-300", "--F1", "0", "--n", "10"],
     "--c 1e-300 is a degenerate wave speed for fig1 at --F1 0: reciprocal pole"),
], ids=["reduce-c-1/0", "fig1-c-0", "verify-solution-s11-c-0",
        "verify-solution-s11-c-0-symbolic", "integrate-c-symbol", "fig1-c-symbol",
        "verify-solution-rational-trig-c-overflow", "fig1-c-overflow",
        "integrate-c-overflow", "integrate-c-past-guard", "integrate-s0-past-guard",
        "integrate-s0-phase-overflow", "integrate-c-no-float", "fig1-c-no-float",
        "verify-solution-c-no-float", "integrate-h-overflow", "fig1-F1-overflow",
        "fig1-c-degenerate"])
def test_arithmetic_errors_exit_1(capsys, argv, message):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"lieforge: error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
@pytest.mark.parametrize("system, solution, missing", [
    ("3.2", "tan", "f, g"),
    ("3.3", "linear4", "F, G"),
], ids=["tan-on-3.2", "linear4-on-3.3"])
def test_a_solution_that_does_not_fit_the_system_exits_1(capsys, mode, system,
                                                         solution, missing):
    code = main(["verify-solution", "--system", system, "--solution", solution,
                 "--c", "1", "--mode", mode])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("lieforge: error: ")
    assert f"no profile for {missing}" in captured.err


@pytest.mark.parametrize("rule, code, remainder", [
    ("a_tt = -a_x", 2, ["a_t + a_x", "0"]),
    ("a = -a_x", 1, None),
    ("a_x = -a_t", 1, None),
    ("", 1, None),
], ids=["second-order-lead", "underived-lhs", "lhs-by-second-argument", "empty-rule"])
def test_field_file_unknown_rule_lead(tmp_path, capsys, rule, code, remainder):
    field = tmp_path / "field.txt"
    field.write_text(f"eta_v = a\nunknown a(t,x): {rule}\n")
    got = main(["symmetries", "verify", "--member", "1", "--field", str(field)])
    captured = capsys.readouterr()
    assert got == code
    if remainder is None:
        assert captured.err.startswith("lieforge: error: ")
        assert "Traceback" not in captured.err
    else:
        doc = json.loads(captured.out)
        assert doc["status"] == "Nonzero" and doc["remainder"] == remainder


@pytest.mark.parametrize("extra", [[], ["--order-reduce"]],
                         ids=["plain", "order-reduce"])
def test_reduce_at_characteristic_speed(capsys, extra):
    # at c = 1 both transport equations reduce to 0 = 0
    code, out = run(capsys, "reduce", "--member", "1", "--c", "1", *extra)
    assert code == 0
    assert json.loads(out)["equations"] == []


@pytest.mark.parametrize("text, message", [
    ("eta_v = a + b\nunknown a(t,x): a_t = b_t\nunknown b(t,x): b_t = a_t\n",
     "cyclic rules"),
    ("eta_v = a\nunknown a(t,x): a_t = a_xx\nunknown a(t,x): a_t = -a_xx\n",
     "unknown a declared twice"),
    ("xi_t = t\nxi_x = x/3\nxi_t = 1\n", "slot xi_t given twice"),
    # the unknown's v_t = 0 would stand in for the system's own v equation
    ("unknown v(t,x): v_t = 0\nunknown w(t,x): w_t = 0\nxi_t = t\n",
     "unknown v takes the name of a coordinate"),
    ("unknown v(t,x)\neta_v = v\n", "unknown v takes the name of a coordinate"),
    ("xi_s = 1\n", "unrecognised slot 'xi_s'"),
], ids=["cyclic-rules", "declared-twice", "slot-given-twice", "unknowns-named-as-dependents",
        "unknown-named-as-dependent", "slot-of-no-independent"])
def test_field_file_inconsistent_unknowns_exit_1(tmp_path, capsys, text, message):
    field = tmp_path / "field.txt"
    field.write_text(text)
    got = main(["symmetries", "verify", "--member", "2", "--field", str(field)])
    err = capsys.readouterr().err
    assert got == 1
    assert err.startswith("lieforge: error: ") and message in err
    assert "Traceback" not in err


def test_field_file_root_of_a_coordinate_is_no_symmetry(tmp_path, capsys):
    # sqrt(x) d_x: the root differentiates by x, so the remainder is nonzero
    field = tmp_path / "field.txt"
    field.write_text("xi_x = sqrt(x)\n")
    code, out = run(capsys, "symmetries", "verify", "--member", "2", "--field", str(field))
    doc = json.loads(out)
    assert code == 2 and doc["status"] == "Nonzero"
    assert doc["remainder"][0].startswith("-1/4*x^-2*sqrt(x)*w_x - x^-1*sqrt(x)*v_x^2 ")


@pytest.mark.parametrize("flags, message", [
    (["--degree", "-1"], "negative ansatz size"),
    (["--expw", "-2"], "negative ansatz size"),
    (["--trig", "-3"], "negative ansatz size"),
    (["--degree", "120"], "29524 unknowns exceeds the budget"),
], ids=["degree-negative", "expw-negative", "trig-negative", "degree-120"])
def test_symmetries_find_rejects_bad_dictionary(capsys, flags, message):
    got = main(["symmetries", "find", "--member", "2", *flags])
    captured = capsys.readouterr()
    assert got == 1 and captured.out == ""
    assert captured.err.startswith("lieforge: error: ") and message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["integrate", "--system", "3.3", "--c", "1", "--from", "tan", "--h", "1e-9"],
     "RK4 step count 2e+09 exceeds the budget of 200000"),
    (["integrate", "--system", "3.3", "--c", "1", "--from", "tan", "--h", "nan"],
     "argument --h: must be finite, got 'nan'"),
    (["integrate", "--system", "3.3", "--c", "1", "--from", "tan",
      "--range", "0:inf"], "argument --range: must be finite, got 'inf'"),
    (["fig1", "--n", "10000000"], "fig1 sample count 10000000 outside 2..100000"),
    (["fig1", "--n", "1"], "fig1 sample count 1 outside"),
    (["fig1", "--n", "0"], "fig1 sample count 0 outside"),
    (["fig1", "--n", "-5"], "fig1 sample count -5 outside"),
    (["fig1", "--n", "2", "--F1", ",".join(map(str, range(2001)))],
     "fig1 takes at most 100 --F1 values, got 2001"),
    # both series would be named f_F1_1.csv, in a directory that does not exist
    (["fig1", "--F1", "1,1.0000001", "--n", "10", "--csv", "no-such-dir/f.csv"],
     "--F1 1 and 1.0000001 would both write no-such-dir/f_F1_1.csv"),
    (["verify-solution", "--system", "3.3", "--solution", "tan", "--tol", "-1"],
     "--tol must be positive"),
    (["verify-solution", "--system", "3.3", "--solution", "tan", "--tol", "nan"],
     "--tol must be positive"),
    (["verify-solution", "--system", "3.3", "--solution", "s11", "--tol", "inf"],
     "--tol must be positive and finite, got inf"),
], ids=["rk4-h-1e-9", "rk4-h-nan", "rk4-range-inf", "fig1-n-1e7", "fig1-n-1",
        "fig1-n-0", "fig1-n-negative", "fig1-F1-2001", "fig1-F1-same-csv", "tol-negative",
        "tol-nan", "tol-inf"])
def test_numeric_inputs_checked_before_work(capsys, argv, message):
    got = main(argv)
    captured = capsys.readouterr()
    assert got == 1 and captured.out == ""
    assert captured.err.startswith("lieforge: error: ") and message in captured.err


def test_nan_residual_exits_2(monkeypatch, capsys):
    """A profile whose residual is NaN fails the check; the JSON stays valid."""
    from lieforge import cli
    from lieforge.reduce import SolutionCandidate
    cand = SolutionCandidate(name="nan", callables={"F": lambda s: [float("nan")] * 3},
                             params={"c": -1.25})
    monkeypatch.setitem(cli._SOLUTIONS, "sn", lambda args: cand)
    code, out = run(capsys, "verify-solution", "--system", "3.22-F-printed",
                    "--solution", "sn")
    assert code == 2 and json.loads(out)["max_residual"] is None


INTEGRATE = ["integrate", "--system", "3.3", "--c", "1", "--from", "tan"]


@pytest.mark.parametrize("argv, message", [
    (INTEGRATE + ["--h", "inf"], "argument --h: must be finite, got 'inf'"),
    (INTEGRATE + ["--h=-inf"], "argument --h: must be finite, got '-inf'"),
    (INTEGRATE + ["--h", "0"], "argument --h: must be positive, got '0'"),
    (INTEGRATE + ["--h=-1"], "argument --h: must be positive, got '-1'"),
    (INTEGRATE + ["--h", "x"], "argument --h: must be a number, got 'x'"),
    (INTEGRATE + ["--s0", "nan"], "argument --s0: must be finite, got 'nan'"),
    (INTEGRATE + ["--s0", "x"], "argument --s0: must be a number, got 'x'"),
    (INTEGRATE + ["--range", "0:nan"], "argument --range: must be finite, got 'nan'"),
    (INTEGRATE + ["--range", "0"], "argument --range: must be LO:HI, got '0'"),
    (INTEGRATE + ["--range", "0:1:2"], "argument --range: must be LO:HI, got '0:1:2'"),
    (INTEGRATE + ["--range", "a:b"], "argument --range: must be LO:HI, got 'a:b'"),
    (["audit", "--k", "0"], "argument --k: invalid choice: 0 (choose from 1, 2, 3, 4)"),
    (["audit", "--k", "5"], "argument --k: invalid choice: 5"),
    (["audit", "--k", "8"], "argument --k: invalid choice: 8"),
    (["fig1", "--F1", "nan"], "--F1 takes comma-separated rationals, got 'nan'"),
    (["fig1", "--F1", ","], "--F1 takes comma-separated rationals, got ','"),
    (["fig1", "--F1", "1,1/0"], "--F1 takes comma-separated rationals, got '1,1/0'"),
], ids=["rk4-h-inf", "rk4-h-minus-inf", "rk4-h-0", "rk4-h-minus-1", "rk4-h-word",
        "rk4-s0-nan", "rk4-s0-word", "rk4-range-nan", "rk4-range-one-end", "rk4-range-three-ends",
        "rk4-range-words", "audit-k-0", "audit-k-5", "audit-k-8", "fig1-F1-nan",
        "fig1-F1-comma", "fig1-F1-1/0"])
def test_bad_values_name_their_flag(capsys, argv, message):
    """Non-finite or malformed values exit 1 before any work, with a
    message naming the flag: no exit 0 on a one-point run, no invalid JSON
    `Infinity`, no raw unpacking error or internal member index."""
    got = main(argv)
    captured = capsys.readouterr()
    assert got == 1 and captured.out == ""
    assert captured.err.startswith("lieforge: error: ") and message in captured.err


def test_range_keeps_negative_ends(capsys):
    code, out = run(capsys, *INTEGRATE, "--range=-1:1", "--h", "0.5")
    assert code == 0 and json.loads(out)["points"] == 5


def test_subcommand_usage_errors_name_lieforge(capsys):
    assert main(["symmetries", "find", "--member", "2", "--degree", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lieforge: error: argument --degree: invalid int value")
