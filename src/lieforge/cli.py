"""Command-line surface with deterministic JSON/CSV outputs.

Each command returns its report and exit code; `main` writes the one JSON
document of a run, stamped with the schema.  Exit codes: 0 success, 1 usage
error, 2 verification failure (a nonzero residual where zero was expected, or
a numeric residual above tolerance).
Outputs are byte-identical for identical configurations; wall-clock timings
are only attached when --timings is passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import catalog, reduce as red
from .expr_core import DomainError, Expr, PoleError
from .hierarchy import (REAL_JET, audit_member, catalogue_member, complex_split,
                        hierarchy_member)
from .liealg import algebra_signature, jacobi_check, structure_constants
from .numerics import RK4_GUARD
from .parser import combo_text, expr_text
from .symmetry import (ansatz_dictionary, determining_system, discover_symmetries,
                       field_text, parse_field, verify_generator)

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"lieforge: error: {message}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_member(args) -> tuple[dict, int]:
    rhs = hierarchy_member(args.n)
    if args.split:
        v_rhs, w_rhs = complex_split(rhs)
        return {"n": args.n, "v_t": expr_text(v_rhs), "w_t": expr_text(w_rhs)}, 0
    return {"n": args.n, "u_t": expr_text(rhs)}, 0


def cmd_audit(args) -> tuple[dict, int]:
    rep = audit_member(args.k)
    return {"member": args.k, "match": rep.match, "delta": rep.itemized()}, 0


_MEMBER_DICTIONARIES = {1: (1, 0, 0), 2: (2, 0, 0), 3: (1, 2, 0), 4: (2, 2, 1)}


def cmd_symmetries_find(args) -> tuple[dict, int]:
    S = catalogue_member(args.member)
    degree, trig, expw = (d if a is None else a for a, d in zip(
        (args.degree, args.trig, args.expw), _MEMBER_DICTIONARIES[args.member]))
    t0 = time.perf_counter()
    basis = ansatz_dictionary(REAL_JET, degree, trig, expw)
    det = determining_system(S, basis)
    fields = discover_symmetries(S, basis, det)
    out = {
        "member": args.member,
        "ansatz": {"degree": degree, "trig": trig, "expw": expw,
                   "unknowns": det.n_unknowns, "rows": len(det.rows)},
        "dimension": len(fields),
        "basis": [field_text(F) for F in fields],
    }
    if args.timings:
        out["timings"] = {"seconds": round(time.perf_counter() - t0, 3)}
    return out, 0


def cmd_symmetries_verify(args) -> tuple[dict, int]:
    S = catalogue_member(args.member)
    with open(args.field, encoding="utf-8") as fh:
        X = parse_field(fh.read(), REAL_JET.with_constants(("c",)))
    rep = verify_generator(S, X)
    return ({"member": args.member, "status": rep.status,
             "remainder": rep.remainders()}, 0 if rep.zero else 2)


def _named_basis(member: int, reduced: bool):
    if reduced:
        fams = {2: catalog.fields_reduced2, 3: catalog.fields_reduced3}
        if member not in fams:
            raise ValueError("reduced bracket tables exist for members 2 and 3")
        return fams[member]()
    fields = {2: catalog.fields_member2, 3: catalog.fields_member3,
              4: catalog.fields_member4}[member]()
    if member == 3:
        # printed G2b is not a symmetry; the scaling field is
        fields = [f if f.name != "G2b" else catalog.fields_member3_scaling()
                  for f in fields]
    return fields


def cmd_brackets(args) -> tuple[dict, int]:
    basis = _named_basis(args.member, args.reduced)
    table = structure_constants(basis)
    out = {
        "member": args.member,
        "reduced": bool(args.reduced),
        "basis": [f"{F.name}: {field_text(F)}" for F in basis],
        "table": [f"[{basis[i].name},{basis[j].name}] = {txt}"
                  for i, j, txt in table.nonzero_entries()],
        "closed": table.closed,
    }
    if table.closed:
        out["jacobi"] = jacobi_check(table)
    else:
        # brackets of symmetries are again symmetries, but the catalogued
        # basis need not span them; report the escaping fields
        out["jacobi"] = None
        out["non_closing"] = [
            f"[{basis[i].name},{basis[j].name}] leaves the span: {field_text(Z)}"
            for (i, j), Z in sorted(table.non_closing.items())]
    if not args.reduced and args.member in (2, 3):
        printed = catalog.printed_table_member2() if args.member == 2 \
            else catalog.printed_table_member3()
        out["printed_table_disagreements"] = _printed_disagreements(table, printed)
    out["signature"] = dataclasses.asdict(algebra_signature(table)) \
        if table.closed else None
    return out, 0


def _printed_disagreements(table, printed_entries) -> list[str]:
    names = {n: k for k, n in enumerate(table.names)}
    out = []
    for a, b, combo in printed_entries:
        missing = [n for n in dict.fromkeys((a, b, *combo)) if n not in names]
        if missing:
            out.append(f"[{a},{b}]: printed {_combo_dict_text(combo)}, "
                       f"not in the computed basis: {', '.join(missing)}")
            continue
        row = table.constants.get((names[a], names[b]), {})
        if row != {names[n]: Expr.rational(q) for n, q in combo.items() if q}:
            out.append(f"[{a},{b}]: printed {_combo_dict_text(combo)}, computed "
                       f"{combo_text((q, table.names[k]) for k, q in row.items())}")
    return out


def _combo_dict_text(combo: dict) -> str:
    return " + ".join(n if q == 1 else f"({q})*{n}" for n, q in combo.items()) or "0"


def cmd_classify(args) -> tuple[dict, int]:
    """The `brackets` report without its basis and table; exit 2 when the
    table does not close."""
    doc, _ = cmd_brackets(args)
    return ({k: doc[k] for k in ("member", "reduced", "closed", "jacobi", "signature")},
            0 if doc["closed"] else 2)


def cmd_reduce(args) -> tuple[dict, int]:
    c = _c_arg(args.c)
    S = red.reduced_system(args.member, c)
    if args.order_reduce:
        S = red.order_reduce(S)
    return {"member": args.member, "c": str(c),
            "order_reduced": bool(args.order_reduce),
            "equations": [expr_text(e) + " = 0" for e in S.equations_zero()]}, 0


def _c_arg(text: str, command: str = ""):
    """The wave speed of `--c`: a rational, or the symbol name "c" unless a
    `command` that evaluates at a number is named."""
    if text == "c" and command:
        raise ValueError(f"{command} needs a rational --c, got the symbol c")
    try:
        return "c" if text == "c" else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--c must be 'c' or a rational, got {text!r}") from None


def _speed_error(exc: ArithmeticError, text: str, where: str) -> ValueError:
    """The error of a `--c` at which `where` overflows or is singular."""
    kind = "an overflowing" if isinstance(exc, OverflowError) else "a degenerate"
    return ValueError(f"--c {text} is {kind} wave speed for {where}: {exc}")


def _float_c(c: Fraction, text: str) -> float:
    """The float of a rational `--c`, or a ValueError naming the flag."""
    try:
        return float(c)
    except OverflowError:
        raise ValueError(f"--c {text} is an overflowing wave speed: "
                         f"it has no float value") from None


_SYSTEMS = {
    "3.2": lambda c: red.reduced_system(2, c),
    "3.3": red.system_33,
    "3.20": lambda c: red.reduced_system(3, c),
    "3.22": red.system_322,
    "3.22-printed": red.system_322_printed,
    "3.22-F": red.f_branch_322,
    "3.22-F-printed": red.f_branch_322_printed,
    "4.3": lambda c: red.reduced_system(4, c),
}


_SOLUTIONS = {
    "tan": lambda args: red.tan_solution(),
    "s11": lambda args: red.s11_solution(),
    "rational-trig": lambda args: red.rational_trig_solution(),
    "rational-trig-printed": lambda args: red.rational_trig_solution(printed=True),
    "sn": lambda args: red.sn_solution(0.9 if args.k is None else args.k,
                                       printed_system="printed" in args.system),
    "linear4": lambda args: red.linear_solution_member4(),
}


def cmd_verify_solution(args) -> tuple[dict, int]:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    mode = args.mode
    if args.k is not None and args.solution != "sn":
        raise ValueError(f"--k does not apply to --solution {args.solution}: "
                         f"only sn has a modulus")
    try:
        cand = _SOLUTIONS[args.solution](args)
    except ValueError as exc:  # an sn modulus outside [0, 1)
        raise ValueError(f"--k {args.k}: {exc}") from None
    c = _c_arg(args.c)
    if args.solution == "sn":  # the profile fixes c
        if args.c != "c":
            raise ValueError(f"--c does not apply to --solution sn: the profile "
                             f"fixes c = {cand.params['c']:g}")
        c = Fraction(cand.params["c"]).limit_denominator(10 ** 9)
    S = _SYSTEMS[args.system](c)
    params = {"c": _float_c(c, args.c)} if mode == "numeric" and args.c != "c" else None
    try:
        if mode == "symbolic":
            try:
                cand = red.candidate_at(cand, c)
            except DomainError:  # sqrt(c) of a profile that holds it
                raise ValueError(f"--c must be the square of a rational for "
                                 f"--solution {args.solution}, got {args.c}") from None
        rep = red.verify_solution(S, cand, mode=mode, param_values=params)
    except (ZeroDivisionError, PoleError, OverflowError) as exc:  # singular or huge at c
        if args.c == "c":
            raise
        raise _speed_error(exc, args.c, f"--solution {args.solution}") from None
    out = {"system": S.label, "solution": cand.name,
           "mode": mode, "status": rep.statuses}
    if rep.max_residual is not None:  # null when not finite: JSON has no inf
        out["max_residual"] = rep.max_residual if rep.max_residual < math.inf else None
        out["samples"] = rep.samples
    if rep.notes:
        out["notes"] = rep.notes
    ok = rep.zero if mode == "symbolic" else (rep.max_residual or 0) < args.tol
    return out, 0 if ok else 2


def _finite(text: str) -> float:
    """The finite float of --s0, --h or an end of --range."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _step(text: str) -> float:
    """The positive finite float of --h."""
    if not (x := _finite(text)) > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return x


def _span(text: str) -> tuple[float, float]:
    """The LO:HI of --range."""
    try:
        lo, hi = text.split(":")
        float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be LO:HI, got {text!r}") from None
    return _finite(lo), _finite(hi)


def cmd_integrate(args) -> tuple[dict, int]:
    lo, hi = args.range
    c = _c_arg(args.c, "integrate")
    half_c = 0.5 * _float_c(c, args.c)
    # --from tan: F = c/2, G = -(c/2) tan((c/2)(s - s0)) at s = lo; a start
    # past the guard would stop RK4 before its first step
    if abs(half_c) > RK4_GUARD:
        raise ValueError(f"--c {args.c} is an overflowing wave speed for integrate: "
                         f"F = c/2 = {half_c:g} starts past the RK4 guard {RK4_GUARD:g}")
    phase = half_c * (lo - args.s0)
    G = -half_c * math.tan(phase) if math.isfinite(phase) else math.nan
    if not abs(G) <= RK4_GUARD:
        raise ValueError(f"--s0 {args.s0!r} starts integrate at G = {G:g}, "
                         f"not within the RK4 guard {RK4_GUARD:g}")
    S = _SYSTEMS[args.system](c)
    state0 = {"F": half_c, "G": G}
    try:
        traj = red.rk4_from_system(S, {}, state0, (lo, hi), args.h)
    except OverflowError as exc:  # the start is within the guard: the step overflows
        raise ValueError(f"--h {args.h!r} is an overflowing step for "
                         f"integrate: {exc}") from None
    rows = [(s, traj.values["F"][i], traj.values["G"][i])
            for i, s in enumerate(traj.grid)]
    if args.csv:
        red.emit_series_csv(rows, args.csv)
    return {"system": S.label, "points": len(rows), "h": args.h,
            "csv": args.csv or None}, 0


# Most `--F1` values `fig1` takes: each one samples `--n` points for its
# series and about 2,100 more for its features.
MAX_FIG1_SERIES = 100


def _temp_beside(path: str) -> str:
    """A new empty file in the directory of path, with the mode `open` gives."""
    fd, tmp = tempfile.mkstemp(".tmp", os.path.basename(path) + ".",
                               os.path.dirname(path) or ".")
    os.close(fd)
    os.umask(mask := os.umask(0o22))
    os.chmod(tmp, 0o666 & ~mask)
    return tmp


def cmd_fig1(args) -> tuple[dict, int]:
    c = _float_c(_c_arg(args.c, "fig1"), args.c)
    if c == 0:
        raise ValueError("--c must be nonzero for fig1: the period is 2 pi / c")
    f1_texts = args.F1.split(",")
    if len(f1_texts) > MAX_FIG1_SERIES:
        raise ValueError(f"fig1 takes at most {MAX_FIG1_SERIES} --F1 values, "
                         f"got {len(f1_texts)}")
    try:
        f1_values = [float(Fraction(x)) for x in f1_texts]
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"--F1 takes comma-separated rationals, got {args.F1!r}") from None
    paths = [args.csv] * len(f1_values)
    if args.csv and len(f1_values) > 1:
        stem, dot, ext = args.csv.rpartition(".")
        paths = [f"{stem or ext}_F1_{f1:g}.{ext}" if dot else f"{args.csv}_F1_{f1:g}"
                 for f1 in f1_values]
        first = {}
        for k, path in enumerate(paths):
            if (j := first.setdefault(path, k)) != k:
                raise ValueError(f"--F1 {f1_texts[j]} and {f1_texts[k]} would both write {path}")
    # each series is written beside its target, and moved there once all are
    reports, temps = [], []
    try:
        for text, f1, path in zip(f1_texts, f1_values, paths):
            rows = red.fig1_rows(c, f1, n=args.n)
            if path:
                temps.append(_temp_beside(path))
                red.emit_series_csv(rows, temps[-1])
            feats = red.fig1_features(c, f1)
            reports.append({"F1": f1, "csv": path or None,
                            "periodicity_error": feats["periodicity_error"],
                            "dFre_sign_changes_per_period":
                                feats["dFre_sign_changes_per_period"]})
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in filter(os.path.exists, temps):  # those not moved to their target
            os.remove(tmp)
        if isinstance(exc, (PoleError, OverflowError)):  # singular or huge at c, F1
            raise _speed_error(exc, args.c, f"fig1 at --F1 {text}") from None
        raise
    return {"c": c, "series": reports}, 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="lieforge", description=(
        "Symbolic point-symmetry engine and travelling-wave reduction toolkit "
        "for the complex Burgers-type hierarchy: generate members, discover "
        "and verify symmetries, compute bracket tables, reduce to wave-profile "
        "systems, and check closed-form solutions."))
    sub = p.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("member", help="generate hierarchy member n (complex rhs)")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--split", action="store_true",
                   help="print the real/imaginary system")
    m.set_defaults(fn=cmd_member)

    a = sub.add_parser("audit", help="compare generated member against the "
                                     "built-in catalogue")
    a.add_argument("--k", type=int, required=True, choices=(1, 2, 3, 4))
    a.set_defaults(fn=cmd_audit)

    s = sub.add_parser("symmetries", help="discover or verify point symmetries")
    ssub = s.add_subparsers(dest="subcmd", required=True)
    f = ssub.add_parser("find", help="ansatz-based discovery (exact nullspace)")
    f.add_argument("--member", type=int, required=True, choices=(1, 2, 3, 4))
    f.add_argument("--degree", type=int, default=None)
    f.add_argument("--trig", type=int, default=None)
    f.add_argument("--expw", type=int, default=None)
    f.add_argument("--timings", action="store_true")
    f.set_defaults(fn=cmd_symmetries_find)
    v = ssub.add_parser("verify", help="verify a generator from a field file")
    v.add_argument("--member", type=int, required=True, choices=(1, 2, 3, 4))
    v.add_argument("--field", required=True, help="file with xi_*/eta_* lines")
    v.set_defaults(fn=cmd_symmetries_verify)

    b = sub.add_parser("brackets", help="bracket table, Jacobi check, signature")
    b.add_argument("--member", type=int, required=True, choices=(2, 3, 4))
    b.add_argument("--reduced", action="store_true",
                   help="use the wave-profile algebra of the reduced system")
    b.set_defaults(fn=cmd_brackets)

    cl = sub.add_parser("classify", help="structural signature of the algebra")
    cl.add_argument("--member", type=int, required=True, choices=(2, 3, 4))
    cl.add_argument("--reduced", action="store_true")
    cl.set_defaults(fn=cmd_classify)

    r = sub.add_parser("reduce", help="travelling-wave reduction")
    r.add_argument("--member", type=int, required=True, choices=(1, 2, 3, 4))
    r.add_argument("--c", default="c", help="wave speed (rational or 'c')")
    r.add_argument("--order-reduce", action="store_true")
    r.set_defaults(fn=cmd_reduce)

    vs = sub.add_parser("verify-solution", help="check a closed form against a "
                                                "reduced system")
    vs.add_argument("--system", required=True, choices=sorted(_SYSTEMS))
    vs.add_argument("--solution", required=True, choices=sorted(_SOLUTIONS))
    vs.add_argument("--c", default="c")
    vs.add_argument("--mode", choices=("symbolic", "numeric"), default="numeric")
    vs.add_argument("--k", type=float, help="elliptic modulus of sn (default 0.9)")
    vs.add_argument("--tol", type=float, default=1e-9)
    vs.set_defaults(fn=cmd_verify_solution)

    it = sub.add_parser("integrate", help="RK4 integration of a reduced system")
    it.add_argument("--system", required=True, choices=sorted(_SYSTEMS))
    it.add_argument("--c", required=True)
    it.add_argument("--from", dest="init_from", required=True, choices=("tan",))
    it.add_argument("--s0", type=_finite, default=0.0)
    it.add_argument("--h", type=_step, default=1e-3)
    it.add_argument("--range", type=_span, default="0:2", help="LO:HI")
    it.add_argument("--csv", default=None)
    it.set_defaults(fn=cmd_integrate)

    fg = sub.add_parser("fig1", help="wave-profile series CSV and features")
    fg.add_argument("--c", default="1")
    fg.add_argument("--F1", default="0,1,2")
    fg.add_argument("--n", type=int, default=1000)
    fg.add_argument("--csv", default=None)
    fg.set_defaults(fn=cmd_fig1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc, code = args.fn(args)
        sys.stdout.write(json.dumps({"schema": SCHEMA, **doc}, indent=2) + "\n")
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"lieforge: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
