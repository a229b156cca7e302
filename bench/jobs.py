"""Seeded job lists for the three benchmark workloads.

A workload is built by `build(name, seed, n_decks)`: it generates every
input from `random.Random(f"{name}:{seed}")`, builds the systems, fields and
solution candidates the jobs need, and returns `n_decks` decks.  A deck is
a list of `Job`s; the timed loop runs every deck once, in order.  The same
seed always gives the same decks, and the first k decks do not depend on
how many are built.

A job's `run` makes the library calls one `lieforge` subcommand makes and
formats the text that command would print; it is the only timed part.  A
job's `check` is the oracle, run untimed afterwards.

Why the decks look the way they do: each deck has a fixed number of jobs
of each kind, and within a kind the seed draws parameters whose cost stays
within a narrow band.  So every seed gives a similar distribution of job
times, while the inputs themselves differ from seed to seed and, except
for the catalogue inputs of `exact` listed in README.md, from job to job
within a run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from lieforge import catalog
from lieforge import expr_core as ec
from lieforge import hierarchy as hi
from lieforge import liealg as la
from lieforge import parser as ps
from lieforge import reduce as red
from lieforge import symmetry as sy
from lieforge.systems import PDESystem

import oracles

WORKLOADS = ("discover", "numeric", "exact")
# Seconds one deck takes at the reference speed (measured over seeds 1-10,
# discover over seeds 1-5, on the reference machine); a run of --seconds
# runs seconds / DECK_SECONDS decks.
DECK_SECONDS = {"discover": 2.5, "numeric": 1.6, "exact": 0.95}


@dataclass
class Job:
    """One closed-loop job.

    `run()` returns (printed text, payload); `check(payload)` returns None or
    a failure message; `counts(payload)`, when given, returns exact work
    counts recorded next to the job's time.  A non-empty `known_defect` names the open defect
    that makes this job's check fail today; such a failure is reported on
    its own and does not count as failed."""

    label: str
    run: Callable[[], tuple[str, object]]
    check: Callable[[object], str | None]
    known_defect: str = ""
    counts: Callable[[object], dict] | None = None


# Exact work counts a job's `counts` may return; the per-layer metrics of
# the same names are their sums over a traced deck.
COUNT_NAMES = ["symmetry.determining_system.rows",
               "symmetry.determining_system.cols",
               "symmetry.determining_system.nnz",
               "linalg.rank", "linalg.nullity",
               "numerics.integrate_rk4.steps"]


def build(name: str, seed: int, n_decks: int) -> list[list[Job]]:
    rng = random.Random(f"{name}:{seed}")
    return {"discover": _discover, "numeric": _numeric,
            "exact": _exact}[name](rng, n_decks)


def _cycler(rng: random.Random, pool: list):
    """Draw from `pool` without replacement, reshuffling when exhausted, so
    every entry is drawn equally often over a run."""
    bag: list = []

    def draw():
        if not bag:
            bag.extend(rng.sample(pool, len(pool)))
        return bag.pop()

    return draw


def _unique(draw, seen=()):
    """Wrap `draw`, which returns (key, value), so that no key is returned
    twice and none in `seen`: the run never repeats an input."""
    seen = set(seen)

    def fresh():
        while True:
            key, value = draw()
            if key not in seen:
                seen.add(key)
                return value

    return fresh


def _ratio(rng: random.Random, top: int) -> Fraction:
    """Nonzero rational p/q with |p|, q <= top."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def _decks(rng: random.Random, n_decks: int, makers: list[tuple[Callable, int]]):
    decks = []
    for _ in range(n_decks):
        deck = [make() for make, count in makers for _ in range(count)]
        rng.shuffle(deck)
        decks.append(deck)
    return decks


# ---------------------------------------------------------------------------
# discover: ansatz_dictionary -> determining_system -> discover_symmetries
# ---------------------------------------------------------------------------

# (member, degree, trig, expw) -> dimension of the symmetry space inside the
# dictionary.  Member 5 is generated: complex_split(hierarchy_member(4)).
README_DEFAULTS = {(2, 2, 0, 0): 7, (3, 1, 2, 0): 7, (4, 2, 2, 1): 4}
# A deck is balanced around the member-3 default dictionary (about 0.1 s,
# twice per deck): the member-2 one and four small draws run faster, five
# large draws slower.  So the median job is a member-3 default-dictionary
# job for every seed, and the tail lies among the large jobs.  The member-4
# default (about 4 s) runs once per run, in the first deck.
DISCOVER_POOLS = {
    # about 0.015-0.05 s per job
    "small": {(2, 1, 0, 1): 6, (2, 1, 1, 0): 6, (3, 0, 0, 1): 4,
              (3, 0, 1, 0): 4, (3, 0, 2, 0): 6, (3, 1, 0, 0): 5,
              (4, 0, 0, 1): 4, (4, 0, 1, 0): 4},
    # about 0.38-0.5 s
    "large": {(2, 2, 1, 1): 13, (3, 1, 1, 1): 9, (4, 0, 2, 1): 4,
              (4, 2, 0, 1): 4, (4, 2, 1, 0): 4, (4, 3, 0, 0): 4,
              (5, 0, 1, 1): 6, (5, 1, 0, 1): 5, (5, 1, 1, 0): 5},
}
PICKS = {"small": 4, "large": 5}
# Time scales lam of the scaled systems u_t = lam K[u] are p/q with
# |p|, q <= SCALE_TOP.
SCALE_TOP = 12


def discover_systems() -> dict[int, object]:
    systems = {k: hi.catalogue_member(k) for k in (2, 3, 4)}
    v_rhs, w_rhs = hi.complex_split(hi.hierarchy_member(4))
    systems[5] = PDESystem(jet=hi.REAL_JET, rhs={"v": v_rhs, "w": w_rhs},
                           label="member 5 (generated)")
    return systems


def scaled_system(S, lam: Fraction):
    """u_t = lam K[u]: the system in the time t / lam.  A polynomial
    dictionary in (t, x) is closed under that change of time, so the
    dimension of the symmetry space inside it does not change."""
    q = ec.Expr.rational(lam)
    return PDESystem(jet=S.jet, rhs={dep: q * e for dep, e in S.rhs.items()},
                     label=f"{S.label}, time scaled by {lam}")


def _discover(rng: random.Random, n_decks: int) -> list[list[Job]]:
    """The README commands (default dictionaries on the printed systems) run
    once per run, in the first deck; every other job runs on a system with
    a seeded time scale, so no job repeats another's input."""
    systems = discover_systems()
    expected = dict(README_DEFAULTS)
    for pool in DISCOVER_POOLS.values():
        expected.update(pool)

    def draw_scale():
        lam = _ratio(rng, SCALE_TOP)
        return lam, lam

    scales = {key: _unique(draw_scale, {Fraction(1)}) for key in expected}

    def job(key, printed=False):
        lam = Fraction(1) if printed else scales[key]()
        S = systems[key[0]]
        return _find_job(S if printed else scaled_system(S, lam), key, lam,
                         expected[key])

    draws = {cls: _cycler(rng, sorted(pool)) for cls, pool in DISCOVER_POOLS.items()}
    decks = []
    for d in range(n_decks):
        deck = [job(key, printed=True) for key in README_DEFAULTS] if d == 0 else \
            [job((2, 2, 0, 0)), job((3, 1, 2, 0))]
        deck.append(job((3, 1, 2, 0)))
        deck += [job(draws[cls]()) for cls, n in PICKS.items() for _ in range(n)]
        rng.shuffle(deck)
        decks.append(deck)
    return decks


def _find_job(S, key, lam: Fraction, dim: int) -> Job:
    member, degree, trig, expw = key

    def run():
        basis = sy.ansatz_dictionary(hi.REAL_JET, degree, trig, expw)
        det = sy.determining_system(S, basis)
        fields = sy.discover_symmetries(S, basis, det)
        text = json.dumps({
            "member": member, "time_scale": str(lam),
            "ansatz": {"degree": degree, "trig": trig, "expw": expw,
                       "unknowns": det.n_unknowns, "rows": len(det.rows)},
            "dimension": len(fields),
            "basis": [sy.field_text(F) for F in fields]})
        return text, (det, fields)

    def check(payload):
        det, fields = payload
        bad = oracles.equal(len(fields), dim, "symmetry dimension")
        if bad:
            return bad
        columns = [(slot, k, e.terms()[0][0]) for slot, k, e in det.columns]
        vectors = []
        for F in fields:
            slots = {(kind, var): dict(coeff.terms())
                     for kind, var, coeff in F.coeff_vector_atoms()}
            vec = oracles.field_vector(slots, columns)
            if vec is None:
                return f"field {sy.field_text(F)} leaves the dictionary"
            vectors.append(vec)
        return (oracles.nullspace_annihilates(det.rows, vectors)
                or oracles.equal(oracles.rank(vectors), dim,
                                 "rank of the symmetry basis"))

    def counts(payload):
        det, fields = payload
        return {"symmetry.determining_system.rows": len(det.rows),
                "symmetry.determining_system.cols": det.n_unknowns,
                "symmetry.determining_system.nnz": sum(len(r) for r in det.rows),
                "linalg.rank": det.n_unknowns - len(fields),
                "linalg.nullity": len(fields)}

    label = f"find m{member} d{degree} t{trig} e{expw}"
    if lam != 1:
        label += f" lam={lam}"
    return Job(label, run, check, counts=counts)


# ---------------------------------------------------------------------------
# numeric: sampled verification, fig1, RK4, lifting
# ---------------------------------------------------------------------------

WAVE_SPEEDS = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4),
               Fraction(3, 2))
SN_MODULI = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10))
# Balanced around the rational-trig verifications (about 0.1 s): tan, sn
# and lift run faster, RK4, s11 and fig1 as fast or slower.
NUMERIC_DECK = [("s11", 2), ("tan", 2), ("rational-trig", 3), ("sn", 2),
                ("fig1", 1), ("rk4", 2), ("lift", 1)]


def _numeric(rng: random.Random, n_decks: int) -> list[list[Job]]:
    s33 = {c: red.system_33(c) for c in WAVE_SPEEDS}
    s322 = {c: red.system_322(c) for c in WAVE_SPEEDS}
    sn_sys = {k: red.f_branch_322_printed(-(1 + k * k)) for k in SN_MODULI}
    sn_cand = {k: red.sn_solution(float(k), printed_system=True) for k in SN_MODULI}
    member2 = hi.catalogue_member(2)
    s11, tan, rt = red.s11_solution(), red.tan_solution(), red.rational_trig_solution()

    def verify_job(label, S, cand, params, samples, s_range, check):
        def run():
            rep = red.verify_solution(S, cand, mode="numeric", param_values=params,
                                      s_range=s_range, samples=samples)
            return json.dumps({"system": S.label, "solution": cand.name,
                               "status": rep.statuses,
                               "max_residual": rep.max_residual,
                               "samples": rep.samples}), rep
        return Job(label, run, lambda rep: check(rep.max_residual))

    def s11_job():
        c = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2)))
        p = {"c": float(c), "F0": rng.uniform(0.5, 1.5), "F1": rng.uniform(0.0, 2.0)}
        n = rng.randint(15, 17)
        return verify_job(f"verify s11 c={c} n={n}", s33[c], s11, p, n,
                          (0.25, rng.uniform(6.0, 10.0)), oracles.order_one_residual)

    def tan_job():
        c = rng.choice(WAVE_SPEEDS)
        p = {"c": float(c), "s0": rng.uniform(-1.0, 1.0)}
        return verify_job(f"verify tan c={c}", s33[c], tan, p,
                          rng.randint(180, 220), (0.25, rng.uniform(6.0, 10.0)),
                          lambda r: oracles.below(r, 1e-9, "tan residual"))

    def rt_job():
        c = rng.choice(WAVE_SPEEDS)
        p = {"c": float(c), "G0": rng.uniform(-1.0, 1.0), "G1": rng.uniform(-0.5, 0.5)}
        return verify_job(f"verify rational-trig c={c}", s322[c], rt, p,
                          rng.randint(180, 220), (0.25, rng.uniform(6.0, 10.0)),
                          lambda r: oracles.below(r, 1e-9, "rational-trig residual"))

    def sn_job():
        k = rng.choice(SN_MODULI)
        return verify_job(f"verify sn k={k}", sn_sys[k], sn_cand[k], None,
                          rng.randint(180, 220), (0.0, rng.uniform(4.0, 8.0)),
                          lambda r: oracles.below(r, 1e-8, "sn residual"))

    def fig1_job():
        c = rng.choice((0.5, 1.0, 1.5))
        F0, F1 = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2.0)
        n_rows, n_feat = rng.randint(95, 105), rng.randint(120, 136)

        def run():
            rows = red.fig1_rows(c, F1, F0=F0, n=n_rows)
            feats = red.fig1_features(c, F1, F0=F0, n=n_feat)
            text = "\n".join(f"{s!r},{F!r},{G!r}" for s, F, G in rows)
            return text + "\n" + json.dumps(feats), (rows, feats)

        def check(payload):
            rows, feats = payload
            return (oracles.below(feats["periodicity_error"], 1e-6,
                                  "fig1 periodicity error")
                    or oracles.fig1_matches(rows, c, F0, F1))

        return Job(f"fig1 c={c} n={n_rows}/{n_feat}", run, check)

    def rk4_job():
        c = rng.choice(WAVE_SPEEDS)
        cf, s0, h = float(c), rng.uniform(-0.5, 0.5), rng.choice((5e-4, 1e-3))
        lo = s0 - 1.0 / cf
        state0 = {"F": 0.5 * cf, "G": oracles.tan_profile_G(lo, cf, s0)}

        def run():
            traj = red.rk4_from_system(s33[c], {}, state0, (lo, lo + 2000 * h), h)
            text = "\n".join(f"{s!r},{F!r},{G!r}" for s, F, G in
                             zip(traj.grid, traj.values["F"], traj.values["G"]))
            return text, traj

        def check(traj):
            return (oracles.equal(len(traj.grid), 2001, "RK4 grid points")
                    or oracles.rk4_matches_tan(traj.grid, traj.values["F"],
                                               traj.values["G"], cf, s0))

        def counts(traj):
            return {"numerics.integrate_rk4.steps": len(traj.grid) - 1}

        return Job(f"rk4 c={c} h={h}", run, check, counts=counts)

    def lift_job():
        c = float(rng.choice(WAVE_SPEEDS[:4]))
        s0, n = rng.uniform(-0.3, 0.3), rng.randint(22, 28)

        def run():
            f_fn, g_fn = red.tan_antiderivatives(c, s0)
            r = red.lift_and_check(member2, {"f": f_fn, "g": g_fn}, c, n=n)
            return repr(r), r

        return Job(f"lift c={c} n={n}", run,
                   lambda r: oracles.below(r, 1e-6, "lift residual"))

    kinds = {"s11": s11_job, "tan": tan_job, "rational-trig": rt_job,
             "sn": sn_job, "fig1": fig1_job, "rk4": rk4_job, "lift": lift_job}
    return _decks(rng, n_decks, [(kinds[k], n) for k, n in NUMERIC_DECK])


# ---------------------------------------------------------------------------
# exact: brackets under change of basis, generator and profile verdicts,
# audits and member splits
# ---------------------------------------------------------------------------

def _member3_fields():
    return [f if f.name != "G2b" else catalog.fields_member3_scaling()
            for f in catalog.fields_member3()]


ALGEBRAS = {"m2": catalog.fields_member2, "m3": _member3_fields,
            "m4": catalog.fields_member4, "r2": catalog.fields_reduced2,
            "r3": catalog.fields_reduced3}
# Signatures of the catalogued algebras (None: the basis does not close);
# a change of basis must leave them unchanged.
SIGNATURES = {
    "m2": la.AlgebraSignature(7, [6, 6], [6, 6], 2, False, False, False, 1),
    "m3": la.AlgebraSignature(7, [5, 3, 3], [5, 5], 1, False, False, False, 1),
    "m4": la.AlgebraSignature(4, [0], [0], 4, True, True, True, 4),
    "r2": None,
    "r3": la.AlgebraSignature(5, [3, 3], [3, 3], 2, False, False, False, 2),
}
# Fields that are not symmetries of members 2, 3 and 4; the residual is
# linear in the field, so any symmetry plus one of these is not one either.
PERTURBATIONS = [("xi", "x", "x^2"), ("xi", "t", "t*x"), ("eta", "v", "v^2"),
                 ("eta", "w", "x"), ("eta", "v", "t"), ("eta", "v", "w"),
                 ("eta", "w", "sin(v)")]
FAMILIES = [("member2-family", 2, catalog.family_member2, True),
            ("member2-family (printed)", 2, catalog.family_member2_printed, False),
            ("member2-family (partial)", 2, catalog.family_member2_partial, False),
            ("member3-family", 3, catalog.family_member3, True),
            ("member3-family (partial)", 3, catalog.family_member3_partial, False)]
RECIP_DEFECT = ("ROADMAP open item 4: is_zero on an expression with Recip "
                "atoms reports Nonzero for a true identity")
AUDIT_MATCH = {1: True, 2: True, 3: True, 4: False}
EXACT_DECK = [("brackets-small", 4), ("brackets-r2", 1), ("combo", 6),
              ("family", 3), ("profile", 3), ("audit", 2), ("split", 3)]


def _profiles():
    """(name, system, candidate, expected all-Zero verdict, known defect)."""
    c = ec.sym("c").as_expr()
    s, s0 = ec.sym("s").as_expr(), ec.sym("s0").as_expr()
    half = ec.Expr.rational(Fraction(1, 2))
    arg = half * c * (s - s0)
    tan_sincos = red.SolutionCandidate(
        name="tan (sin/cos)",
        exprs={"F": half * c, "G": -half * c * ec.sin_e(arg) / ec.cos_e(arg)})
    s33, s322 = red.system_33(), red.system_322()
    return [
        ("tan", s33, red.tan_solution(), True, ""),
        ("tan (sin/cos)", s33, tan_sincos, True, RECIP_DEFECT),
        ("rational-trig", s322, red.rational_trig_solution(), True, ""),
        ("rational-trig (printed)", s322,
         red.rational_trig_solution(printed=True), False, ""),
        ("member4-linear", red.reduced_system(4), red.linear_solution_member4(),
         True, ""),
        ("s11", s33, red.s11_solution(), False, ""),
    ]


def _change_basis(fields, rng: random.Random, additions: int):
    """Random unimodular integer change of basis: row additions and an
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
    return out, M


def _numeric_constants(table) -> list[list[list[complex]]]:
    point = {ec.sym("c"): 4.0, ec.root("c"): 2.0}
    n = table.dim
    return [[[ec.eval_numeric(table.c(i, j, k), point) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _exact(rng: random.Random, n_decks: int) -> list[list[Job]]:
    """Changes of basis, symmetry combinations and scaled families never
    repeat within a run; profiles, audits and splits are fixed catalogue
    inputs and do."""
    algebras = {k: f() for k, f in ALGEBRAS.items()}
    members = {k: hi.catalogue_member(k) for k in (1, 2, 3, 4)}
    member_fields = {2: algebras["m2"], 3: algebras["m3"], 4: algebras["m4"]}
    profiles = _profiles()
    families = [(name, m, make(), zero) for name, m, make, zero in FAMILIES]
    families += [(F.name, 1, F, True) for F in catalog.transport_family_examples()]

    def draw_basis(alg):
        # one row addition on the twelve-field algebra keeps its cost narrow
        basis, M = _change_basis(algebras[alg], rng, 1 if alg == "r2" else 2)
        return (alg, str(M)), (basis, M)

    new_basis = {alg: _unique(lambda alg=alg: draw_basis(alg)) for alg in algebras}

    def brackets_job(alg):
        basis, M = new_basis[alg]()
        want = SIGNATURES[alg]

        def run():
            table = la.structure_constants(basis)
            out = {"basis": [f"{F.name}: {sy.field_text(F)}" for F in basis],
                   "table": [f"[{basis[i].name},{basis[j].name}] = {txt}"
                             for i, j, txt in table.nonzero_entries()],
                   "closed": table.closed}
            sig = None
            if table.closed:
                out["jacobi"] = la.jacobi_check(table)
                sig = la.algebra_signature(table)
                out["signature"] = vars(sig)
            else:
                out["non_closing"] = [sy.field_text(Z) for _, Z in
                                      sorted(table.non_closing.items())]
            return json.dumps(out), (table, out.get("jacobi"), sig)

        def check(payload):
            table, jacobi, sig = payload
            bad = oracles.equal(table.closed, want is not None, f"{alg} closure")
            if bad or want is None:
                return bad
            return (oracles.equal(jacobi, True, f"{alg} jacobi_check")
                    or oracles.equal(sig, want, f"{alg} signature")
                    or oracles.jacobi_numeric(_numeric_constants(table)))

        return Job(f"brackets {alg} rows={M}", run, check)

    small_algebras = _cycler(rng, ["m2", "m3", "m4", "r3"])

    combo_members = _cycler(rng, [2, 3, 4])

    def draw_combo():
        member = combo_members()
        fields = member_fields[member]
        picks = rng.sample(range(len(fields)), rng.randint(2, 3))
        qs = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
              for _ in picks]
        X = None
        for k, q in zip(picks, qs):
            X = fields[k].scale(q) if X is None else X.add(fields[k].scale(q))
        perturbation = None
        if rng.random() < 0.5:
            kind, var, text = rng.choice(PERTURBATIONS)
            e = hi.REAL_JET.parse(text)
            N = sy.VectorField(hi.REAL_JET, **{kind: {var: e}})
            q = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
            X = X.add(N.scale(q))
            perturbation = (kind, var, text, q)
        label = f"combo m{member} {[fields[k].name for k in picks]}" + \
            (" perturbed" if perturbation else "")
        key = (member, tuple(picks), tuple(qs), perturbation)
        return key, _verify_generator_job(label, members[member], X,
                                          perturbation is None)

    combo_job = _unique(draw_combo)

    families_draw = _cycler(rng, families)

    def draw_family():
        # verify_generator is linear in the field: a multiple keeps the verdict
        name, member, X, zero = families_draw()
        q = _ratio(rng, 9)
        return (name, q), _verify_generator_job(f"family {name} x{q}",
                                                members[member], X.scale(q), zero)

    family_job = _unique(draw_family)

    profiles_draw = _cycler(rng, profiles)

    def profile_job():
        name, S, cand, zero, defect = profiles_draw()

        def run():
            rep = red.verify_solution(S, cand, mode="symbolic")
            return json.dumps({"system": S.label, "solution": cand.name,
                               "status": rep.statuses}), rep

        return Job(f"profile {name}", run,
                   lambda rep: oracles.equal(rep.zero, zero, f"{name} verdict"),
                   known_defect=defect)

    audits = _cycler(rng, sorted(AUDIT_MATCH))

    def audit_job():
        k = audits()

        def run():
            rep = hi.audit_member(k)
            return json.dumps({"member": k, "match": rep.match,
                               "delta": rep.itemized()}), rep

        return Job(f"audit {k}", run,
                   lambda rep: oracles.equal(rep.match, AUDIT_MATCH[k],
                                             f"audit {k} match"))

    splits = _cycler(rng, list(range(hi.MAX_MEMBER_N + 1)))

    def split_job():
        n = splits()
        point_seed = rng.random()

        def run():
            rhs = hi.hierarchy_member(n)
            v_rhs, w_rhs = hi.complex_split(rhs)
            return json.dumps({"n": n, "v_t": ps.expr_text(v_rhs),
                               "w_t": ps.expr_text(w_rhs)}), (rhs, v_rhs, w_rhs)

        def check(payload):
            rhs, v_rhs, w_rhs = payload
            return _check_split(rhs, v_rhs, w_rhs, random.Random(point_seed))

        return Job(f"split n={n}", run, check)

    kinds = {"brackets-small": lambda: brackets_job(small_algebras()),
             "brackets-r2": lambda: brackets_job("r2"),
             "combo": combo_job, "family": family_job, "profile": profile_job,
             "audit": audit_job, "split": split_job}
    return _decks(rng, n_decks, [(kinds[k], n) for k, n in EXACT_DECK])


def _verify_generator_job(label: str, S, X, zero: bool) -> Job:
    def run():
        rep = sy.verify_generator(S, X)
        return json.dumps({"field": sy.field_text(X), "status": rep.status,
                           "remainder": rep.remainders()}), rep

    return Job(label, run, lambda rep: oracles.equal(rep.zero, zero, "verdict"))


def _check_split(rhs, v_rhs, w_rhs, values: random.Random) -> str | None:
    """Evaluate the complex member at u = v + i w, ub = v - i w and compare
    with the split parts at the same real jet values."""
    idxs = sorted({atom.idx for e in (rhs, v_rhs, w_rhs) for atom in ec.atoms_of(e)
                   if isinstance(atom, ec.Jet)})
    point_u, point_vw = {}, {}
    for idx in idxs:
        a, b = values.uniform(-0.7, 0.7), values.uniform(-0.7, 0.7)
        point_u[ec.jet("u", idx)] = complex(a, b)
        point_u[ec.jet("ub", idx)] = complex(a, -b)
        point_vw[ec.jet("v", idx)] = a
        point_vw[ec.jet("w", idx)] = b
    return oracles.split_consistent(ec.eval_numeric(rhs, point_u),
                                    ec.eval_numeric(v_rhs, point_vw),
                                    ec.eval_numeric(w_rhs, point_vw))
