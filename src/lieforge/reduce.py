"""Similarity reduction along translation generators, autonomous order
reduction, elimination to the second-order wave-profile equation, closed-form
solution verification (exact and sampled), solution lifting back to the PDE,
and CSV emission for wave-profile series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import cache
from operator import mul, sub

from .expr_core import (
    DomainError, Expr, Func, I, Jet, PoleError, Sym, _memo, _mono_key, atoms_of,
    collect_terms, NumericPlan, cos_e, derive, exp_e, jet, recip_e, root, sin_e,
    sqrt_e, substitute, sym, tan_e,
)
from .hierarchy import catalogue_member
from .numerics import Trajectory, integrate_rk4, sn_function
from .linalg import cleared, primitive, solve_exact
from .symmetry import VectorField
from .systems import JetSpec, ODESystem, PDESystem, total_derivative

__all__ = [
    "PivotDegenerateError", "travelling_wave_reduce", "order_reduce",
    "reduced_system", "system_33", "system_322", "system_322_printed",
    "f_branch_322", "f_branch_322_printed",
    "eliminate_to_second_order", "printed_second_order", "computed_second_order",
    "equal_up_to_factor",
    "SolutionCandidate", "candidate_at", "VerifyReport", "verify_solution",
    "tan_solution",
    "tan_antiderivatives", "s11_solution", "rational_trig_solution", "sn_solution",
    "linear_solution_member4", "reconstruct_G", "rk4_from_system",
    "lift_and_check", "emit_series_csv", "fig1_rows", "fig1_features",
    "fd_weights",
]

ODE_JET = JetSpec(("s",), ("f", "g"), constants=("c",))
ODE_JET_FG = JetSpec(("s",), ("F", "G"), constants=("c",))
ODE_JET_F = JetSpec(("s",), ("F",), constants=("c",))


class PivotDegenerateError(DomainError):
    """Division pivot vanished identically (e.g. 2F - c on the F = c/2 branch)."""


# ---------------------------------------------------------------------------
# travelling-wave reduction
# ---------------------------------------------------------------------------

_DEP_MAP = {"v": "f", "w": "g"}


def travelling_wave_reduce(S: PDESystem, X: VectorField) -> ODESystem:
    """Reduce S by the constant-coefficient generator X = xi1 d_t + xi2 d_x +
    eta^A d_A: substitute u^A(t,x) = f^A(s) + (eta^A/xi1) t with s = x - c t,
    c = xi2/xi1, and solve the reduced equations for their highest derivatives."""
    t_var, x_var = S.jet.independents
    for _, var, coeff in X.coeff_vector_atoms():
        for a in atoms_of(coeff):
            if isinstance(a, (Jet, Func)) or isinstance(a, Sym) and a.name in (t_var, x_var):
                raise DomainError(f"the coefficient of d_{var} holds {a!r}: a "
                                  f"travelling-wave generator has constant coefficients")
    if X.xi_of(t_var).is_zero():
        raise DomainError(f"the generator has no d_{t_var} part: no travelling wave")
    inv1 = recip_e(X.xi_of(t_var))
    c = X.xi_of(x_var) * inv1
    drift = {dep: X.eta_of(dep) * inv1 for dep in S.jet.dependents
             if not X.eta_of(dep).is_zero()}
    svar = ODE_JET.independents[0]
    bindings = dict.fromkeys([a for phi in S.rhs.values() for a in atoms_of(phi)
                              if isinstance(a, Jet)] + [jet(d, (t_var,)) for d in S.jet.dependents])
    for a in list(bindings):
        p = a.idx.count(t_var)
        q = a.idx.count(x_var)
        new_dep = _DEP_MAP.get(a.dep, a.dep)
        val = (-c) ** p * jet(new_dep, (svar,) * (p + q)).as_expr()
        if a.dep in drift and a.idx in ((), (t_var,)):  # u = f + drift t
            val = val + drift[a.dep] * (Expr.one() if a.idx else sym(t_var).as_expr())
        bindings[a] = val

    equations = []
    for dep in S.jet.dependents:
        phi_sub = substitute(S.rhs[dep], bindings)
        lhs_sub = bindings[jet(dep, (t_var,))]
        E = phi_sub - lhs_sub
        for a in atoms_of(E):
            if isinstance(a, Sym) and a.name in (t_var, x_var):
                raise DomainError("reduction left explicit (t, x) dependence")
        equations.append(_contract_common_jet(E))
    names = (a.name for E in equations for a in atoms_of(E) if isinstance(a, Sym))
    jet_out = replace(ODE_JET, dependents=tuple(_DEP_MAP.get(d, d) for d in S.jet.dependents))
    return _solve_leads(equations, jet_out.with_constants(names), f"TW reduction of {S.label}")


def _contract_common_jet(E: Expr) -> Expr:
    """If every term shares one jet monomial, the equation contracts to that
    monomial (a nonzero constant multiplier is dropped)."""
    jet_parts = {tuple((a, k) for a, k in m if isinstance(a, Jet)) for m in E._terms}
    part = jet_parts.pop() if len(jet_parts) == 1 else ()
    return Expr({part: 1}) if part else E


def _leading_jet(E: Expr) -> Jet:
    best = max((a for a in atoms_of(E, recurse=False) if isinstance(a, Jet)),
               key=lambda a: a.order, default=None)
    if best is None:
        raise DomainError("reduced equation carries no jet coordinate")
    return best


def _solve_leads(equations: list[Expr], jet_out: JetSpec, label: str) -> ODESystem:
    leads: dict[str, tuple[int, Expr]] = {}
    for E in equations:
        if E.is_zero():  # identically satisfied, e.g. at a characteristic speed
            continue
        lead = _leading_jet(E)
        cls = collect_terms(E, [Expr.one(), lead.as_expr()])
        coeff = cls[lead.as_expr()]
        rest = cls[Expr.one()]
        if not coeff.is_rational():
            raise DomainError(f"lead {lead!r} has non-constant coefficient")
        if lead.dep in leads:
            raise DomainError(f"two equations solve for {lead.dep}")
        leads[lead.dep] = (lead.order, rest * Expr.rational(-1 / coeff.as_rational()))
    return ODESystem(jet=jet_out, leads=leads, label=label)


def order_reduce(S: ODESystem) -> ODESystem:
    """Autonomous order reduction: rename every dependent to upper case
    (f' -> F, g' -> G) and drop one order.  Fails when an undifferentiated
    dependent is present."""
    svar = S.svar
    bindings = {}
    for dep, (m, rhs) in S.leads.items():
        for a in atoms_of(rhs) | {jet(dep, (svar,) * m)}:
            if isinstance(a, Jet):
                if a.order == 0:
                    raise DomainError(
                        f"undifferentiated dependent {a.dep} blocks order reduction")
                bindings[a] = jet(a.dep.upper(), (svar,) * (a.order - 1)).as_expr()
    leads = {dep.upper(): (m - 1, substitute(rhs, bindings))
             for dep, (m, rhs) in S.leads.items()}
    new_jet = JetSpec((svar,), tuple(d.upper() for d in S.jet.dependents),
                      S.jet.constants)
    return ODESystem(jet=new_jet, leads=leads,
                     label=f"order-reduced {S.label}")


# ---------------------------------------------------------------------------
# named reduced systems
# ---------------------------------------------------------------------------

def _c_expr(c) -> Expr:
    """The wave speed as an expression: an Expr, a symbol name or a rational."""
    if isinstance(c, Expr):
        return c
    if isinstance(c, str):
        return sym(c).as_expr()
    return Expr.rational(c)


def reduced_system(member: int, c="c") -> ODESystem:
    """Reduction of catalogue member `member` by d_t + c d_x."""
    S = catalogue_member(member)
    t_var, x_var = S.jet.independents
    return travelling_wave_reduce(S, VectorField(S.jet, {t_var: Expr.one(),
                                                         x_var: _c_expr(c)}))


def system_33(c="c") -> ODESystem:
    """First-order wave-profile pair of the second member."""
    out = order_reduce(reduced_system(2, c))
    out.label = "(3.3)"
    return out


def system_322(c="c") -> ODESystem:
    """Second-order wave-profile pair of the third member, as computed from
    the third-order reduction (the c-terms carry + signs)."""
    out = order_reduce(reduced_system(3, c))
    out.label = "(3.22)"
    return out


def system_322_printed(c="c") -> ODESystem:
    """The pair exactly as printed, with -cF and -cG; inconsistent with the
    third-order reduction but kept for comparison and for the elliptic
    branch as stated."""
    return _second_order(ODE_JET_FG, "(3.22) as printed", c,
                         F="c*F + F^3 - 3*F*G^2 - 3*G*F' - 3*F*G'",
                         G="c*G + 3*F^2*G - G^3 + 3*F*F' - 3*G*G'")


def f_branch_322(c="c") -> ODESystem:
    """G = 0 branch of the computed (3.22): F'' = F^3 - c F."""
    return _second_order(ODE_JET_F, "(3.22) F-branch", c, F="F^3 - c*F")


def f_branch_322_printed(c="c") -> ODESystem:
    """G = 0 branch of the printed (3.22): F'' = c F + F^3."""
    return _second_order(ODE_JET_F, "(3.22) F-branch as printed", c, F="c*F + F^3")


def _second_order(jet_spec: JetSpec, label: str, c, **rhs: str) -> ODESystem:
    """The system u'' = rhs_u, each rhs written in the symbol c, at speed c."""
    return ODESystem(jet=jet_spec, label=label,
                     leads={u: (2, _parse_at_c(jet_spec, text, c)) for u, text in rhs.items()})


def _parse_at_c(jet_spec: JetSpec, text: str, c) -> Expr:
    """Parse text, written in the symbol c, and set c to the given speed."""
    return substitute(jet_spec.parse(text), {sym("c"): _c_expr(c)})


# ---------------------------------------------------------------------------
# elimination to the second-order wave-profile equation
# ---------------------------------------------------------------------------

def eliminate_to_second_order(S: ODESystem) -> Expr:
    """From the first-order pair: solve the F-equation for G = -F'/(2F - c),
    substitute into the derivative of that equation combined with the
    G-equation; returns the polynomial form (multiplied through by the
    pivot squared)."""
    if sorted(S.leads) != ["F", "G"] or S.order != 1:
        raise DomainError("elimination expects the first-order (F, G) pair")
    svar = S.svar
    G0 = jet("G")
    F1 = jet("F", (svar,))
    G1 = jet("G", (svar,))
    eq_F = F1.as_expr() - S.leads["F"][1]   # = 0
    eq_G = G1.as_expr() - S.leads["G"][1]   # = 0
    cls = collect_terms(eq_F, [Expr.one(), G0.as_expr()])
    pivot = cls[G0.as_expr()]          # 2F - c
    numer = cls[Expr.one()]            # F'
    if pivot.is_zero():
        raise PivotDegenerateError("pivot coefficient of G vanishes identically")
    dEF = substitute(total_derivative(eq_F, svar), {G1: G1.as_expr() - eq_G})  # G' on solutions
    G0_sq = Expr({((G0, 2),): 1})
    cls2 = collect_terms(dEF, [Expr.one(), G0.as_expr(), G0_sq])
    a0 = cls2[Expr.one()]
    a1 = cls2[G0.as_expr()]
    a2 = cls2[G0_sq]
    lam = equal_up_to_factor(a2, pivot)
    if lam is not None:
        # a2 is a rational multiple of the pivot: minimal polynomial form
        result = a0 * pivot - a1 * numer + Expr.rational(lam) * numer * numer
    else:
        result = a0 * pivot * pivot - a1 * pivot * numer + a2 * numer * numer
    return _normalize_equation(result)


def _normalize_equation(E: Expr) -> Expr:
    """The primitive part (integer terms with gcd 1, by `cleared`), signed so
    that the first term in the highest derivative is positive."""
    if E.is_zero():
        return E
    lead = _leading_jet(E)
    first = min((m for m in E._terms if any(a is lead for a, _ in m)), key=_mono_key)
    return Expr(primitive(cleared(E._terms)[0], first))


def printed_second_order(c="c") -> Expr:
    """The printed wave-profile equation multiplied through by (2F - c):
    (2F - c) F'' + 3 F'^2 - F (F - c)(2F - c)^2."""
    return _normalize_equation(_parse_at_c(
        ODE_JET_F, "(2*F - c)*F'' + 3*F'^2 - F*(F - c)*(2*F - c)^2", c))


def computed_second_order(c="c") -> Expr:
    return eliminate_to_second_order(system_33(c))


def equal_up_to_factor(e1: Expr, e2: Expr):
    """Rational lambda with e1 = lambda * e2, or None."""
    if e1.is_zero() and e2.is_zero():
        return Fraction(1)
    if e1.is_zero() or e2.is_zero():
        return None
    q1 = e1._terms.get(e2._lead_mono())
    if q1 is None:
        return None
    lam = Fraction(q1) / e2._lead_coeff()
    return lam if (e1 - e2 * Expr.rational(lam)).is_zero() else None


# ---------------------------------------------------------------------------
# solution candidates
# ---------------------------------------------------------------------------

@dataclass
class SolutionCandidate:
    """Closed-form (or sampled) wave profiles for a reduced system.

    `exprs` maps dependents to expressions in s and parameter symbols;
    `callables` supplies numeric-only dependents (derivatives by central
    differences).  `constraints` are parameter relations that must hold."""

    name: str
    exprs: dict[str, Expr] = dc_field(default_factory=dict)
    callables: dict = dc_field(default_factory=dict)
    constraints: list[Expr] = dc_field(default_factory=list)
    params: dict[str, complex] = dc_field(default_factory=dict)
    pole_denoms: list[Expr] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)


def candidate_at(cand: SolutionCandidate, c) -> SolutionCandidate:
    """The candidate at wave speed c: c, and sqrt(c) where the profile holds
    it, substituted into its expressions, constraints and pole denominators."""
    ce = _c_expr(c)
    bind = {sym("c"): ce}
    if any(root("c") in atoms_of(e) for e in
           [*cand.exprs.values(), *cand.constraints, *cand.pole_denoms]):
        bind[root("c")] = sqrt_e(ce)
    return replace(
        cand, exprs={k: substitute(e, bind) for k, e in cand.exprs.items()},
        constraints=[substitute(e, bind) for e in cand.constraints],
        pole_denoms=[substitute(e, bind) for e in cand.pole_denoms])


def tan_solution() -> SolutionCandidate:
    """F = c/2, G = -(c/2) tan((c/2)(s - s0)); exact on the first-order pair."""
    c, s0, s = (sym(n).as_expr() for n in ("c", "s0", "s"))
    half = Expr.rational(Fraction(1, 2))
    arg = half * c * (s - s0)
    return SolutionCandidate(
        name="tan",
        exprs={"F": half * c, "G": -half * c * tan_e(arg)},
        pole_denoms=[cos_e(arg)],
        params={"c": 1.0, "s0": 0.0},
    )


def tan_antiderivatives(c: float, s0: float = 0.0):
    """f, g with f' = F, g' = G for the tan branch: f = (c/2) s,
    g = ln|cos((c/2)(s - s0))|."""
    def f_fn(s):
        return 0.5 * c * s

    def g_fn(s):
        return math.log(abs(math.cos(0.5 * c * (s - s0))))

    return f_fn, g_fn


def s11_solution() -> SolutionCandidate:
    """The printed two-parameter closed form: F as stated (with
    q = exp(-i c s)) and G reconstructed through G = -F'/(2F - c).

    Direct substitution shows the printed F does not satisfy the pair (the
    residual of the G-equation is O(1)); the candidate is kept verbatim so
    the verifier reports the actual residual."""
    c = sym("c").as_expr()
    F0 = sym("F0").as_expr()
    F1 = sym("F1").as_expr()
    s = sym("s").as_expr()
    q2 = exp_e(Expr.rational(-2) * I.as_expr() * c * s)
    q1 = exp_e(Expr.rational(-1) * I.as_expr() * c * s)
    D = F0 * (q2 - F1 * c) ** 2 - Expr.rational(16) * c * c
    N = D - Expr.rational(8) * c * F0 * q1
    F = Expr.rational(Fraction(1, 2)) * c * N / D
    G = reconstruct_G(F, c)
    return SolutionCandidate(
        name="s11", exprs={"F": F, "G": G},
        params={"c": 1.0, "F0": 1.0, "F1": 0.0},
        pole_denoms=[D],
        notes=["printed closed form; fails the reduced pair by O(1)"])


def reconstruct_G(F: Expr, c: Expr) -> Expr:
    """G = -F'/(2F - c); raises PivotDegenerateError on the F = c/2 branch."""
    pivot = Expr.rational(2) * F - c
    if pivot.is_zero():
        raise PivotDegenerateError("2F - c vanishes identically for this profile")
    return -derive(F, sym("s")) / pivot


def rational_trig_solution(printed: bool = False) -> SolutionCandidate:
    """F = 0 with the log-derivative trig profile for G on the computed
    (3.22).  The printed numerator sign fails; the corrected profile
    G = sqrt(c) (G0 cos - sin)/(G0 sin + cos + G1) verifies."""
    rc = sqrt_e(sym("c").as_expr())
    s = sym("s").as_expr()
    G0 = sym("G0").as_expr()
    G1 = sym("G1").as_expr()
    S, C = sin_e(rc * s), cos_e(rc * s)
    D = G0 * S + C + G1
    numer = (S - G0 * C) if printed else (G0 * C - S)
    name = "rational-trig (printed)" if printed else "rational-trig"
    notes = ["numerator sign as printed; fails verification"] if printed else \
        ["numerator sign corrected relative to the printed solution"]
    return SolutionCandidate(name=name,
                             exprs={"F": Expr.zero(), "G": rc * numer / D},
                             params={"c": 1.0, "G0": 0.5, "G1": 0.25},
                             pole_denoms=[D], notes=notes)


def sn_solution(k: float, printed_system: bool = True) -> SolutionCandidate:
    """G = 0, F = F0 sn(s, k) with the derived parameter constraints
    F0^2 = 2 k^2 and c = -(1 + k^2) on the printed F-branch
    (c = +(1 + k^2) on the computed branch)."""
    F0 = math.sqrt(2.0) * k
    c = -(1.0 + k * k) if printed_system else (1.0 + k * k)
    sn = sn_function(k)

    def F_fn(s):
        return F0 * sn(s)

    return SolutionCandidate(
        name="sn", callables={"F": F_fn}, exprs={"G": Expr.zero()},
        params={"c": c, "F0": F0, "k": k},
        notes=[f"derived constraints: F0^2 = 2 k^2, c = {'-' if printed_system else '+'}(1 + k^2)"])


def linear_solution_member4() -> SolutionCandidate:
    """g = g0, f = f1 s + f0 on the fourth member's reduction, valid exactly
    under f1 (f1^3 + c) = 0 (the printed solution omits the constraint)."""
    ctx = JetSpec(("s",), ("f", "g"), constants=("c", "f0", "f1", "g0"))
    f1 = sym("f1").as_expr()
    c = sym("c").as_expr()
    return SolutionCandidate(
        name="member4-linear",
        exprs={"f": ctx.parse("f1*s + f0"), "g": ctx.parse("g0")},
        constraints=[f1 ** 4 + c * f1],
        params={"c": -1.0, "f0": 0.25, "f1": 1.0, "g0": 2.0},
        notes=["constraint f1 (f1^3 + c) = 0 required by direct substitution"])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    statuses: list[str]
    max_residual: float | None = None
    samples: int = 0
    notes: list[str] = dc_field(default_factory=list)

    @property
    def zero(self) -> bool:
        return all(s == "Zero" for s in self.statuses)


def _need_order(S: ODESystem) -> dict[str, int]:
    """Highest s-order of every dependent the equations use."""
    need: dict[str, int] = {}
    for dep, (m, rhs) in S.leads.items():
        need[dep] = max(need.get(dep, 0), m)
        for a in atoms_of(rhs):
            if isinstance(a, Jet):
                need[a.dep] = max(need.get(a.dep, 0), a.order)
    return need


def _plan(exprs, inputs) -> NumericPlan:
    """`NumericPlan(exprs, inputs)`, compiled once while in the bounded memo, keyed
    on each expression's terms and the input atoms in order, not on Expr equality:
    equal expressions with terms in another order sum to other floating bits."""
    return _memo(("plan", tuple(tuple(e._terms.items()) for e in exprs), tuple(inputs)),
                 lambda: NumericPlan(exprs, inputs))


def _jet_chain(e: Expr, svar: str, m: int) -> list[Expr]:
    """[e, e', ..., e^(m)] in svar, derived once per ordered e, svar and m."""
    def make():
        chain = [e]
        for _ in range(m):
            chain.append(derive(chain[-1], sym(svar)))
        return chain
    return _memo(("jets", tuple(e._terms.items()), svar, m), make)


def _candidate_jet_values(S: ODESystem, cand: SolutionCandidate) -> dict[Jet, Expr]:
    """Symbolic values for every jet coordinate the equations use."""
    svar = S.svar
    out = {}
    for dep, mx in _need_order(S).items():
        if dep in cand.exprs:
            for k, val in enumerate(_jet_chain(cand.exprs[dep], svar, mx)):
                out[jet(dep, (svar,) * k)] = val
    return out


def verify_solution(S: ODESystem, cand: SolutionCandidate, mode: str = "symbolic",
                    param_values: dict | None = None, s_range=(0.25, 10.0),
                    samples: int = 200) -> VerifyReport:
    """Symbolic: substitute the profile, canonicalise under the parameter
    constraints, expect Zero.  Numeric: max |residual| over samples at least
    0.05 from every pole denominator's zero, derivatives taken analytically
    for expression profiles and by fourth-order central differences of step
    3e-3 for callable ones; a non-finite residual reads inf.  Repeat calls reuse
    derivatives and compiled plans, keyed on ordered terms to keep the bits.
    A candidate with no profile for a dependent of S raises DomainError."""
    need_order = _need_order(S)
    missing = sorted(d for d in need_order if d not in cand.exprs and d not in cand.callables)
    if missing:
        raise DomainError(f"solution {cand.name} gives no profile for "
                          f"{', '.join(missing)} of system {S.label}")
    if mode == "symbolic":
        if cand.callables:
            raise DomainError("symbolic mode needs expression profiles")
        vals = _candidate_jet_values(S, cand)
        statuses = []
        for lead, rhs in S.equations():
            E = lead.as_expr() - rhs
            R = substitute(E, vals)
            # a residual that is a rational multiple of a parameter
            # constraint vanishes wherever the constraint holds
            zero = R.is_zero() or any(equal_up_to_factor(R, P) is not None
                                      for P in cand.constraints)
            statuses.append("Zero" if zero else "Nonzero")
        return VerifyReport(statuses, notes=list(cand.notes))

    params = dict(cand.params)
    params.update(param_values or {})
    bind_syms = {sym(k): complex(v) for k, v in params.items()}
    if "c" in params:
        bind_syms[root("c")] = complex(params["c"]) ** 0.5

    svar = S.svar
    sym_vals = _candidate_jet_values(S, cand)
    fd_deps = [(dep, fn, need_order.get(dep, 0)) for dep, fn in cand.callables.items()]
    fd_jets = [jet(dep, (svar,) * k) for dep, _, m in fd_deps for k in range(m + 1)]
    fd_stencils = [(fn, _fd_offsets(m), _fd_orders(m)) for _, fn, m in fd_deps]
    n_poles = len(cand.pole_denoms)
    # a repeated input takes its last position: sampled jets override symbolic ones
    inputs = [*bind_syms, sym(svar)]
    bind_vals = list(bind_syms.values())
    profile = _plan([*cand.pole_denoms, *sym_vals.values()], inputs)
    residuals = _plan([lead.as_expr() - rhs for lead, rhs in S.equations()],
                      [*inputs, *sym_vals, *fd_jets])

    lo, hi = s_range
    worst = 0.0
    good = 0
    idx = 0
    total_budget = samples * 6
    while good < samples and idx < total_budget:
        if idx < samples:
            sval = lo + (hi - lo) * idx / samples
        else:
            sval = lo + (hi - lo) * ((idx * 0.6180339887498949) % 1.0)
        idx += 1
        head = [*bind_vals, sval]
        try:
            vals = profile(head)
            if any(abs(d) < 0.05 for d in vals[:n_poles]):
                continue
            head += vals[n_poles:]
            for fn, offsets, orders in fd_stencils:
                head += _fd_jet(fn(sval), [fn(sval + o * 3e-3) for o in offsets],
                                orders, 3e-3)
            res = 0.0
            for r in residuals(head):
                res = max(res, abs(r) if r == r else math.inf)  # max(0.0, nan) is 0.0
            worst = max(worst, res)
            good += 1
        except PoleError:
            continue
    if good < samples:
        raise PoleError("all samples in excluded domain")
    return VerifyReport(["sampled"] * len(S.leads), max_residual=worst,
                        samples=good, notes=list(cand.notes))


def fd_weights(offsets: list[int], order: int) -> list[Fraction]:
    """Exact finite-difference weights on integer offsets for the given
    derivative order (solve the moment system over rationals)."""
    return _fd_stencil(tuple(offsets), order)[0]


@cache
def _fd_stencil(offsets: tuple[int, ...], order: int) -> tuple[list[Fraction], list[float]]:
    """The exact weights and the same weights as floats, solved once."""
    n = len(offsets)
    if order >= n:
        raise DomainError("not enough stencil points for the derivative order")
    # column j holds the moments offsets[j]^m, m < n: the weights give
    # order! on moment `order` and zero on every other moment
    cols = [{m: Fraction(o) ** m for m in range(n) if o or not m} for o in offsets]
    try:  # distinct offsets give an invertible Vandermonde system; repeated ones do not
        w, = solve_exact(cols, [{order: Fraction(math.factorial(order))}])
    except ValueError:
        raise DomainError("stencil offsets admit no finite-difference weights") from None
    return w, [float(q) for q in w]


def _fd_offsets(m: int) -> range:
    """The order-m central stencil, the widest of orders 1..m (none for m = 0)."""
    return range(-(m // 2 + 2), m // 2 + 3) if m else range(0)


def _fd_orders(m: int) -> list[tuple[int, list[float]]]:
    """(half width, float weights) of the central stencil of each order 1..m."""
    return [(k // 2 + 2, _fd_stencil(tuple(range(-(k // 2 + 2), k // 2 + 3)), k)[1])
            for k in range(1, m + 1)]


def _fd_jet(f0, at: list, orders: list, h: float) -> list:
    """[f, f', ..., f^(m)] at s by central differences of step h, from f0 =
    f(s) (s + 0*h is not s at -0.0), at = f(s + o*h) over `_fd_offsets(m)`,
    shared by all orders, and orders = `_fd_orders(m)`.  Order k sums its own
    weights times samples in offset order and divides by h**k."""
    out = [f0]
    mid = len(at) // 2  # at[mid + o] = f(s + o*h)
    for k, (half, w) in enumerate(orders, 1):
        out.append(sum(map(mul, w, at[mid - half:])) / h ** k)
    return out


# ---------------------------------------------------------------------------
# numeric integration of reduced systems
# ---------------------------------------------------------------------------

def rk4_from_system(S: ODESystem, params: dict, state0: dict, s_range, h) -> Trajectory:
    """Integrate an explicit first-order reduced system with RK4."""
    if S.order != 1:
        raise DomainError("integrate the first-order form")
    svar = S.svar
    bind = {sym(k): complex(v) for k, v in params.items()}
    # integrate_rk4 keeps every state in sorted dependent order
    deps = sorted(state0)
    plan = _plan([S.leads[dep][1] for dep in deps], [*bind, sym(svar), *map(jet, deps)])
    return integrate_rk4(plan, state0, s_range, h, bound=list(bind.values()))


# ---------------------------------------------------------------------------
# lifting back to the PDE
# ---------------------------------------------------------------------------

def lift_and_check(S: PDESystem, profiles: dict, c: float, n: int = 50) -> float:
    """Evaluate v(t,x) = f(x - c t), w(t,x) = g(x - c t) on the n x n grid
    over [-0.5, 0.5]^2 and return the max PDE residual by fourth-order finite
    differences of step 1e-2; a residual that is not finite returns inf."""
    tvar, xvar = S.jet.independents
    order = S.order
    deps = S.jet.dependents
    # per dependent: value, x-derivatives up to the order, t-derivative
    idxs = [(xvar,) * k for k in range(order + 1)] + [(tvar,)]
    rhs = _plan([S.rhs[dep] for dep in deps],
                [sym(tvar), sym(xvar), *(jet(d, i) for d in deps for i in idxs)])
    fns = [profiles[_DEP_MAP[dep]] for dep in deps]
    h, x_offsets, t_offsets = 1e-2, _fd_offsets(order), _fd_offsets(1)
    x_orders = _fd_orders(order)
    t_orders = x_orders[:1]  # the order-1 stencil, looked up once
    worst = 0.0
    for i in range(n):
        t = -0.5 + i / (n - 1)
        ct = c * t
        for j in range(n):
            x = -0.5 + j / (n - 1)
            vals, u_t = [t, x], []
            for fn in fns:
                f0 = fn(x - ct)
                vals += _fd_jet(f0, [fn(x + o * h - ct) for o in x_offsets], x_orders, h)
                u_t.append(_fd_jet(f0, [fn(x - c * (t + o * h)) for o in t_offsets], t_orders, h)[1])
                vals.append(u_t[-1])
            for d in map(sub, u_t, rhs(vals)):
                worst = max(worst, abs(d) if d == d else math.inf)
    return worst


# ---------------------------------------------------------------------------
# CSV emission and wave-profile features
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_series_csv(rows: list[tuple], path) -> None:
    """Columns s, F_re, F_im, G_re, G_im; 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("s,F_re,F_im,G_re,G_im\n")
        for s, F, G in rows:
            fh.write(",".join([_fmt(s), _fmt(F.real), _fmt(F.imag),
                               _fmt(G.real), _fmt(G.imag)]) + "\n")


_S11_INPUTS = [sym("c"), sym("F0"), sym("F1"), sym("s")]


@cache
def _s11_profile() -> tuple[Expr, Expr]:
    """(F, G) of `s11_solution()`, built once per process."""
    return tuple(s11_solution().exprs[u] for u in "FG")


# Most samples `fig1_rows` takes: 100 times the README's default of 1000.
MAX_FIG1_SAMPLES = 100_000


def fig1_rows(c: float, F1: float, F0: float = 1.0, n: int = 1000) -> list[tuple]:
    """(s, F, G) samples of the printed closed form for the wave-profile
    figure, at n >= 2 evenly spaced points of [0, 10]; raises DomainError
    outside 2..MAX_FIG1_SAMPLES."""
    if not 2 <= n <= MAX_FIG1_SAMPLES:
        raise DomainError(f"fig1 sample count {n} outside 2..{MAX_FIG1_SAMPLES}")
    FG = _plan(_s11_profile(), _S11_INPUTS)
    rows = []
    for i in range(n):
        s = 10.0 * i / (n - 1)
        try:
            rows.append((s, *FG([c, F0, F1, s])))
        except PoleError:
            continue
    return rows


def fig1_features(c: float, F1: float, F0: float = 1.0, n: int = 2048) -> dict:
    """Periodicity error of Re F and Re G over one period 2 pi / c from
    s = 0.1 (exact offset evaluation) and the number of sign changes of
    dF_re/ds per period."""
    period = 2 * math.pi / c
    # F and G apart: a pole of G alone must not stop the F samples
    Fe, Ge = (_plan([e], _S11_INPUTS) for e in _s11_profile())

    def at(plan, s):
        return plan([c, F0, F1, s])[0]

    per_err = 0.0
    for i in range(25):
        s = 0.1 + period * i / 25
        per_err = max(per_err, abs(at(Fe, s).real - at(Fe, s + period).real))
        per_err = max(per_err, abs(at(Ge, s).real - at(Ge, s + period).real))

    samples = [at(Fe, 0.1 + period * i / n).real for i in range(n + 2)]
    dF = [samples[i + 1] - samples[i - 1] for i in range(1, n + 1)]
    changes = 0
    for a, b in zip(dF, dF[1:]):
        if a == 0 or (a < 0) != (b < 0):
            changes += 1
    return {"period": period, "periodicity_error": per_err,
            "dFre_sign_changes_per_period": changes}
