"""Point-symmetry machinery: generators read from field-file text,
prolongation, symmetry residuals, determining systems from finite ansatz
dictionaries, exact nullspace discovery, and verification of concrete
generators, families among them whose unknown functions obey their own rules.
The same pipeline serves evolution PDE systems (independents t, x) and
reduced ODE systems (single independent s, no time slot), on one jet space.
One `VerifyReport` holds generator and profile verdicts, each status from
`expr_core.verdict`, the one zero decision, which the Jacobi check and the
member audit read too.

Residuals come from one on-shell residual map per system (kept for verdicts,
per call for discovery): a slot entry's column is its Leibniz summands
c*mono*R_{Y,K}/d, R_{Y,K} the pieces of the base fields Y of its terms, integer
terms over one denominator per equation on monomials packed into ints, where a
product is an addition unless both sides hold trig or exp.  One loop writes
summands into integer rows, one scale per equation: a determining system's
stay integer into the nullspace; a verdict sums a field's columns and decodes them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations, product
from math import comb, lcm, prod

from .expr_core import (
    _INTERN, DomainError, Expr, Func, Jet, _accumulate, _add_into, _is_plain, _memo,
    atoms_of, cos_e, exp_e, func, gradient, jet,
    sin_e, sym, verdict, ZeroStatus,
)
from .linalg import cleared, divided, nullspace, rank
from .parser import combo_text, expr_text, parse_expr
from .systems import JetSpec, Reducer, total_derivative

__all__ = [
    "VectorField", "AnsatzBasis",
    "DeterminingSystem", "VerifyReport", "prolong_generator",
    "symmetry_residual", "determining_system", "discover_symmetries",
    "verify_generator", "ansatz_dictionary", "field_text", "parse_field",
]


@dataclass
class VectorField:
    """Infinitesimal generator xi^i d_i + eta^A d_A, xi keyed by independents
    and eta by dependents of its jet, with optional unknown functions whose
    rules (lead, rhs) join the system's in the on-shell `Reducer`: each lead
    differentiated by its first argument (a_t = b_xx, a_ssss = a for a(s))."""

    jet: JetSpec
    xi: dict[str, Expr] = dc_field(default_factory=dict)
    eta: dict[str, Expr] = dc_field(default_factory=dict)
    unknowns: tuple[tuple[Func, Expr], ...] = ()
    name: str = ""

    def __post_init__(self):
        for kind, coeffs, names in (("xi", self.xi, self.jet.independents),
                                    ("eta", self.eta, self.jet.dependents)):
            for slot, coeff in coeffs.items():
                if slot not in names:
                    raise DomainError(f"unrecognised slot {kind + '_' + slot!r}")
                for atom in atoms_of(coeff):
                    if isinstance(atom, Jet) and atom.order >= 1:
                        raise DomainError(
                            f"generator coefficient for {slot} depends on jet "
                            f"derivative {atom!r}")

    def xi_of(self, indep: str) -> Expr:
        return self.xi.get(indep, Expr.zero())

    def eta_of(self, dep: str) -> Expr:
        return self.eta.get(dep, Expr.zero())

    def coeff_vector_atoms(self):
        for indep in self.jet.independents:
            yield ("xi", indep, self.xi_of(indep))
        for dep in self.jet.dependents:
            yield ("eta", dep, self.eta_of(dep))

    def scale(self, q) -> "VectorField":
        qe = Expr.rational(q) if not isinstance(q, Expr) else q
        return VectorField(self.jet,
                           {k: v * qe for k, v in self.xi.items()},
                           {k: v * qe for k, v in self.eta.items()},
                           self.unknowns, self.name)

    def add(self, other: "VectorField") -> "VectorField":
        """The sum, on a jet declaring the constants and unknown functions of
        both; an unknown of both must take the same arguments and rule."""
        functions, unknowns = dict(self.jet.functions), {}
        for name, args in other.jet.functions:
            if functions.setdefault(name, args) != args:
                raise DomainError(f"two argument lists for the unknown {name}")
        for rule in self.unknowns + other.unknowns:
            if unknowns.setdefault(rule[0].name, rule) != rule:
                raise DomainError(f"two constraints for the unknown {rule[0].name}")
        return VectorField(self.jet.with_constants(other.jet.constants).with_functions(functions),
                           _slot_sums([*self.xi.items(), *other.xi.items()]),
                           _slot_sums([*self.eta.items(), *other.eta.items()]),
                           tuple(unknowns.values()))

    def __repr__(self):
        return field_text(self)


def _slot_sums(parts) -> dict:
    """Sum of the expressions of each slot in (slot, expression) pairs, with
    slots in first-seen order."""
    acc: dict = {}
    for var, e in parts:
        _add_into(acc.setdefault(var, {}), e._terms.items())
    return {var: Expr(terms) for var, terms in acc.items()}


def field_text(X: VectorField) -> str:
    return combo_text((coeff, f"d_{var}") for _, var, coeff in X.coeff_vector_atoms())


def parse_field(text: str, jet_spec: JetSpec, name: str = "") -> VectorField:
    """Generator from field-file text, one statement per line, `#` starting
    a comment: slots `xi_t = expr` and `eta_v = expr`, and unknown functions
    `unknown a(t,x)`, each with an optional rule `unknown a(t,x): a_t = expr`
    whose lead is a_t, a_tt, ...: a pure derivative by the first argument."""
    functions: dict[str, tuple[str, ...]] = {}
    rules, slots = [], []
    for line in filter(None, (ln.split("#", 1)[0].strip() for ln in text.splitlines())):
        if not line.startswith("unknown "):
            slots.append(line.partition("="))
            continue
        head, colon, rule = line[len("unknown "):].partition(":")
        fname, paren, args = (part.strip() for part in head.partition("("))
        if not paren or not args.endswith(")"):
            raise ValueError(f"unknown {head.strip()!r} is not name(args)")
        if fname in functions:
            raise ValueError(f"unknown {fname} declared twice")
        functions[fname] = tuple(a.strip() for a in args[:-1].split(","))
        if colon:
            rules.append((fname, rule))
    ctx = jet_spec.with_functions(functions) if functions else jet_spec
    unknowns = []
    for fname, rule in rules:
        lhs, eq, rhs = rule.partition("=")
        args = functions[fname]
        lead = func(fname, args, args[:1] * (len(lhs.strip()) - len(fname) - 1))
        if not eq or not lead.idx or parse_expr(lhs, ctx) != lead.as_expr():
            v = args[0]
            raise ValueError(f"unknown {fname}: rule {rule.strip()!r} is not "
                             f"{fname}_{v} = ..., {fname}_{v}{v} = ..., ...")
        unknowns.append((lead, parse_expr(rhs, ctx)))
    xi, eta = {}, {}
    for slot, _, rhs in slots:
        kind, _, var = slot.strip().partition("_")
        if kind not in ("xi", "eta"):
            raise ValueError(f"unrecognised slot {slot.strip()!r}")
        if var in (xi if kind == "xi" else eta):
            raise ValueError(f"slot {slot.strip()} given twice")
        (xi if kind == "xi" else eta)[var] = parse_expr(rhs, ctx)
    return VectorField(ctx, xi, eta, tuple(unknowns), name)


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------

def prolong_generator(X: VectorField, needed) -> dict[Jet, Expr]:
    """Extended coefficients eta^{A,J} for the requested jet coordinates via
    eta^{A,Ji} = D_i(eta^{A,J}) - sum_j D_i(xi^j) u^A_{Jj}."""
    memo = {jet(dep, ()): X.eta_of(dep) for dep in X.jet.dependents}
    dxi = {(j, i): total_derivative(X.xi_of(j), i) for j in X.jet.independents
           if not X.xi_of(j).is_zero() for i in X.jet.independents}

    def get(J: Jet) -> Expr:
        got = memo.get(J)
        if got is not None:
            return got
        base = J.idx[:-1]
        i = J.idx[-1]
        val = total_derivative(get(jet(J.dep, base)), i)
        for j in X.jet.independents:
            d = dxi.get((j, i))
            if d is not None and not d.is_zero():
                val = val - d * jet(J.dep, base + (j,)).as_expr()
        memo[J] = val
        return val

    return {J: get(J) for J in needed}


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

# signed _FIELD-bit exponents: a column term multiplies three of |e| <= _BOUND
_FIELD, _HALF = 16, 1 << 15
_MASK, _BOUND = 2 * _HALF - 1, (_HALF - 1) // 3


class _Ring:
    """Monomials of one residual map as ints, packed exponent vectors (Monagan
    & Pearce, CASC 2007): atom a holds e_a as a balanced digit at bit shift[a]."""

    def __init__(self, label: str):
        # monos: the monomial of each packed key whose products need _accumulate
        self.label, self.shift, self.monos = label, {}, {}

    def pack(self, m: tuple) -> int:
        k = 0
        for a, e in m:
            if not -_BOUND <= e <= _BOUND:
                raise DomainError(f"exponent {e} of {a!r} exceeds {_BOUND} in {self.label!r}")
            k += e << self.shift.setdefault(a, _FIELD * len(self.shift))
        if not _is_plain(m):
            self.monos[k] = m
        return k

    def terms(self, e: Expr) -> tuple[dict, int]:
        """(packed terms of e cleared, denominator)."""
        terms, den = cleared(e._terms)
        return {self.pack(m): q for m, q in terms.items()}, den

    def combine(self, summands) -> tuple[dict, int]:
        """(terms, denominator) of the sum of c*A*B/d over the summands (c, A,
        B, d) of packed terms with no empty side, over the lcm of their d; a
        lone one with B the unit {0: 1} is c*A over d as it stands.  A product
        with one non-plain side is not registered in `monos`, `terms` registers."""
        summands = [s for s in summands if s[1] and s[2]]
        if len(summands) == 1 and summands[0][2] == {0: 1}:
            c, A, _, d = summands[0]
            return {m: c * q for m, q in A.items()}, d
        out, den, acc, monos = {}, lcm(*(d for *_, d in summands)), {}, self.monos
        get = out.get
        for c, A, B, d in summands:
            c *= den // d
            for m1, q1 in A.items():
                q1, o1 = q1 * c, m1 in monos
                for m2, q2 in B.items():
                    if o1 and m2 in monos:
                        _accumulate(acc, monos[m1] + monos[m2], q1 * q2)
                    else:
                        m = m1 + m2
                        out[m] = get(m, 0) + q1 * q2
        for m, q in zip(map(self.pack, acc), acc.values()):
            out[m] = get(m, 0) + q
        return {m: q for m, q in out.items() if q}, den

    @staticmethod
    def keys(shift: dict, ms) -> dict[int, tuple]:
        """{m: (rank, _mono_key of m)} for monomials ms packed by shift, fields read
        in key order of their atoms as codes rank << _FIELD | (_HALF + e), ordered."""
        atoms = sorted(shift, key=lambda a: a.key)
        bias = sum(_HALF << s for s in shift.values())  # each field _HALF + e
        fields = [(r << _FIELD, shift[a]) for r, a in enumerate(atoms)]
        codes = {m: [r | d for r, s in fields if (d := u >> s & _MASK) != _HALF]
                 for m in set(ms) for u in (m + bias,)}
        return {m: (r, tuple((atoms[c >> _FIELD].key, (c & _MASK) - _HALF) for c in codes[m]))
                for r, m in enumerate(sorted(codes, key=codes.__getitem__))}


class _ResidualMap:
    """The on-shell residual map X -> [pr X(lead - rhs) on solutions] of one
    system, for generators whose unknown functions obey the rules `unknowns`;
    reduction is a ring homomorphism, so it is assembled from reduced factors.
    `column` has one rule for a slot's entry: each term is q*p*Y, p its plain
    independent factors and Y = g d_var with g everything else, of
    characteristic Q_Y = g on var (eta) or -g u^A_var on every A (xi).
    Leibniz's rule on D_J(p Q_Y), and pr X(H) = pr X_Q(H) + xi^j D_j H with
    D_j H = 0 on solutions, give pr(pY)(H) = sum_K d_K p * R_{Y,K}, K <= J
    for some jet u_J of H, with R_{Y,K} = reduce(sum_{A, J >= K} C(J,K)
    D_{J-K}(Q_Y^A) dH/du^A_J) and R_{Y,()} = pr Y(H).  Tables and pieces are
    `cleared` (integer terms over one denominator; Geddes, Czapor & Labahn
    1992, sec. 2.7) on the int monomials of `ring`: a product with a plain
    side is an addition, only two non-plain ones meet `_accumulate`.  A column
    is left as its summands, each holding its piece where the map keeps it
    once whole: one per base field and K seen, as long as the memo keeps the
    map.  A table's prolongation of Y depends on Y and the jets below those
    of H, not on H: the process-wide memo keeps it."""

    def __init__(self, system, unknowns=()):
        # a kept map holds its system once, packed on `ring`: per equation `partials`
        # (J, dH/du_J, denominator), the lead first ({0: 1} packs 1), and R_{d_j,()} = dH/dx_j
        equations, self.ring = system.equations(), _Ring(getattr(system, "label", ""))
        self.jet, self.independents = system.jet, system.jet.independents
        self.reducer = Reducer(equations + list(unknowns))
        # one sweep per rhs differentiates it by the independents and its jets; its
        # unknown-function content is not acted on: generators carry their own
        self.syms, self.partials, dx = [sym(i) for i in self.independents], [], []
        for lead, rhs in equations:
            jets = [a for a in atoms_of(rhs) if isinstance(a, Jet)]
            dH = [self.reducer.reduce(-d) for d in gradient(rhs, self.syms + jets)]
            dx.append(dH[:len(self.syms)])
            self.partials.append([(lead, {0: 1}, 1)] + [
                (a, *self.ring.terms(h)) for a, h in zip(jets, dH[len(self.syms):])])
        self.needed = dict.fromkeys(  # a dict, not a set: jets by first occurrence
            [p[0][0] for p in self.partials] + [J for p in self.partials for J, *_ in p[1:]])
        self.top = {s: max(J.idx.count(s.name) for J in self.needed) for s in self.syms}
        self.tables, self.splits, self.belows = {}, {}, {}  # D_L(Q_Y); (C(J,K), J-K); jets
        # R_{Y,K} by (kind, var, g, K), K as counts per independent
        self.pieces = {("xi", i, (), (0,) * len(self.syms)): [self.ring.terms(d[k]) for d in dx]
                       for k, i in enumerate(self.independents)}

    def table(self, kind: str, var: str, g: tuple) -> dict[tuple, tuple]:
        """Reduced D_L(Q_Y^A) of Y = g d_var, cleared, keyed (A, L), for every
        u^A_L below a needed jet, by one formula from one prolongation of Y:
        reduce(pr Y^{A,L} - g u^A_{L var}) for an xi field (pr d_var = 0), g
        reducible by unknown rules; an eta field's D_L(g) is kept on the first
        dependent and shared."""
        eta = kind == "eta"
        key = (kind, None if eta else var, g)
        if key in self.tables:
            return self.tables[key]
        dep0, ge = self.jet.dependents[0], Expr({g: 1})
        # d_var prolongs to 0 and asks no L = J, as R_{d_var,()} is seeded
        plain, slot = not (eta or g), dep0 if eta else var
        below = self.belows.get((eta, plain))
        if below is None:  # the same for every field of this kind and plainness
            below = self.belows[eta, plain] = tuple(dict.fromkeys(
                jet(dep0 if eta else J.dep, L) for J in self.needed
                for r in range(J.order + 1 - plain) for L in combinations(J.idx, r)))
        pr = {} if plain else _memo(("prolong", self.jet, kind, slot, g, below), lambda: (
            prolong_generator(VectorField(self.jet, **{kind: {slot: ge}}), below)))
        table, rg = {}, self.reducer.reduce(ge) if g and not eta else None
        for A in below:
            f, d = self.ring.terms(self.reducer.reduce(pr[A])) if A in pr else ({}, 1)
            if not eta:  # g on solutions times the Reducer's value of u^A_{L var},
                u = jet(A.dep, A.idx + (var,))  # canonical, packed as `piece` multiplies it
                num, den = self.reducer.value(u) or (u.as_expr(), 1)
                gu, gd = self.ring.terms(rg * num if g else num)
                f, d = self.ring.combine([(1, f, {0: 1}, d), (-1, gu, {0: 1}, gd * den)])
            table[A.dep, A.idx] = f, d
        self.tables[key] = table
        return table

    def piece(self, kind: str, var: str, g: tuple, K: tuple) -> list[tuple]:
        """Cleared R_{Y,K} per equation: Y = g d_var, K counted per independent."""
        key, eta, indeps = (kind, var, g, K), kind == "eta", self.independents
        if key in self.pieces:
            return self.pieces[key]
        table, dep0 = self.table(kind, var, g), self.jet.dependents[0]
        pieces = []
        for partials in self.partials:
            summands = []
            for J, h, hd in partials:
                if (J, K) not in self.splits:  # (C(J, K), J - K); C = 0 unless K <= J
                    n = [J.idx.count(i) for i in indeps]
                    self.splits[J, K] = (prod(map(comb, n, K)), tuple(sorted(
                        i for i, a, k in zip(indeps, n, K) for _ in range(a - k))))
                c, L = self.splits[J, K]
                if c and not (eta and J.dep != var):
                    f, fd = table[dep0 if eta else J.dep, L]
                    summands.append((c, f, h, fd * hd))
            pieces.append(self.ring.combine(summands))
        self.pieces[key] = pieces
        return pieces

    def column(self, key: tuple[str, str], e: Expr) -> list[tuple]:
        """Leibniz summands (c, mono, d, R) of the one-slot field e d_var of slot
        key = (kind, var), one per term q*p*g of e and K: c*mono/d = q d_K p,
        mono plain and packed, R = R_{g d_var, K} the map's own list, so that
        the residual of equation i is the sum of c*mono*R[i]/d."""
        (kind, var), syms = key, self.syms
        summands = []
        for m, q in e._terms.items():
            p = tuple(f for f in m if f[0] in syms)
            g = tuple(f for f in m if f not in p)
            # d_K p = c * mono, K past the jets of H gives R_{Y,K} = 0 (k < 0)
            for ks in product(*(range((k if k >= 0 else self.top[a]) + 1) for a, k in p)):
                c = q.numerator * prod(prod(range(k - j + 1, k + 1)) for (_, k), j in zip(p, ks))
                mono = self.ring.pack(tuple((a, k - j) for (a, k), j in zip(p, ks) if k != j))
                K = tuple(dict(zip((a for a, _ in p), ks)).get(s, 0) for s in syms)
                summands.append((c, mono, q.denominator, self.piece(kind, var, g, K)))
        return summands


def _same_space(where: str, *jets: JetSpec) -> None:
    """Raise DomainError unless the jets share independents and dependents."""
    if len({(j.independents, j.dependents) for j in jets}) > 1:
        raise DomainError(f"mismatched jet spaces in {where}")


class _Rows(Sequence):
    """Integer rows {(equation i, packed monomial): {column: int}} of the columns
    of a map's (slot, entry) pairs, scaled by scale[i], the lcm of the d*den of
    i's non-empty summands; an entry cancelled across K goes, a row left empty
    too.  Sorted once when read: as rows / scale[i], or summed into residuals."""

    def __init__(self, rmap: _ResidualMap, entries):
        res, self.shift = [rmap.column(key, e) for key, e in entries], rmap.ring.shift
        self.scale = [lcm(*{d * r[i][1] for col in res for _, _, d, r in col if r[i][0]})
                      for i in range(len(rmap.partials))]
        self.ints = ints = {}
        for k, col in enumerate(res):
            for i, s in enumerate(self.scale):
                for c, mono, d, r in col:
                    terms, rd = r[i]
                    c *= s // (d * rd)
                    for m, q in terms.items():
                        row = ints.get(key := (i, m + mono))
                        if row is None:
                            ints[key] = {k: c * q}
                        elif v := row.get(k, 0) + c * q:
                            row[k] = v
                        else:  # cancelled across K
                            del row[k]
                            if not row:
                                del ints[key]

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, k):
        return self.read[0][k]

    def order(self) -> tuple[list, dict]:  # rows by equation, then monomial key; keys
        keys = _Ring.keys(self.shift, (m for _, m in self.ints))
        return sorted(self.ints, key=lambda im: (im[0], keys[im[1]][0])), keys

    @cached_property
    def read(self) -> tuple[list, list]:  # int if exact
        prov, keys = self.order()
        return ([divided(self.ints[k], self.scale[k[0]]) for k in prov],
                [(i, keys[m][1]) for i, m in prov])

    def residuals(self) -> list[Expr]:
        """Per equation, its rows summed over the columns and divided by its scale."""
        (prov, keys), sums = self.order(), [{} for _ in self.scale]
        for i, m in prov:
            if q := sum(self.ints[i, m].values()):
                sums[i][tuple((_INTERN[a], e) for a, e in keys[m][1])] = q
        return [Expr(divided(terms, s)) for terms, s in zip(sums, self.scale)]


def symmetry_residual(system, X: VectorField) -> list[Expr]:
    """Apply the prolonged generator to each equation H^A = lead - rhs and
    substitute the equations (and their differential consequences) so the
    result lives on solutions.  A generator is a symmetry iff every entry is
    zero: the rows of X's slot columns summed and divided by their scale,
    terms in `_mono_key` order.  The memo keeps the map of the system (its
    label too, which refusals name) and X's unknown rules, so fields verified
    on one system share its pieces."""
    _same_space("symmetry_residual", system.jet, X.jet)
    key = (system.jet, tuple(system.equations()), X.unknowns, getattr(system, "label", ""))
    rmap = _memo(("residual map", *key), lambda: _ResidualMap(system, X.unknowns))
    return _Rows(rmap, (((kind, var), e) for kind, var, e in X.coeff_vector_atoms())).residuals()


@dataclass
class VerifyReport:
    """One status per residual, Zero when every status is: an exact verdict keeps
    its residuals, a sampled one its worst residual over its good samples."""

    statuses: list[str]
    residuals: list[Expr] = dc_field(default_factory=list)
    max_residual: float | None = None
    samples: int = 0
    notes: list[str] = dc_field(default_factory=list)

    @classmethod
    def exact(cls, residuals: list[Expr], constraints=(), notes=()) -> "VerifyReport":
        return cls([verdict(r, constraints) for r in residuals], residuals, notes=list(notes))

    @property
    def zero(self) -> bool:
        return all(s == ZeroStatus.ZERO for s in self.statuses)

    @property
    def status(self) -> str:
        return ZeroStatus.ZERO if self.zero else ZeroStatus.NONZERO

    def remainders(self) -> list[str]:
        return [expr_text(r) for r in self.residuals]


def verify_generator(system, X: VectorField) -> VerifyReport:
    """Residual check with unknown-function derivatives reduced by their rules."""
    return VerifyReport.exact(symmetry_residual(system, X))


# ---------------------------------------------------------------------------
# ansatz dictionaries
# ---------------------------------------------------------------------------

@dataclass
class AnsatzBasis:
    """Candidate expressions per generator slot ('xi', indep) / ('eta', dep)."""

    jet: JetSpec
    slots: dict[tuple[str, str], list[Expr]]

    def columns(self):
        return [(key, k, e) for key in sorted(self.slots) for k, e in enumerate(self.slots[key])]


# Largest dictionary `ansatz_dictionary` builds, in unknowns (columns of the
# determining system); degree 40 on a two-component system has 3444.
MAX_ANSATZ_UNKNOWNS = 4000


def ansatz_dictionary(jet_spec: JetSpec, degree: int, trig_order: int = 0,
                      exp_range: int = 0) -> AnsatzBasis:
    """Dictionary {prod of independents^a, total degree <= D} on every slot;
    eta slots are additionally multiplied by {1, sin(m dep0), cos(m dep0)}
    (m <= trig_order) and {exp(k dep_last)} (|k| <= exp_range), dep0 and
    dep_last the first and the last dependent.  Raises
    DomainError on a negative size or above MAX_ANSATZ_UNKNOWNS columns."""
    indeps = jet_spec.independents
    if min(degree, trig_order, exp_range) < 0:
        raise DomainError(f"negative ansatz size: degree {degree}, trig "
                          f"{trig_order}, expw {exp_range}")
    n_poly = comb(degree + len(indeps), len(indeps))
    n_cols = n_poly * (len(indeps) + len(jet_spec.dependents)
                       * (2 * trig_order + 1) * (2 * exp_range + 1))
    if n_cols > MAX_ANSATZ_UNKNOWNS:
        raise DomainError(f"ansatz dictionary of {n_cols} unknowns exceeds "
                          f"the budget of {MAX_ANSATZ_UNKNOWNS}")
    syms = [sym(i).as_expr() for i in indeps]
    polys = [prod((s ** a for s, a in zip(syms, powers)), start=Expr.one())
             for powers in product(range(degree + 1), repeat=len(indeps))
             if sum(powers) <= degree]
    trig_dep, exp_dep = jet_spec.dependents[0], jet_spec.dependents[-1]
    trig_parts = [Expr.one()] + [f(Expr.rational(m) * jet(trig_dep).as_expr())
                                 for m in range(1, trig_order + 1) for f in (sin_e, cos_e)]
    exp_parts = [exp_e(Expr.rational(k) * jet(exp_dep).as_expr())
                 for k in range(-exp_range, exp_range + 1)]
    eta_dict = [p * tr * ex for p in polys for tr in trig_parts for ex in exp_parts]
    return AnsatzBasis(jet_spec, {**{("xi", i): list(polys) for i in indeps},
                                  **{("eta", dep): list(eta_dict) for dep in jet_spec.dependents}})


# ---------------------------------------------------------------------------
# determining systems and discovery
# ---------------------------------------------------------------------------

@dataclass
class DeterminingSystem:
    """Homogeneous rational system over the ansatz coefficients; its nullspace
    is the symmetry space inside the dictionary."""

    basis: AnsatzBasis
    columns: list[tuple[tuple[str, str], int, Expr]]
    rows: _Rows  # rank, nullity and discovery read its integer rows

    @property
    def provenance(self) -> list[tuple[int, tuple]]:  # (equation, class monomial key)
        return self.rows.read[1]

    @property
    def n_unknowns(self) -> int:
        return len(self.columns)

    def rank(self) -> int:
        return rank(self.rows.ints.values())

    def nullity(self) -> int:
        return self.n_unknowns - self.rank()


def determining_system(system, basis: AnsatzBasis) -> DeterminingSystem:
    """Rows: residual coefficients per (equation, monomial class) of each
    column, pr(pY)(H) = sum_K d_K p * R_{Y,K} on solutions (D_j H = 0) over
    the terms p*Y of its entry, R_{Y,()} = pr Y(H).  Each Leibniz summand
    c*mono*R_{Y,K}/d is added straight into integer rows (`_Rows`).  The map
    dies with the call, prolongations not: discovery systems do not repeat, so
    a kept map would take memo slots from the prolongations they share."""
    _same_space("determining_system", system.jet, basis.jet)
    cols = basis.columns()
    return DeterminingSystem(basis, cols,
                             _Rows(_ResidualMap(system), ((key, e) for key, _, e in cols)))


def discover_symmetries(system, basis: AnsatzBasis,
                        det: DeterminingSystem | None = None) -> list[VectorField]:
    """Exact nullspace of the determining system mapped back to generators;
    canonical reduced-echelon basis, pivot on the lowest-indexed coefficient.
    A system off the basis's jet space, or a `det` of another basis, raises."""
    _same_space("discover_symmetries", system.jet, basis.jet)
    if det is not None and det.basis is not basis:
        raise DomainError("determining system of another basis in discover_symmetries")
    det = det or determining_system(system, basis)
    fields = []
    for vec in nullspace(det.rows.ints.values(), det.n_unknowns):
        parts = [(det.columns[col], q) for col, q in sorted(vec.items())]
        slots = _slot_sums((key, Expr.rational(q) * e) for (key, _, e), q in parts)
        xi, eta = ({var: v for (k, var), v in slots.items()
                    if k == kind and not v.is_zero()} for kind in ("xi", "eta"))
        fields.append(VectorField(basis.jet, xi, eta))
    return fields
