"""Jet contexts, evolution systems, total derivatives, and on-solution
normal-form reduction.

Every equation is a rule lead = rhs whose lead is a dependent differentiated
m >= 1 times by one variable: a PDE system is kept in evolution form
u^A_t = Phi^A with every Phi free of t-derivatives, an ODE system is solved
for its highest s-derivatives u^A^(m) = rhs.  The Reducer takes such rules,
from a system and from the constraints on the unknown functions a generator
carries (a_t = b_xx), and rewrites every derivative reachable from a lead
(mixed t-derivatives, higher s-derivatives) down to the free coordinates,
which is what "evaluate on solutions" means throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .expr_core import (
    Atom, DomainError, Expr, Func, Jet, _add_into, _derivation, atoms_of,
    derive, jet, func, substitute, sym,
)
from .linalg import cleared, divided
from .parser import parse_expr

__all__ = ["JetSpec", "PDESystem", "ODESystem", "total_derivative", "Reducer"]

# Highest jet order a PDE right-hand side may carry; member n has order n + 1.
MAX_JET_ORDER = 8


@dataclass(frozen=True)
class JetSpec:
    """Variable context: independents, dependents, named constants, and
    declared unknown functions (name -> argument symbols)."""

    independents: tuple[str, ...]
    dependents: tuple[str, ...]
    constants: tuple[str, ...] = ()
    functions: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def parse(self, text: str) -> Expr:
        return parse_expr(text, self)

    def with_functions(self, funcs: dict[str, tuple[str, ...]]) -> "JetSpec":
        return JetSpec(self.independents, self.dependents, self.constants,
                       tuple(sorted(funcs.items())))

    def with_constants(self, names) -> "JetSpec":
        extra = tuple(n for n in dict.fromkeys(names) if n not in self.constants)
        return JetSpec(self.independents, self.dependents, self.constants + extra,
                       self.functions)


def total_derivative(e: Expr, indep: str) -> Expr:
    """Total derivative D_indep: the partial derivative by indep, plus one
    sweep of the kernel's derivation sending every jet and every unknown
    function of indep to its raised derivative (chain rule included)."""
    def raise_atom(atom: Atom) -> Expr | None:
        if isinstance(atom, Jet):
            return jet(atom.dep, atom.idx + (indep,)).as_expr()
        if isinstance(atom, Func) and indep in atom.args:
            return func(atom.name, atom.args, atom.idx + (indep,)).as_expr()
        return None

    out = dict(derive(e, sym(indep))._terms)
    return Expr(_add_into(out, _derivation(e, raise_atom)._terms.items()))


@dataclass
class PDESystem:
    """Evolution system u^A_t = Phi^A over a two-independent jet space."""

    jet: JetSpec
    rhs: dict[str, Expr]
    label: str = ""

    def __post_init__(self):
        t = self.time_var
        for dep in self.jet.dependents:
            if dep not in self.rhs:
                raise DomainError(f"missing evolution equation for {dep}")
        for dep, phi in self.rhs.items():
            for atom in atoms_of(phi):
                if isinstance(atom, Jet) and t in atom.idx:
                    raise DomainError(
                        f"rhs of {dep}_t contains a {t}-derivative: {atom!r}")
                if isinstance(atom, Jet) and atom.order > MAX_JET_ORDER:
                    raise DomainError(f"jet order beyond {MAX_JET_ORDER}: {atom!r}")

    @property
    def time_var(self) -> str:
        return self.jet.independents[0]

    @property
    def order(self) -> int:
        return max((a.order for phi in self.rhs.values()
                    for a in atoms_of(phi) if isinstance(a, Jet)), default=1)

    def equations(self) -> list[tuple[Jet, Expr]]:
        t = self.time_var
        return [(jet(dep, (t,)), self.rhs[dep]) for dep in self.jet.dependents]


@dataclass
class ODESystem:
    """System solved for leading s-derivatives: u^A^(m_A) = rhs_A."""

    jet: JetSpec
    leads: dict[str, tuple[int, Expr]]
    label: str = ""

    def __post_init__(self):
        if len(self.jet.independents) != 1:
            raise DomainError("ODE system needs exactly one independent")
        for dep, (m, rhs) in self.leads.items():
            for atom in atoms_of(rhs):
                if isinstance(atom, Jet) and atom.dep == dep and atom.order >= m:
                    raise DomainError(f"rhs of {dep}^({m}) not lower order")

    @property
    def svar(self) -> str:
        return self.jet.independents[0]

    @property
    def order(self) -> int:
        return max((m for m, _ in self.leads.values()), default=0)

    def equations(self) -> list[tuple[Jet, Expr]]:
        s = self.svar
        return [(jet(dep, (s,) * m), rhs)
                for dep, (m, rhs) in sorted(self.leads.items())]

    def equations_zero(self) -> list[Expr]:
        """lead - rhs = 0 form (the leading derivative carries +1)."""
        return [lead.as_expr() - rhs for lead, rhs in self.equations()]


class Reducer:
    """Rewrites reducible jet/function atoms down to free coordinates.

    Every rule reads lead = rhs, where the lead is a jet coordinate or an
    unknown function differentiated m >= 1 times by one variable.  A rule
    reduces every atom of its name that carries that variable at least m
    times, through the rule and its total-derivative consequences.  The rhs
    may not hold an atom its own rule reduces.  Rules are fixed when built, one per name.
    """

    def __init__(self, rules: Iterable[tuple[Atom, Expr]]):
        self._rules: dict[str, tuple[str, int, Expr]] = {}
        for lead, rhs in rules:
            idx = lead.idx if isinstance(lead, (Jet, Func)) else ()
            if not idx or len(set(idx)) != 1:
                raise DomainError(f"rule lead {lead!r} is not a pure derivative")
            name, var, m = _name(lead), idx[0], len(idx)
            if name in self._rules:
                raise DomainError(f"two rules for {name}, the second led by {lead!r}")
            for atom in atoms_of(rhs):
                if isinstance(atom, (Jet, Func)) and _name(atom) == name \
                        and atom.idx.count(var) >= m:
                    raise DomainError(f"rhs of {lead!r} holds {atom!r}, "
                                      f"which the rule reduces")
            self._rules[name] = (var, m, rhs)
        # `value`s by (name, idx), None while in progress, so that cyclic rules raise
        self._memo: dict[tuple[str, tuple[str, ...]], tuple[Expr, int] | None] = {}
        self._exprs: dict[Atom, Expr | None] = {}  # `value`s as `reduce` binds them, or None

    def value(self, atom: Jet | Func) -> tuple[Expr, int] | None:
        """The atom's normal form as (int numerator, denominator); None if no rule reduces it."""
        rule = self._rules.get(_name(atom))
        return self._value(_name(atom), atom.idx) \
            if rule is not None and atom.idx.count(rule[0]) >= rule[1] else None

    def _value(self, name: str, idx: tuple[str, ...]) -> tuple[Expr, int]:
        """`value` of the atom `name` differentiated by `idx`: peel a surplus lead
        variable first, then any other index, down to the rhs.  A consequence
        differentiates the numerator; only values substituted into it need clearing."""
        key = (name, idx)
        got = self._memo.get(key)
        if got is not None:
            return got
        if key in self._memo:
            raise DomainError(f"cyclic rules: {name} differentiated by "
                              f"{''.join(idx)} reduces through itself")
        self._memo[key] = None
        var, m, rhs = self._rules[name]
        if len(idx) == m:
            val, den = self.reduce(rhs), 1
        else:
            i = var if idx.count(var) > m else \
                next(v for v in reversed(idx) if v != var)
            k = idx.index(i)
            num, den = self._value(name, idx[:k] + idx[k + 1:])
            val = self.reduce(total_derivative(num, i))
        terms, d = cleared(val._terms)
        got = self._memo[key] = (val if d == 1 else Expr(terms), den * d)
        return got

    def reduce(self, e: Expr) -> Expr:
        """Substitute every reducible atom, inside trig/exp/reciprocal
        arguments too, by its normal-form value; the values hold no reducible
        atom, so one substitution reaches the normal form.  Atoms map to
        fixed values and results are canonical, so this is a ring
        homomorphism: reduce(a + b) = reduce(a) + reduce(b) and
        reduce(a * b) = reduce(a) * reduce(b), and a sum of products may be
        assembled from factors reduced beforehand."""
        bindings = {atom: v for atom in atoms_of(e) if (v := self._expr(atom)) is not None}
        return substitute(e, bindings) if bindings else e

    def _expr(self, atom: Atom) -> Expr | None:
        if atom not in self._exprs:
            num, den = isinstance(atom, (Jet, Func)) and self.value(atom) or (None, 1)
            self._exprs[atom] = num if den == 1 else Expr(divided(num._terms, den))
        return self._exprs[atom]


def _name(atom: Jet | Func) -> str:
    return atom.dep if isinstance(atom, Jet) else atom.name
