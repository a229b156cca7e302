"""Jet contexts, evolution systems, total derivatives, and on-solution
normal-form reduction.

A PDE system is kept in evolution form u^A_t = Phi^A with every Phi free of
t-derivatives; an ODE system is kept solved for its highest s-derivatives
u^A^(m) = rhs.  The Reducer rewrites any derivative reachable from those
leading ones (mixed t-derivatives, higher s-derivatives, and derivatives of
constrained unknown functions) down to the free coordinates, which is what
"evaluate on solutions" means throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr_core import (
    Atom, DomainError, Expr, Func, Jet, atoms_of, derive, jet, func,
    substitute, sym,
)
from .parser import parse_expr

__all__ = ["JetSpec", "PDESystem", "ODESystem", "total_derivative", "Reducer"]


@dataclass(frozen=True)
class JetSpec:
    """Variable context: independents, dependents, named constants, and
    declared unknown functions (name -> argument symbols)."""

    independents: tuple[str, ...]
    dependents: tuple[str, ...]
    constants: tuple[str, ...] | None = ()
    functions: tuple[tuple[str, tuple[str, ...]], ...] = ()
    max_order: int = 8

    def parse(self, text: str) -> Expr:
        return parse_expr(text, self)

    def with_functions(self, funcs: dict[str, tuple[str, ...]]) -> "JetSpec":
        return JetSpec(self.independents, self.dependents, self.constants,
                       tuple(sorted(funcs.items())), self.max_order)

    def with_constants(self, names) -> "JetSpec":
        extra = tuple(n for n in names if n not in (self.constants or ()))
        consts = None if self.constants is None else self.constants + extra
        return JetSpec(self.independents, self.dependents, consts,
                       self.functions, self.max_order)


def total_derivative(e: Expr, indep: str) -> Expr:
    """Total derivative D_indep: chain rule through every jet coordinate and
    unknown-function atom, raising derivative multisets."""
    x = sym(indep)
    out = derive(e, x)
    for atom in atoms_of(e):
        if isinstance(atom, Jet):
            raised = jet(atom.dep, atom.idx + (indep,))
        elif isinstance(atom, Func):
            if indep not in atom.args:
                continue
            raised = func(atom.name, atom.args, atom.idx + (indep,))
        else:
            continue
        d = derive(e, atom)
        if not d.is_zero():
            out = out + d * raised.as_expr()
    return out


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
                if isinstance(atom, Jet) and atom.order > self.jet.max_order:
                    raise DomainError(f"jet order beyond max_order: {atom!r}")

    @property
    def time_var(self) -> str:
        return self.jet.independents[0]

    @property
    def space_var(self) -> str:
        return self.jet.independents[1]

    @property
    def order(self) -> int:
        return max((a.order for phi in self.rhs.values()
                    for a in atoms_of(phi) if isinstance(a, Jet)), default=1)

    def equations(self) -> list[tuple[Jet, Expr]]:
        t = self.time_var
        return [(jet(dep, (t,)), self.rhs[dep]) for dep in self.jet.dependents]

    def reducer(self) -> "Reducer":
        return Reducer.for_pde(self)


@dataclass
class ODESystem:
    """System solved for leading s-derivatives: u^A^(m_A) = rhs_A."""

    jet: JetSpec
    leads: dict[str, tuple[int, Expr]]
    label: str = ""
    parameters: tuple[str, ...] = ()

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
        return max(m for m, _ in self.leads.values())

    def equations(self) -> list[tuple[Jet, Expr]]:
        s = self.svar
        return [(jet(dep, (s,) * m), rhs)
                for dep, (m, rhs) in sorted(self.leads.items())]

    def equations_zero(self) -> list[Expr]:
        """lead - rhs = 0 form (the leading derivative carries +1)."""
        return [lead.as_expr() - rhs for lead, rhs in self.equations()]

    def reducer(self) -> "Reducer":
        return Reducer.for_ode(self)


class Reducer:
    """Rewrites reducible jet/function atoms down to free coordinates.

    Rules:
      * PDE dependents: any derivative containing t reduces through
        u_t = Phi and its total-derivative consequences.
      * ODE dependents: any s-order >= m reduces through the lead equation.
      * constrained unknown functions: same, per their constraint rule.
    """

    def __init__(self):
        self._pde_rules: dict[str, tuple[str, str, Expr]] = {}
        self._ode_rules: dict[str, tuple[str, int, Expr]] = {}
        self._memo: dict[tuple, Expr] = {}

    @staticmethod
    def for_pde(system: PDESystem) -> "Reducer":
        r = Reducer()
        for dep, phi in system.rhs.items():
            r.add_pde_rule(dep, system.time_var, system.space_var, phi)
        return r

    @staticmethod
    def for_ode(system: ODESystem) -> "Reducer":
        r = Reducer()
        for dep, (m, rhs) in system.leads.items():
            r.add_ode_rule(dep, system.svar, m, rhs)
        return r

    def add_pde_rule(self, name: str, tvar: str, xvar: str, rhs: Expr):
        self._pde_rules[name] = (tvar, xvar, rhs)

    def add_ode_rule(self, name: str, svar: str, m: int, rhs: Expr):
        self._ode_rules[name] = (svar, m, rhs)

    def _reducible(self, atom: Atom) -> bool:
        name = atom.dep if isinstance(atom, Jet) else \
            atom.name if isinstance(atom, Func) else None
        if name is None:
            return False
        if name in self._pde_rules:
            tvar = self._pde_rules[name][0]
            return tvar in atom.idx
        if name in self._ode_rules:
            svar, m, _ = self._ode_rules[name]
            return atom.idx.count(svar) >= m
        return False

    def value_of(self, atom: Atom) -> Expr:
        """Normal-form value of a reducible atom."""
        name = atom.dep if isinstance(atom, Jet) else atom.name
        if name in self._pde_rules:
            tvar, xvar, _ = self._pde_rules[name]
            return self._pde_value(name, atom.idx.count(tvar), atom.idx.count(xvar))
        svar, m, _ = self._ode_rules[name]
        return self._ode_value(name, atom.idx.count(svar))

    def _pde_value(self, name: str, a: int, b: int) -> Expr:
        key = ("pde", name, a, b)
        got = self._memo.get(key)
        if got is not None:
            return got
        tvar, xvar, phi = self._pde_rules[name]
        if a == 1:
            val = phi
            for _ in range(b):
                val = total_derivative(val, xvar)
            val = self.reduce(val)
        else:
            val = total_derivative(self._pde_value(name, a - 1, b), tvar)
            val = self.reduce(val)
        self._memo[key] = val
        return val

    def _ode_value(self, name: str, k: int) -> Expr:
        key = ("ode", name, k)
        got = self._memo.get(key)
        if got is not None:
            return got
        svar, m, rhs = self._ode_rules[name]
        if k == m:
            val = self.reduce(rhs)
        else:
            val = total_derivative(self._ode_value(name, k - 1), svar)
            val = self.reduce(val)
        self._memo[key] = val
        return val

    def reduce(self, e: Expr) -> Expr:
        """Substitute every reducible atom by its normal-form value."""
        for _ in range(64):
            bindings = {}
            for atom in atoms_of(e, recurse=False):
                if isinstance(atom, (Jet, Func)) and self._reducible(atom):
                    bindings[atom] = self.value_of(atom)
            if not bindings:
                return e
            e = substitute(e, bindings)
        raise DomainError("substitution closure not reached")
