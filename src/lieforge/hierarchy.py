"""Complex Burgers-type hierarchy: recursion operators, member generation,
real/imaginary splitting, the printed catalogue, and the generator-vs-
catalogue audit.

The generator builds members as L^n applied to the seed P(i u_x e^{-i(u-ub)}),
where ub denotes the conjugate dependent, resolved only when splitting into
real and imaginary parts.  The printed catalogue is authoritative for the
symmetry analysis; the fourth printed member deliberately differs from the
raw L^3 application and the audit itemises that delta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr_core import (
    DomainError, Expr, I, Jet, atoms_of, collect_terms, exp_e, jet, substitute,
)
from .parser import expr_text
from .systems import JetSpec, PDESystem, total_derivative

__all__ = [
    "COMPLEX_JET", "REAL_JET", "MAX_MEMBER_N", "apply_operator_P",
    "apply_operator_L", "hierarchy_member", "complex_split",
    "catalogue_member", "audit_member", "AuditReport",
]

MAX_MEMBER_N = 6

COMPLEX_JET = JetSpec(independents=("t", "x"), dependents=("u", "ub"), constants=())
REAL_JET = JetSpec(independents=("t", "x"), dependents=("v", "w"), constants=())


def _check_complex(e: Expr, op: str) -> None:
    for atom in atoms_of(e):
        if isinstance(atom, Jet) and atom.dep not in ("u", "ub"):
            raise DomainError(f"{op} expects the complex (u, ub) jet space")


def apply_operator_P(beta: Expr) -> Expr:
    """P(beta) = i e^{i(u - ub)} beta."""
    _check_complex(beta, "P")
    phase = exp_e(I.as_expr() * (jet("u").as_expr() - jet("ub").as_expr()))
    return I.as_expr() * phase * beta


def apply_operator_L(tau: Expr) -> Expr:
    """L(tau) = i D_x(tau) + u_x tau."""
    _check_complex(tau, "L")
    return I.as_expr() * total_derivative(tau, "x") + jet("u", ("x",)).as_expr() * tau


def hierarchy_member(n: int) -> Expr:
    """Complex right-hand side of u_t for member n+1:  L^n P(i u_x e^{-i(u-ub)})."""
    if not (0 <= n <= MAX_MEMBER_N):
        raise DomainError(f"member index n={n} outside 0..{MAX_MEMBER_N}")
    seed = I.as_expr() * jet("u", ("x",)).as_expr() * \
        exp_e(-I.as_expr() * (jet("u").as_expr() - jet("ub").as_expr()))
    rhs = apply_operator_P(seed)
    for _ in range(n):
        rhs = apply_operator_L(rhs)
    return rhs


def complex_split(rhs: Expr) -> tuple[Expr, Expr]:
    """Substitute u = v + i w, ub = v - i w and split off the i coefficient."""
    iv = I.as_expr()
    bindings = {}
    for atom in atoms_of(rhs):
        if isinstance(atom, Jet) and atom.dep == "u":
            bindings[atom] = jet("v", atom.idx).as_expr() + iv * jet("w", atom.idx).as_expr()
        elif isinstance(atom, Jet) and atom.dep == "ub":
            bindings[atom] = jet("v", atom.idx).as_expr() - iv * jet("w", atom.idx).as_expr()
    parts = collect_terms(substitute(rhs, bindings), [Expr.one(), iv])
    return parts[Expr.one()], parts[iv]


_CATALOGUE = {
    1: ("-v_x", "-w_x"),
    2: ("-v_x^2 + w_x^2 + w_xx", "-2*v_x*w_x - v_xx"),
    3: ("-v_x^3 + 3*v_x*w_x^2 + 3*w_x*v_xx + 3*v_x*w_xx + v_xxx",
        "-3*v_x^2*w_x + w_x^3 - 3*v_x*v_xx + 3*w_x*w_xx + w_xxx"),
    4: ("v_x^4 - 6*v_x^2*w_x^2 + w_x^4 + 3*w_x*v_xx + 6*v_x*w_x*v_xx + 3*v_xx^2"
        " + 3*v_x*w_xx + 3*v_x^2*w_xx - 3*w_x^2*w_xx - 3*w_xx^2"
        " + 4*v_x*v_xxx - 4*w_x*w_xxx - w_xxxx",
        "4*v_x^3*w_x - 4*v_x*w_x^3 - 3*v_x*v_xx - 3*v_x^2*v_xx + 3*w_x^2*v_xx"
        " + 3*w_x*w_xx + 6*v_x*w_x*w_xx + 6*v_xx*w_xx + 4*w_x*v_xxx"
        " + 4*v_x*w_xxx + v_xxxx"),
}

_MEMBER_NAMES = {1: "transport pair", 2: "complex Burgers (split)",
                 3: "complex Sharma-Tasso-Olver (split)", 4: "fourth member (split)"}


def catalogue_member(k: int) -> PDESystem:
    """The printed real/imaginary system for member k (authoritative)."""
    if k not in _CATALOGUE:
        raise DomainError(f"catalogue member k={k} outside 1..4")
    v_rhs, w_rhs = _CATALOGUE[k]
    return PDESystem(jet=REAL_JET,
                     rhs={"v": REAL_JET.parse(v_rhs), "w": REAL_JET.parse(w_rhs)},
                     label=f"member {k}: {_MEMBER_NAMES[k]}")


@dataclass
class AuditReport:
    match: bool
    delta_v: Expr
    delta_w: Expr

    def itemized(self) -> dict[str, list[str]]:
        out = {}
        for name, delta in (("v_t", self.delta_v), ("w_t", self.delta_w)):
            out[name] = [expr_text(Expr({m: q})) for m, q in delta.terms()]
        return out


def audit_member(k: int) -> AuditReport:
    """Symbolic difference printed-catalogue minus generated L^{k-1} member."""
    gen_v, gen_w = complex_split(hierarchy_member(k - 1))
    cat = catalogue_member(k)
    dv = cat.rhs["v"] - gen_v
    dw = cat.rhs["w"] - gen_w
    return AuditReport(dv.is_zero() and dw.is_zero(), dv, dw)
