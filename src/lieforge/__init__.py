"""lieforge: symbolic Lie point symmetry engine and travelling-wave
reduction toolkit for complex Burgers-type evolution systems."""

from .expr_core import (
    Atom, DomainError, Expr, I, NumericPlan, PoleError, UnboundAtomError,
    ZeroStatus, atoms_of, collect_terms, cos_e, derive, equals_zero,
    eval_numeric, exp_e, func, jet, recip_e, root, sin_e, sqrt_e,
    substitute, sym, tan_e, to_canonical,
)
from .parser import ParseError, UnknownIdentifierError, expr_text, parse_expr
from .systems import JetSpec, ODESystem, PDESystem, Reducer, total_derivative
from .hierarchy import (
    apply_operator_L, apply_operator_P, audit_member, catalogue_member,
    complex_split, hierarchy_member,
)

__version__ = "0.1.0"
