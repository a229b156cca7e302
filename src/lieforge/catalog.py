"""Catalogue of the printed generator fields and families and bracket tables,
with corrected variants where the printed objects fail verification.

Every field here is field-file text read by `symmetry.parse_field` and
checkable with `symmetry.verify_generator`; the tests and
the CLI reports flag each printed object that disagrees with the computed
one instead of silently replacing it.
"""

from __future__ import annotations

from fractions import Fraction

from .hierarchy import REAL_JET
from . import reduce as red
from .symmetry import VectorField, parse_field

__all__ = [
    "fields_member2", "fields_member3", "fields_member3_scaling",
    "fields_member4", "fields_reduced2", "fields_reduced2_printed_variants",
    "fields_reduced3", "family_member2", "family_member2_printed",
    "family_member3", "transport_family_examples", "printed_table_member2",
    "printed_table_member3",
]


def fields_member2() -> list[VectorField]:
    """Seven-field algebra of the second member (all verify)."""
    return [parse_field(text, REAL_JET, name) for name, text in (
        ("G1a", "xi_t = 1"),
        ("G2a", "xi_t = t\nxi_x = x/2"),
        ("G3a", "xi_t = t^2\nxi_x = t*x\neta_v = x^2/4\neta_w = -t/2"),
        ("G4a", "xi_x = 1"),
        ("G5a", "xi_x = t\neta_v = x/2"),
        ("G6a", "eta_v = 1"),
        ("G7a", "eta_w = 1"),
    )]


def fields_member3() -> list[VectorField]:
    """Printed third-member fields.  G2b is kept exactly as printed; it fails
    verification (the scaling t d_t + x/3 d_x from fields_member3_scaling is
    the field that verifies)."""
    return [parse_field(text, REAL_JET, name) for name, text in (
        ("G1b", "xi_t = 1"),
        ("G2b", "xi_t = 1\nxi_x = x/3"),
        ("G3b", "xi_x = 1"),
        ("G4b", "eta_w = 1"),
        ("G5b", "eta_v = sin(2*v)/2\neta_w = -cos(2*v)/2"),
        ("G6b", "eta_v = cos(2*v)/2\neta_w = sin(2*v)/2"),
        ("G7b", "eta_v = 1"),
    )]


def fields_member3_scaling() -> VectorField:
    return parse_field("xi_t = t\nxi_x = x/3", REAL_JET, "G2b*")


def fields_member4() -> list[VectorField]:
    return [parse_field(text, REAL_JET, name) for name, text in (
        ("G1c", "xi_t = 1"),
        ("G2c", "eta_v = 1"),
        ("G3c", "eta_w = 1"),
        ("G4c", "xi_x = 1"),
    )]


def fields_reduced2() -> list[VectorField]:
    """Twelve-field algebra of the travelling-wave reduction of member 2.

    G7d and G12d carry corrected signs: the printed versions mix the phases
    f - c s and f + c s and fail verification (see
    fields_reduced2_printed_variants)."""
    return [parse_field(text, red.ODE_JET, name) for name, text in (
        ("G1d", "xi_s = 1"),
        ("G2d", "eta_f = cos(2*f)*cos(c*s)/2 + sin(2*f)*sin(c*s)/2\n"
                "eta_g = cos(c*s)*sin(2*f)/2 - cos(2*f)*sin(c*s)/2"),
        ("G3d", "eta_f = cos(2*f)*sin(c*s)/2 - cos(c*s)*sin(2*f)/2\n"
                "eta_g = cos(2*f)*cos(c*s)/2 + sin(2*f)*sin(c*s)/2"),
        ("G4d", "eta_f = 1"),
        ("G5d", "eta_g = 1"),
        ("G6d", "eta_f = -exp(-g)*cos(f)\neta_g = -exp(-g)*sin(f)"),
        ("G7d", "eta_f = -exp(-g)*cos(f)*cos(c*s)/c - exp(-g)*sin(f)*sin(c*s)/c\n"
                "eta_g = -exp(-g)*sin(f)*cos(c*s)/c + exp(-g)*cos(f)*sin(c*s)/c"),
        ("G8d", "eta_f = exp(-g)*cos(c*s)*sin(f)/c - exp(-g)*cos(f)*sin(c*s)/c\n"
                "eta_g = -exp(-g)*cos(f)*cos(c*s)/c - exp(-g)*sin(f)*sin(c*s)/c"),
        ("G9d", "eta_f = -exp(-g)*sin(f)\neta_g = exp(-g)*cos(f)"),
        ("G10d", "xi_s = exp(g)*cos(f)\n"
                 "eta_f = c*exp(g)*cos(f)/2\neta_g = -c*exp(g)*sin(f)/2"),
        ("G11d", "xi_s = exp(g)*sin(f)*sin(c*s)/c + exp(g)*cos(f)*cos(c*s)/c\n"
                 "eta_f = exp(g)*cos(f)*cos(c*s)/2 + exp(g)*sin(f)*sin(c*s)/2\n"
                 "eta_g = exp(g)*cos(c*s)*sin(f)/2 - exp(g)*cos(f)*sin(c*s)/2"),
        ("G12d", "xi_s = -exp(g)*sin(f)*cos(c*s)/c + exp(g)*cos(f)*sin(c*s)/c\n"
                 "eta_f = -exp(g)*sin(f)*cos(c*s)/2 + exp(g)*cos(f)*sin(c*s)/2\n"
                 "eta_g = exp(g)*cos(f)*cos(c*s)/2 + exp(g)*sin(f)*sin(c*s)/2"),
    )]


def fields_reduced2_printed_variants() -> list[VectorField]:
    """G7d and G12d exactly as printed (verification flags them Nonzero)."""
    return [parse_field(text, red.ODE_JET, name) for name, text in (
        ("G7d(printed)",
         "eta_f = -exp(-g)*cos(f)*cos(c*s)/c - exp(-g)*sin(f)*sin(c*s)/c\n"
         "eta_g = -exp(-g)*cos(c*s)*sin(f)/c - exp(-g)*cos(f)*sin(c*s)/c"),
        ("G12d(printed)",
         "xi_s = -exp(g)*cos(c*s)*sin(f)/c - exp(g)*cos(f)*sin(c*s)/c\n"
         "eta_f = -exp(g)*cos(c*s)*sin(f)/2 - exp(g)*cos(f)*sin(c*s)/2\n"
         "eta_g = exp(g)*cos(f)*cos(c*s)/2 + exp(g)*sin(f)*sin(c*s)/2"),
    )]


def fields_reduced3() -> list[VectorField]:
    """Five-field algebra of the travelling-wave reduction of member 3."""
    return [parse_field(text, red.ODE_JET, name) for name, text in (
        ("G1f", "eta_f = 1"),
        ("G2f", "eta_g = 1"),
        ("G3f", "xi_s = -sin(sqrt(c)*s)/sqrt(c)\neta_g = -cos(sqrt(c)*s)"),
        ("G4f", "xi_s = -cos(sqrt(c)*s)/sqrt(c)\neta_g = sin(sqrt(c)*s)"),
        ("G5f", "xi_s = 1"),
    )]


# ---------------------------------------------------------------------------
# infinite families carried by unknown functions
# ---------------------------------------------------------------------------

# eta blocks of the two families, in the field-file grammar of parse_field
_MEMBER2_ETA = ("\neta_v = -exp(-w)*(b*cos(v) + a*sin(v))"
                "\neta_w = exp(-w)*(a*cos(v) - b*sin(v))")
_MEMBER3_ETA = ("\neta_v = -exp(-w)*(c*cos(v) + d*sin(v))"
                "\neta_w = -exp(-w)*(-d*cos(v) + c*sin(v))")


def family_member2() -> VectorField:
    """Unknown-function part of the generic second-member symmetry with the
    coupled constraints a_t = b_xx, b_t = -a_xx that make it verify (direct
    substitution; the separately printed heat constraints do not)."""
    return parse_field("unknown a(t,x): a_t = b_xx\nunknown b(t,x): b_t = -a_xx"
                       + _MEMBER2_ETA, REAL_JET, "member2-family")


def family_member2_printed() -> VectorField:
    """Same coefficients with the separate heat constraints as printed
    (a_t = a_xx, b_t = b_xx); verification flags a nonzero remainder."""
    return parse_field("unknown a(t,x): a_t = a_xx\nunknown b(t,x): b_t = b_xx"
                       + _MEMBER2_ETA, REAL_JET, "member2-family")


def family_member2_partial() -> VectorField:
    """Negative control: one constraint dropped."""
    return parse_field("unknown a(t,x): a_t = b_xx\nunknown b(t,x)" + _MEMBER2_ETA,
                       REAL_JET, "member2-family")


def family_member3() -> VectorField:
    """c,d-family of the third member with the printed third-order
    constraints c_t = c_xxx, d_t = d_xxx (verifies as printed)."""
    return parse_field("unknown c(t,x): c_t = c_xxx\nunknown d(t,x): d_t = d_xxx"
                       + _MEMBER3_ETA, REAL_JET, "member3-family")


def family_member3_partial() -> VectorField:
    return parse_field("unknown c(t,x): c_t = c_xxx\nunknown d(t,x)" + _MEMBER3_ETA,
                       REAL_JET, "member3-family-partial")


def transport_family_examples() -> list[VectorField]:
    """Concrete instances of the transport-pair family c_a(x - t, v, w) d_v:
    polynomial, trig, and exponential choices."""
    return [parse_field(text, REAL_JET, name) for name, text in (
        ("transport-poly", "eta_v = (x - t)^2*v"),
        ("transport-sin", "eta_v = sin(x - t + 2*v)"),
        ("transport-exp", "eta_v = exp(w)*(x - t)"),
    )]


# ---------------------------------------------------------------------------
# printed bracket tables (for disagreement reports)
# ---------------------------------------------------------------------------

def printed_table_member2() -> list[tuple[str, str, dict[str, Fraction]]]:
    """The eight printed second-member bracket entries, as combinations of
    the printed field names (several disagree with the computed table)."""
    return [
        ("G1a", "G5a", {"G1a": Fraction(1)}),
        ("G1a", "G6a", {"G2a": Fraction(1)}),
        ("G1a", "G7a", {"G5a": Fraction(2), "G4a": Fraction(-1, 2)}),
        ("G2a", "G5a", {"G2a": Fraction(1, 2)}),
        ("G2a", "G6a", {"G3a": Fraction(1, 2)}),
        ("G2a", "G7a", {"G6a": Fraction(1)}),
        ("G5a", "G6a", {"G6a": Fraction(1, 2)}),
        ("G5a", "G7a", {"G7a": Fraction(1)}),
    ]


def printed_table_member3() -> list[tuple[str, str, dict[str, Fraction]]]:
    return [
        ("G1b", "G3b", {"G1b": Fraction(1)}),
        ("G2b", "G3b", {"G2b": Fraction(1, 3)}),
        ("G5b", "G6b", {"G7b": Fraction(-1, 2)}),
        ("G5b", "G7b", {"G6b": Fraction(-2)}),
    ]
