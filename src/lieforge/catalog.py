"""Catalogue of the printed generator families, bracket tables, and closed
forms, with corrected variants where the printed objects fail verification.

Every field here is checkable with `symmetry.verify_generator`; the tests and
the CLI reports flag each printed object that disagrees with the computed
one instead of silently replacing it.
"""

from __future__ import annotations

from fractions import Fraction

from .hierarchy import REAL_JET
from .reduce import ODE_JET
from .symmetry import VectorField, parse_field

__all__ = [
    "ODE_JET", "fields_member2", "fields_member3", "fields_member3_scaling",
    "fields_member4", "fields_reduced2", "fields_reduced2_printed_variants",
    "fields_reduced3", "family_member2", "family_member2_printed",
    "family_member3", "transport_family_examples", "printed_table_member2",
    "printed_table_member3",
]

def _pde(xi=None, eta=None, name=""):
    jet = REAL_JET
    xi = {k: jet.parse(v) for k, v in (xi or {}).items()}
    eta = {k: jet.parse(v) for k, v in (eta or {}).items()}
    return VectorField(jet, xi, eta, name=name)


def _ode(xi=None, eta=None, name=""):
    jet = ODE_JET
    xi = {"s": jet.parse(xi)} if xi else {}
    eta = {k: jet.parse(v) for k, v in (eta or {}).items()}
    return VectorField(jet, xi, eta, name=name)


def fields_member2() -> list[VectorField]:
    """Seven-field algebra of the second member (all verify)."""
    return [
        _pde(xi={"t": "1"}, name="G1a"),
        _pde(xi={"t": "t", "x": "x/2"}, name="G2a"),
        _pde(xi={"t": "t^2", "x": "t*x"},
             eta={"v": "x^2/4", "w": "-t/2"}, name="G3a"),
        _pde(xi={"x": "1"}, name="G4a"),
        _pde(xi={"x": "t"}, eta={"v": "x/2"}, name="G5a"),
        _pde(eta={"v": "1"}, name="G6a"),
        _pde(eta={"w": "1"}, name="G7a"),
    ]


def fields_member3() -> list[VectorField]:
    """Printed third-member fields.  G2b is kept exactly as printed; it fails
    verification (the scaling t d_t + x/3 d_x from fields_member3_scaling is
    the field that verifies)."""
    return [
        _pde(xi={"t": "1"}, name="G1b"),
        _pde(xi={"t": "1", "x": "x/3"}, name="G2b"),
        _pde(xi={"x": "1"}, name="G3b"),
        _pde(eta={"w": "1"}, name="G4b"),
        _pde(eta={"v": "sin(2*v)/2", "w": "-cos(2*v)/2"}, name="G5b"),
        _pde(eta={"v": "cos(2*v)/2", "w": "sin(2*v)/2"}, name="G6b"),
        _pde(eta={"v": "1"}, name="G7b"),
    ]


def fields_member3_scaling() -> VectorField:
    return _pde(xi={"t": "t", "x": "x/3"}, name="G2b*")


def fields_member4() -> list[VectorField]:
    return [
        _pde(xi={"t": "1"}, name="G1c"),
        _pde(eta={"v": "1"}, name="G2c"),
        _pde(eta={"w": "1"}, name="G3c"),
        _pde(xi={"x": "1"}, name="G4c"),
    ]


def fields_reduced2() -> list[VectorField]:
    """Twelve-field algebra of the travelling-wave reduction of member 2.

    G7d and G12d carry corrected signs: the printed versions mix the phases
    f - c s and f + c s and fail verification (see
    fields_reduced2_printed_variants)."""
    return [
        _ode(xi="1", name="G1d"),
        _ode(eta={"f": "cos(2*f)*cos(c*s)/2 + sin(2*f)*sin(c*s)/2",
                  "g": "cos(c*s)*sin(2*f)/2 - cos(2*f)*sin(c*s)/2"}, name="G2d"),
        _ode(eta={"f": "cos(2*f)*sin(c*s)/2 - cos(c*s)*sin(2*f)/2",
                  "g": "cos(2*f)*cos(c*s)/2 + sin(2*f)*sin(c*s)/2"}, name="G3d"),
        _ode(eta={"f": "1"}, name="G4d"),
        _ode(eta={"g": "1"}, name="G5d"),
        _ode(eta={"f": "-exp(-g)*cos(f)", "g": "-exp(-g)*sin(f)"}, name="G6d"),
        _ode(eta={"f": "-exp(-g)*cos(f)*cos(c*s)/c - exp(-g)*sin(f)*sin(c*s)/c",
                  "g": "-exp(-g)*sin(f)*cos(c*s)/c + exp(-g)*cos(f)*sin(c*s)/c"},
             name="G7d"),
        _ode(eta={"f": "exp(-g)*cos(c*s)*sin(f)/c - exp(-g)*cos(f)*sin(c*s)/c",
                  "g": "-exp(-g)*cos(f)*cos(c*s)/c - exp(-g)*sin(f)*sin(c*s)/c"},
             name="G8d"),
        _ode(eta={"f": "-exp(-g)*sin(f)", "g": "exp(-g)*cos(f)"}, name="G9d"),
        _ode(xi="exp(g)*cos(f)",
             eta={"f": "c*exp(g)*cos(f)/2", "g": "-c*exp(g)*sin(f)/2"}, name="G10d"),
        _ode(xi="exp(g)*sin(f)*sin(c*s)/c + exp(g)*cos(f)*cos(c*s)/c",
             eta={"f": "exp(g)*cos(f)*cos(c*s)/2 + exp(g)*sin(f)*sin(c*s)/2",
                  "g": "exp(g)*cos(c*s)*sin(f)/2 - exp(g)*cos(f)*sin(c*s)/2"},
             name="G11d"),
        _ode(xi="-exp(g)*sin(f)*cos(c*s)/c + exp(g)*cos(f)*sin(c*s)/c",
             eta={"f": "-exp(g)*sin(f)*cos(c*s)/2 + exp(g)*cos(f)*sin(c*s)/2",
                  "g": "exp(g)*cos(f)*cos(c*s)/2 + exp(g)*sin(f)*sin(c*s)/2"},
             name="G12d"),
    ]


def fields_reduced2_printed_variants() -> list[VectorField]:
    """G7d and G12d exactly as printed (verification flags them Nonzero)."""
    return [
        _ode(eta={"f": "-exp(-g)*cos(f)*cos(c*s)/c - exp(-g)*sin(f)*sin(c*s)/c",
                  "g": "-exp(-g)*cos(c*s)*sin(f)/c - exp(-g)*cos(f)*sin(c*s)/c"},
             name="G7d(printed)"),
        _ode(xi="-exp(g)*cos(c*s)*sin(f)/c - exp(g)*cos(f)*sin(c*s)/c",
             eta={"f": "-exp(g)*cos(c*s)*sin(f)/2 - exp(g)*cos(f)*sin(c*s)/2",
                  "g": "exp(g)*cos(f)*cos(c*s)/2 + exp(g)*sin(f)*sin(c*s)/2"},
             name="G12d(printed)"),
    ]


def fields_reduced3() -> list[VectorField]:
    """Five-field algebra of the travelling-wave reduction of member 3."""
    return [
        _ode(eta={"f": "1"}, name="G1f"),
        _ode(eta={"g": "1"}, name="G2f"),
        _ode(xi="-sin(sqrt(c)*s)/sqrt(c)", eta={"g": "-cos(sqrt(c)*s)"}, name="G3f"),
        _ode(xi="-cos(sqrt(c)*s)/sqrt(c)", eta={"g": "sin(sqrt(c)*s)"}, name="G4f"),
        _ode(xi="1", name="G5f"),
    ]


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
    return [
        _pde(eta={"v": "(x - t)^2*v"}, name="transport-poly"),
        _pde(eta={"v": "sin(x - t + 2*v)"}, name="transport-sin"),
        _pde(eta={"v": "exp(w)*(x - t)"}, name="transport-exp"),
    ]


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
