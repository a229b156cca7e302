"""Correctness oracles for the benchmark's jobs.

Each oracle compares a job's answer with a reference that the layer under
test did not produce: the benchmark's own Fraction dot products, its own
complex and `math` closed forms, hard-coded mathematical facts (dimensions
of the symmetry spaces, algebra signatures, which fields are symmetries),
or a second layer of the library evaluating the same object another way.
Every function returns None when the answer is correct and a one-line
message otherwise, so a planted wrong answer can be tested directly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# Tolerances of the numeric oracles.
JACOBI_TOL = 1e-9   # Jacobi identity on numerically specialised constants
RK4_TOL = 1e-6      # RK4 trajectory against the tan closed form
FIG1_TOL = 1e-9     # fig1 rows against the s11 closed form
SPLIT_TOL = 1e-9    # complex member against its real split
S11_FLOOR = 0.1     # least residual of the printed s11 profile


def nullspace_annihilates(rows: list[dict[int, Fraction]],
                          vectors: list[dict[int, Fraction]]) -> str | None:
    """Every vector is nonzero and has a zero dot product with every row."""
    for k, vec in enumerate(vectors):
        if not any(vec.values()):
            return f"nullspace vector {k} is zero"
        for r, row in enumerate(rows):
            dot = sum((q * vec[c] for c, q in row.items() if c in vec),
                      Fraction(0))
            if dot:
                return f"nullspace vector {k} misses row {r} by {dot}"
    return None


def rank(vectors: list[dict[int, Fraction]]) -> int:
    """Rank of sparse rational vectors by Fraction elimination."""
    pivots: dict[int, dict[int, Fraction]] = {}  # pivot column -> row, entry 1
    for vec in vectors:
        v = {c: q for c, q in vec.items() if q}
        for col in sorted(pivots):
            q = v.get(col)
            if q:
                for c, p in pivots[col].items():
                    v[c] = v.get(c, Fraction(0)) - q * p
                v = {c: x for c, x in v.items() if x}
        if v:
            col = min(v)
            lead = v[col]
            pivots[col] = {c: x / lead for c, x in v.items()}
    return len(pivots)


def field_vector(field_slots: dict[tuple[str, str], dict], columns) -> dict[int, Fraction] | None:
    """Coordinates of a generator over dictionary columns.

    `field_slots` maps (kind, var) to {monomial: coefficient} of that slot;
    `columns` lists (slot, index, unit-monomial expression terms).  Returns
    None when a term of the field lies outside the dictionary."""
    vec: dict[int, Fraction] = {}
    used: dict[tuple[str, str], int] = {}
    for col, (slot, _, mono) in enumerate(columns):
        q = field_slots.get(slot, {}).get(mono)
        if q:
            vec[col] = q
            used[slot] = used.get(slot, 0) + 1
    for slot, terms in field_slots.items():
        if sum(1 for q in terms.values() if q) != used.get(slot, 0):
            return None
    return vec


def equal(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def jacobi_numeric(consts: list[list[list[complex]]]) -> str | None:
    """Jacobi identity on numerically specialised structure constants
    c[i][j][k] of [e_i, e_j] = sum_k c[i][j][k] e_k."""
    n = len(consts)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    s = sum(consts[i][j][p] * consts[p][k][m]
                            + consts[j][k][p] * consts[p][i][m]
                            + consts[k][i][p] * consts[p][j][m]
                            for p in range(n))
                    if abs(s) > JACOBI_TOL:
                        return f"Jacobi fails at ({i},{j},{k}) component {m}: {s}"
    return None


def below(value: float, tol: float, what: str) -> str | None:
    if math.isfinite(value) and value < tol:
        return None
    return f"{what} {value!r} not below {tol}"


def order_one_residual(value: float) -> str | None:
    """The printed s11 profile is not a solution: its residual must stay a
    finite O(1) quantity, never collapse towards zero."""
    if math.isfinite(value) and value >= S11_FLOOR:
        return None
    return f"s11 residual {value!r} is not O(1) (floor {S11_FLOOR})"


def tan_profile_G(s: float, c: float, s0: float) -> float:
    """Closed form G = -(c/2) tan((c/2)(s - s0)) of the first-order pair."""
    return -0.5 * c * math.tan(0.5 * c * (s - s0))


def rk4_matches_tan(grid, F_vals, G_vals, c: float, s0: float) -> str | None:
    """RK4 trajectory against the tan closed form (F stays c/2)."""
    for s, F, G in zip(grid, F_vals, G_vals):
        if abs(F - 0.5 * c) > RK4_TOL:
            return f"RK4 F = {F!r} at s = {s} drifts from c/2"
        want = tan_profile_G(s, c, s0)
        if not abs(G - want) <= RK4_TOL * max(1.0, abs(want)):
            return f"RK4 G = {G!r} at s = {s}, closed form {want!r}"
    return None


def s11_F(s: float, c: float, F0: float, F1: float) -> complex:
    """Printed closed form F = (c/2) N / D with q = exp(-i c s),
    D = F0 (q^2 - F1 c)^2 - 16 c^2, N = D - 8 c F0 q."""
    q = cmath.exp(-1j * c * s)
    D = F0 * (q * q - F1 * c) ** 2 - 16 * c * c
    return 0.5 * c * (D - 8 * c * F0 * q) / D


def s11_G(s: float, c: float, F0: float, F1: float) -> complex:
    """G = -F'/(2F - c) with F' differentiated by hand."""
    q = cmath.exp(-1j * c * s)
    dq = -1j * c * q
    D = F0 * (q * q - F1 * c) ** 2 - 16 * c * c
    dD = 2 * F0 * (q * q - F1 * c) * 2 * q * dq
    # F = c/2 - 4 c^2 F0 q / D
    dF = -4 * c * c * F0 * (dq * D - q * dD) / (D * D)
    F = 0.5 * c - 4 * c * c * F0 * q / D
    return -dF / (2 * F - c)


def fig1_matches(rows, c: float, F0: float, F1: float) -> str | None:
    """Sampled (s, F, G) rows against the benchmark's own closed form."""
    if not rows:
        return "fig1 produced no rows"
    for s, F, G in rows:
        for name, got, want in (("F", F, s11_F(s, c, F0, F1)),
                                ("G", G, s11_G(s, c, F0, F1))):
            if not abs(got - want) <= FIG1_TOL * max(1.0, abs(want)):
                return f"fig1 {name}({s}) = {got!r}, closed form {want!r}"
    return None


def split_consistent(z: complex, v: complex, w: complex) -> str | None:
    """u_t evaluated on u = v + i w equals v_t + i w_t, both parts real."""
    scale = max(1.0, abs(z))
    if abs(v.imag) > SPLIT_TOL * scale or abs(w.imag) > SPLIT_TOL * scale:
        return f"split parts not real: {v!r}, {w!r}"
    if abs(z - (v.real + 1j * w.real)) > SPLIT_TOL * scale:
        return f"split {v.real!r} + i {w.real!r} differs from member value {z!r}"
    return None
