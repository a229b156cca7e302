"""Numeric workhorses: Jacobi elliptic sn and its exact derivatives via the
descending Landen/AGM recursion over one AGM chain per modulus, the complete
elliptic integral from the same AGM, and a classical fixed-step RK4
integrator that stops at a blow-up."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["jacobi_sn", "sn_jet", "elliptic_K", "Trajectory", "integrate_rk4"]

_AGM_TOL = 1e-15

# Most steps `integrate_rk4` takes: 100 times the 2000 of the README's
# `integrate` command and of the benchmark's RK4 jobs.
MAX_RK4_STEPS = 200_000
# State magnitude past which `integrate_rk4` stops: the run has blown up.
RK4_GUARD = 1e8


def _agm_chain(k: float):
    a, b, c = 1.0, math.sqrt(1.0 - k * k), k
    aa, cc = [a], [c]
    while abs(c) > _AGM_TOL and len(aa) < 60:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        aa.append(a)
        cc.append(c)
    return aa, cc


def _landen(k: float) -> tuple[float, list[float]]:
    """Start scale 2^n a_n and ratios c_i / a_i, i = n..1, of the Landen steps."""
    if not 0.0 <= k < 1.0:
        raise ValueError("modulus k must lie in [0, 1)")
    aa, cc = _agm_chain(k)
    n = len(aa) - 1
    return (2.0 ** n) * aa[n], [cc[i] / aa[i] for i in range(n, 0, -1)]


def sn_jet(k: float, amplitude: float = 1.0) -> Callable[[float], list[float]]:
    """u -> [A sn, A sn', A sn''] at modulus k, A the amplitude: Taylor-mode derivatives
    (Griewank & Walther, Evaluating Derivatives, ch. 13) of phi = am u carried through
    the descending Landen steps (DLMF 22.20) over one AGM chain of k in [0, 1)."""
    scale, ratios = _landen(k)
    asin, sin, cos, sqrt = math.asin, math.sin, math.cos, math.sqrt

    def jet(u: float) -> list[float]:
        phi, d1, d2 = scale * u, scale, 0.0
        for r in ratios:
            sp, cp = sin(phi), cos(phi)
            x, x1, x2 = r * sp, r * cp * d1, r * (cp * d2 - sp * d1 * d1)
            w = 1.0 / sqrt(1.0 - x * x)  # asin' at x, |x| <= r < 1
            phi = 0.5 * (phi + asin(x if -1.0 < x < 1.0 else -1.0 if x < 0.0 else 1.0))
            d1, d2 = 0.5 * (d1 + x1 * w), 0.5 * (d2 + (x2 + x * x1 * x1 * w * w) * w)
        sp, cp = sin(phi), cos(phi)
        return [amplitude * sp, amplitude * cp * d1, amplitude * (cp * d2 - sp * d1 * d1)]

    return jet


def jacobi_sn(u: float, k: float) -> float:
    """Jacobi sine amplitude sn(u, k), modulus k in [0, 1)."""
    return sn_jet(k)(u)[0]


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind from the AGM limit."""
    scale, ratios = _landen(k)
    return math.pi / (2.0 * (scale / 2.0 ** len(ratios)))  # a_n, exactly


@dataclass
class Trajectory:
    """Integration output: strictly increasing grid and per-dependent complex
    values, ending at the last step before any blow-up."""

    grid: list[float]
    values: dict[str, list[complex]]
    step: float


def integrate_rk4(plan, state0: dict[str, complex], s_range: tuple[float, float],
                  h: float, guard: float = RK4_GUARD, bound: Sequence = ()) -> Trajectory:
    """Classical fourth-order Runge-Kutta on an explicit first-order system.

    `plan` is a NumericPlan over the `bound` values, s and the state in sorted
    dependent order, returning the derivatives in that order; `plan.rk4`
    compiles the loop.  When the state magnitude exceeds `guard` (or becomes
    NaN) integration stops and the trajectory ends at the previous step;
    nothing is integrated past the blow-up point.  Raises ValueError above
    MAX_RK4_STEPS steps.
    """
    if not all(map(math.isfinite, (h, *s_range))):
        raise ValueError(f"RK4 step {h} and range ends {s_range} must be finite")
    if h <= 0:
        raise ValueError("step size must be positive")
    s0, s1 = s_range
    if s1 <= s0:
        raise ValueError("empty integration range")
    steps = (s1 - s0) / h
    if not steps <= MAX_RK4_STEPS:
        raise ValueError(f"RK4 step count {steps:g} exceeds the budget of "
                         f"{MAX_RK4_STEPS}")
    deps = sorted(state0)
    # continuation past a pole is the caller's concern
    grid, columns = plan.rk4(len(bound))(bound, s0, [complex(state0[d]) for d in deps],
                                         h, int(round(steps)), guard)
    return Trajectory(grid, dict(zip(deps, columns)), h)
