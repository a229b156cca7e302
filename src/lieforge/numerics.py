"""Numeric workhorses: Jacobi elliptic sn via the descending Landen/AGM
recursion over one AGM chain per modulus, the complete elliptic integral from
the same AGM, and a classical fixed-step RK4 integrator that stops at a
blow-up."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["jacobi_sn", "sn_function", "elliptic_K", "Trajectory", "integrate_rk4"]

_AGM_TOL = 1e-15

# Most steps `integrate_rk4` takes: 100 times the 2000 of the README's
# `integrate` command and of the benchmark's RK4 jobs.
MAX_RK4_STEPS = 200_000


def _agm_chain(k: float):
    a, b, c = 1.0, math.sqrt(1.0 - k * k), k
    aa, bb, cc = [a], [b], [c]
    while abs(cc[-1]) > _AGM_TOL and len(aa) < 60:
        a, b = 0.5 * (aa[-1] + bb[-1]), math.sqrt(aa[-1] * bb[-1])
        aa.append(a)
        bb.append(b)
        cc.append(0.5 * (aa[-2] - bb[-2]))
    return aa, bb, cc


def sn_function(k: float) -> Callable[[float], float]:
    """The function u -> sn(u, k) over one AGM chain of the modulus k in
    [0, 1): callers that evaluate one modulus many times build it once."""
    if not 0.0 <= k < 1.0:
        raise ValueError("modulus k must lie in [0, 1)")
    if k == 0.0:
        return math.sin
    aa, _, cc = _agm_chain(k)
    n = len(aa) - 1
    scale = (2.0 ** n) * aa[n]
    ratios = [cc[i] / aa[i] for i in range(n, 0, -1)]

    def sn(u: float) -> float:
        phi = scale * u
        for r in ratios:
            phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, r * math.sin(phi)))))
        return math.sin(phi)

    return sn


def jacobi_sn(u: float, k: float) -> float:
    """Jacobi sine amplitude sn(u, k), modulus k in [0, 1)."""
    return sn_function(k)(u)


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind from the AGM limit."""
    if not 0.0 <= k < 1.0:
        raise ValueError("modulus k must lie in [0, 1)")
    aa, _, _ = _agm_chain(k)
    return math.pi / (2.0 * aa[-1])


@dataclass
class Trajectory:
    """Integration output: strictly increasing grid and per-dependent complex
    values, ending at the last step before any blow-up."""

    grid: list[float]
    values: dict[str, list[complex]]
    step: float


def integrate_rk4(rhs, state0: dict[str, complex], s_range: tuple[float, float],
                  h: float, guard: float = 1e8) -> Trajectory:
    """Classical fourth-order Runge-Kutta on an explicit first-order system.

    `rhs(s, state) -> dict` returns the derivative of every dependent.  When
    the state magnitude exceeds `guard` (or becomes NaN) integration stops
    and the trajectory ends at the previous step; nothing is integrated past
    the blow-up point.  Raises ValueError above MAX_RK4_STEPS steps.
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
    n_steps = int(round(steps))
    grid = [s0]
    values = {d: [complex(state0[d])] for d in deps}
    state = {d: complex(state0[d]) for d in deps}

    def add(st, dt, w):
        return {d: st[d] + w * dt[d] for d in deps}

    for i in range(n_steps):
        s = s0 + i * h
        k1 = rhs(s, state)
        k2 = rhs(s + h / 2, add(state, k1, h / 2))
        k3 = rhs(s + h / 2, add(state, k2, h / 2))
        k4 = rhs(s + h, add(state, k3, h))
        state = {d: state[d] + (h / 6) * (k1[d] + 2 * k2[d] + 2 * k3[d] + k4[d])
                 for d in deps}
        if any(abs(state[d]) > guard or state[d] != state[d] for d in deps):
            # continuation past a pole is the caller's concern
            break
        grid.append(s + h)
        for d in deps:
            values[d].append(state[d])
    return Trajectory(grid=grid, values=values, step=h)
