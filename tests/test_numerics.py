"""Elliptic function and integrator self-consistency."""

import math
import random

import pytest

from lieforge.numerics import _agm_chain, elliptic_K, integrate_rk4, jacobi_sn, sn_function
from lieforge.reduce import fd_weights, sn_solution


def _sn_per_call(u, k):
    """sn(u, k) recomputing the AGM chain, operation by operation as the
    chain-once form must reproduce."""
    if k == 0.0:
        return math.sin(u)
    aa, _, cc = _agm_chain(k)
    n = len(aa) - 1
    phi = (2.0 ** n) * aa[n] * u
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, cc[i] / aa[i] * math.sin(phi)))))
    return math.sin(phi)


class TestJacobiSn:
    def test_sn_zero(self):
        for k in (0.0, 0.3, 0.9, 0.99):
            assert jacobi_sn(0.0, k) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_modulus(self):
        for u in (-2.0, -0.3, 0.7, 3.1):
            assert jacobi_sn(u, 0.0) == pytest.approx(math.sin(u), abs=1e-14)

    def test_quarter_period(self):
        for k in (0.2, 0.5, 0.9):
            K = elliptic_K(k)
            assert jacobi_sn(K, k) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_domain(self):
        with pytest.raises(ValueError):
            jacobi_sn(1.0, 1.0)
        with pytest.raises(ValueError):
            elliptic_K(-0.1)

    def test_derivative_identity(self):
        # (sn')^2 = (1 - sn^2)(1 - k^2 sn^2) via centered differences
        h = 1e-3
        for k in (0.3, 0.6, 0.9):
            for u in (-1.7, -0.4, 0.2, 0.9, 2.3):
                snp = (jacobi_sn(u - 2 * h, k) - 8 * jacobi_sn(u - h, k)
                       + 8 * jacobi_sn(u + h, k) - jacobi_sn(u + 2 * h, k)) / (12 * h)
                sn = jacobi_sn(u, k)
                resid = snp ** 2 - (1 - sn ** 2) * (1 - k * k * sn ** 2)
                assert abs(resid) < 1e-10

    def test_odd_function(self):
        for k in (0.4, 0.8):
            for u in (0.3, 1.1, 2.0):
                assert jacobi_sn(-u, k) == pytest.approx(-jacobi_sn(u, k), abs=1e-12)

    def test_chain_once_is_bit_identical(self):
        rng = random.Random(20261018)
        for k in [0.0, 0.3, 0.9, 0.999] + [rng.random() for _ in range(20)]:
            sn = sn_function(k)
            F = sn_solution(k).callables["F"]
            for u in [0.0, -2.5] + [rng.uniform(-20.0, 20.0) for _ in range(20)]:
                ref = _sn_per_call(u, k)
                assert jacobi_sn(u, k).hex() == sn(u).hex() == ref.hex()
                assert F(u).hex() == (math.sqrt(2.0) * k * ref).hex()
        with pytest.raises(ValueError):
            sn_function(1.0)

    def test_K_degenerate(self):
        assert elliptic_K(0.0) == pytest.approx(math.pi / 2, abs=1e-14)


class TestRK4:
    def test_exponential(self):
        traj = integrate_rk4(lambda s, st: [st[0]], {"y": 1.0},
                             (0.0, 1.0), 1e-3)
        assert abs(traj.values["y"][-1] - math.e) < 1e-12

    def test_order_four(self):
        def run(h):
            traj = integrate_rk4(lambda s, st: [st[0]], {"y": 1.0},
                                 (0.0, 1.0), h)
            return abs(traj.values["y"][-1] - math.e)
        ratio = run(0.1) / run(0.05)
        assert 12 <= ratio <= 20

    def test_bad_step(self):
        with pytest.raises(ValueError):
            integrate_rk4(lambda s, st: [0.0], {"y": 1.0}, (0.0, 1.0), -0.1)

    @pytest.mark.parametrize("h, s_range", [
        (math.inf, (0.0, 1.0)), (math.nan, (0.0, 1.0)),
        (0.1, (0.0, math.inf)), (0.1, (math.nan, 1.0)), (0.1, (-math.inf, 0.0)),
    ], ids=["h-inf", "h-nan", "range-inf", "range-nan", "range-minus-inf"])
    def test_non_finite_step_or_range(self, h, s_range):
        # h = inf once gave a one-point trajectory, nan and inf step counts
        # a budget message
        with pytest.raises(ValueError, match="must be finite"):
            integrate_rk4(lambda s, st: [0.0], {"y": 1.0}, s_range, h)

    def test_guard_truncates(self):
        traj = integrate_rk4(lambda s, st: [st[0] ** 2], {"y": 1.0},
                             (0.0, 2.0), 1e-3, guard=1e6)
        assert traj.grid[-1] < 1.01  # pole of 1/(1-s) at s = 1


class TestFDWeights:
    def test_first_derivative_weights(self):
        from fractions import Fraction
        w = fd_weights([-2, -1, 0, 1, 2], 1)
        assert w == [Fraction(1, 12), Fraction(-2, 3), Fraction(0),
                     Fraction(2, 3), Fraction(-1, 12)]

    def test_higher_order_weights(self):
        from fractions import Fraction as Q
        assert fd_weights([-3, -2, -1, 0, 1, 2, 3], 2) == [
            Q(1, 90), Q(-3, 20), Q(3, 2), Q(-49, 18), Q(3, 2), Q(-3, 20), Q(1, 90)]
        assert fd_weights([-3, -2, -1, 0, 1, 2, 3], 3) == [
            Q(1, 8), Q(-1), Q(13, 8), Q(0), Q(-13, 8), Q(1), Q(-1, 8)]
        assert fd_weights([-4, -3, -2, -1, 0, 1, 2, 3, 4], 4) == [
            Q(7, 240), Q(-2, 5), Q(169, 60), Q(-122, 15), Q(91, 8),
            Q(-122, 15), Q(169, 60), Q(-2, 5), Q(7, 240)]

    def test_weights_reproduce_polynomial_derivatives(self):
        # exact on polynomials up to the stencil order
        for order in (1, 2, 3, 4):
            offsets = list(range(-(order // 2 + 2), order // 2 + 3))
            w = fd_weights(offsets, order)
            h = 0.1
            poly = lambda z: 1 + z + z ** 2 + z ** 3 + z ** 4
            dpoly = {1: lambda z: 1 + 2 * z + 3 * z ** 2 + 4 * z ** 3,
                     2: lambda z: 2 + 6 * z + 12 * z ** 2,
                     3: lambda z: 6 + 24 * z,
                     4: lambda z: 24.0 if True else 0}[order]
            x0 = 0.7
            got = sum(float(wj) * poly(x0 + oj * h)
                      for wj, oj in zip(w, offsets)) / h ** order
            want = dpoly(x0) if order < 4 else 24.0
            assert abs(got - want) < 1e-9
