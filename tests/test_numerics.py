"""Elliptic function and integrator self-consistency."""

import math
import random
from fractions import Fraction

import pytest

from lieforge import reduce as red
from lieforge.expr_core import (DomainError, Expr, NumericPlan, clear_caches, cos_e, jet, recip_e,
                                sin_e, sym)
from lieforge.hierarchy import catalogue_member
from lieforge.numerics import _agm_chain, elliptic_K, integrate_rk4, jacobi_sn, sn_jet
from lieforge.reduce import (f_branch_322_printed, fd_weights, lift_and_check, rk4_from_system,
                             sn_solution, system_33, tan_antiderivatives, verify_solution)
from test_lifter import _dot, _fd_jet, _offsets, _orders


def _sn_per_call(u, k):
    """sn(u, k) recomputing the AGM chain, operation by operation as the
    chain-once form must reproduce."""
    if k == 0.0:
        return math.sin(u)
    aa, cc = _agm_chain(k)
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
        for k in [0.0, 1e-300, 0.3, 0.9, 0.999, 0.999999] + [rng.random() for _ in range(20)]:
            jet = sn_jet(k)
            F = sn_solution(k).callables["F"]
            for u in ([0.0, -0.0, -2.5, 1e6, -1e6, math.nan]
                      + [rng.uniform(-20.0, 20.0) for _ in range(20)]):
                ref = _sn_per_call(u, k)
                assert jacobi_sn(u, k).hex() == jet(u)[0].hex() == ref.hex()
                assert F(u)[0].hex() == (math.sqrt(2.0) * k * ref).hex()
        with pytest.raises(ValueError):
            sn_jet(1.0)

    @pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.9, 0.999, 0.999999])
    def test_jet_derivatives(self, k):
        """sn' = cn dn and sn'' = -(1 + k^2) sn + 2 k^2 sn^3 (DLMF 22.13), cn
        and dn built from the jet's value, cn's sign from the slope of sn."""
        jet = sn_jet(k)
        for u in [-7.3 + 0.61 * i for i in range(25)]:
            v, d1, d2 = jet(u)
            slope = (jacobi_sn(u + 1e-4, k) - jacobi_sn(u - 1e-4, k)) / 2e-4
            cn_dn = math.sqrt((1 - v * v) * (1 - k * k * v * v))
            assert abs(d1 - math.copysign(cn_dn, slope)) < 1e-12
            assert abs(d2 - (-(1 + k * k) * v + 2 * k * k * v ** 3)) < 1e-14

    def test_K_degenerate(self):
        assert elliptic_K(0.0) == pytest.approx(math.pi / 2, abs=1e-14)


S, Y = sym("s").as_expr(), jet("y").as_expr()


def _rhs(*exprs):
    """A right-hand side in s and the state y."""
    return NumericPlan(exprs, [sym("s"), jet("y")])


def _rk4_reference(plan, bound, state0, s_range, h, guard=1e8):
    """The list-based RK4 loop, one plan call per stage, that the compiled
    loop must reproduce bit for bit."""
    deps = sorted(state0)
    s0, s1 = s_range
    h2, h6 = h / 2, h / 6
    grid = [s0]
    state = [complex(state0[d]) for d in deps]
    rows = [state]
    for i in range(int(round((s1 - s0) / h))):
        s = s0 + i * h
        k1 = plan([*bound, s, *state])
        k2 = plan([*bound, s + h2, *[x + h2 * k for x, k in zip(state, k1)]])
        k3 = plan([*bound, s + h2, *[x + h2 * k for x, k in zip(state, k2)]])
        k4 = plan([*bound, s + h, *[x + h * k for x, k in zip(state, k3)]])
        state = [x + h6 * (a + 2 * b + 2 * c + d)
                 for x, a, b, c, d in zip(state, k1, k2, k3, k4)]
        if any(abs(x) > guard or x != x for x in state):
            break
        grid.append(s + h)
        rows.append(state)
    return grid, dict(zip(deps, map(list, zip(*rows))))


def _hex_traj(grid, values):
    return ([s.hex() for s in grid],
            {d: [(z.real.hex(), z.imag.hex()) for z in zs] for d, zs in values.items()})


class TestRK4:
    def test_exponential(self):
        traj = integrate_rk4(_rhs(Y), {"y": 1.0},
                             (0.0, 1.0), 1e-3)
        assert abs(traj.values["y"][-1] - math.e) < 1e-12

    def test_order_four(self):
        def run(h):
            traj = integrate_rk4(_rhs(Y), {"y": 1.0},
                                 (0.0, 1.0), h)
            return abs(traj.values["y"][-1] - math.e)
        ratio = run(0.1) / run(0.05)
        assert 12 <= ratio <= 20

    def test_bad_step(self):
        with pytest.raises(ValueError):
            integrate_rk4(_rhs(Expr.zero()), {"y": 1.0}, (0.0, 1.0), -0.1)

    @pytest.mark.parametrize("h, s_range", [
        (math.inf, (0.0, 1.0)), (math.nan, (0.0, 1.0)),
        (0.1, (0.0, math.inf)), (0.1, (math.nan, 1.0)), (0.1, (-math.inf, 0.0)),
    ], ids=["h-inf", "h-nan", "range-inf", "range-nan", "range-minus-inf"])
    def test_non_finite_step_or_range(self, h, s_range):
        # h = inf once gave a one-point trajectory, nan and inf step counts
        # a budget message
        with pytest.raises(ValueError, match="must be finite"):
            integrate_rk4(_rhs(Expr.zero()), {"y": 1.0}, s_range, h)

    def test_guard_truncates(self):
        traj = integrate_rk4(_rhs(Y ** 2), {"y": 1.0},
                             (0.0, 2.0), 1e-3, guard=1e6)
        assert traj.grid[-1] < 1.01  # pole of 1/(1-s) at s = 1

    @pytest.mark.parametrize("c, params", [
        (Fraction(1, 2), {}), (1, {}), (Fraction(3, 2), {}), ("c", {"c": 0.7}),
    ], ids=["c-1/2", "c-1", "c-3/2", "c-bound"])
    def test_compiled_loop_matches_list_loop_on_33(self, c, params):
        S = system_33(c)
        state0, s_range, h = {"F": 0.4, "G": -0.3}, (0.0, 2.0), 1e-3
        traj = rk4_from_system(S, params, state0, s_range, h)
        plan =NumericPlan([S.leads[d][1] for d in ("F", "G")],
                           [*(sym(k) for k in params), sym("s"), jet("F"), jet("G")])
        want = _rk4_reference(plan, list(map(complex, params.values())), state0, s_range, h)
        assert len(traj.grid) == 2001
        assert _hex_traj(traj.grid, traj.values) == _hex_traj(*want)

    @pytest.mark.parametrize("exprs, state0, guard, points", [
        # derived atoms: sin(s), cos(y) and a reciprocal
        ([sin_e(S) * Y + recip_e(cos_e(Y) + Expr.rational(2))], {"y": 0.25}, 1e8, 1501),
        # s ** 3 rounds differently as a float and as a complex: every stage
        # takes s as a complex, as a plan call does
        ([S ** 3 * Y], {"y": 0.25}, 1e8, 1501),
        # 1/(1 - s) blows up at s = 1; the guard stops the loop before it
        ([Y ** 2], {"y": 1.0}, 1e6, None),
    ], ids=["derived-atoms", "complex-s", "guard-truncated"])
    def test_compiled_loop_matches_list_loop(self, exprs, state0, guard, points):
        plan = _rhs(*exprs)
        traj = integrate_rk4(plan, state0, (0.0, 1.5), 1e-3, guard=guard)
        want = _rk4_reference(plan, [], state0, (0.0, 1.5), 1e-3, guard=guard)
        assert _hex_traj(traj.grid, traj.values) == _hex_traj(*want)
        if points is None:
            assert 900 < len(traj.grid) < 1010
        else:
            assert len(traj.grid) == points

    def test_plan_shape_is_checked(self):
        with pytest.raises(ValueError, match="RK4 inputs: 1 bound, s and 1 states, not 2"):
            integrate_rk4(_rhs(Y), {"y": 1.0}, (0.0, 1.0), 0.1, bound=[2.0])


class TestFDWeights:
    def test_first_derivative_weights(self):
        from fractions import Fraction
        w = fd_weights([-2, -1, 0, 1, 2], 1)
        assert w == [Fraction(1, 12), Fraction(-2, 3), Fraction(0),
                     Fraction(2, 3), Fraction(-1, 12)]

    def test_repeated_offsets_raise(self):
        with pytest.raises(DomainError, match="admit no finite-difference weights"):
            fd_weights([0, 0, 1], 1)

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


class TestSharedStencils:
    @pytest.mark.parametrize("fn", [lambda u: jacobi_sn(u, 0.5), lambda u: math.atan2(u, -1.0)],
                             ids=["sn", "signed-zero"])
    @pytest.mark.parametrize("m", range(5))
    def test_every_order_matches_its_own_stencil(self, fn, m):
        """The reference loop of `test_lifter`, which the compiled lift matches bit
        for bit, takes each order from samples of the widest stencil: each must be
        the sum over its own stencil."""
        h = 3e-3
        for s in (0.0, -0.0, -1.3, 2.7):
            got = _fd_jet(fn(s), [fn(s + o * h) for o in _offsets(m)], _orders(m), h)
            want = [fn(s)]
            for k in range(1, m + 1):
                offsets = list(range(-(k // 2 + 2), k // 2 + 3))
                w = [float(q) for q in fd_weights(offsets, k)]
                want.append(_dot(w, [fn(s + oj * h) for oj in offsets]) / h ** k)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_one_profile_call_per_point(self):
        # lift: f, then the x-stencil of the order-2 member (7) and the
        # t-stencil (5) less their offset-0 entries, which reuse f
        calls = []
        f_fn, g_fn = tan_antiderivatives(1.0)
        lift_and_check(catalogue_member(2),
                       {"f": lambda u: calls.append(u) or f_fn(u), "g": g_fn}, 1.0, n=4)
        assert len(calls) == 4 * 4 * 11

    def test_stencils_looked_up_once_per_call(self, monkeypatch):
        """The weights of each order are looked up once, when the grid loop
        compiles, and not at all on a memo hit."""
        looked = []
        stencil = red._fd_stencil
        monkeypatch.setattr(red, "_fd_stencil",
                            lambda offsets, k: looked.append((tuple(offsets), k))
                            or stencil(offsets, k))
        clear_caches()
        f_fn, g_fn = tan_antiderivatives(1.0)
        lift_and_check(catalogue_member(3), {"f": f_fn, "g": g_fn}, 1.0, n=6)
        # orders 1-3 in x, and order 1 in t from the same stencil
        assert sorted(looked) == sorted([(tuple(range(-2, 3)), 1), (tuple(range(-3, 4)), 2),
                                         (tuple(range(-3, 4)), 3)])
        looked.clear()  # the loop is kept: a new c, n and profile look nothing up
        f_fn, g_fn = tan_antiderivatives(0.5, 0.2)
        lift_and_check(catalogue_member(3), {"f": f_fn, "g": g_fn}, 0.5, n=9)
        assert looked == []
        looked.clear()  # sampled verification reads jets, no stencil
        verify_solution(f_branch_322_printed(-(1 + Fraction(1, 4))), sn_solution(0.5),
                        "numeric", samples=20)
        assert looked == []
