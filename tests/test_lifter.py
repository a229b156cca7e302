"""The compiled grid loop of `lift_and_check` (`NumericPlan.lifter`) against the
per-point loop it replaced: per dependent and grid point, one stencil sum per
derivative order over shared profile samples, then one call of the member's
right-hand-side plan.  Both give the same residual bits and the same exception."""

import cmath
import math
import random
from dataclasses import replace
from functools import reduce
from operator import add, mul, sub

import pytest

from lieforge import expr_core as ec
from lieforge import reduce as red
from lieforge.expr_core import DomainError, NumericPlan, jet, sym
from lieforge.hierarchy import catalogue_member
from lieforge.systems import PDESystem


def _offsets(m):
    """The order-m central stencil, the widest of orders 1..m (none for m = 0)."""
    return range(-(m // 2 + 2), m // 2 + 3) if m else range(0)


def _orders(m):
    """(half width, float weights) of the central stencil of each order 1..m."""
    return [(k // 2 + 2, [float(q) for q in red.fd_weights(list(_offsets(k)), k)])
            for k in range(1, m + 1)]


def _dot(w, samples):
    """0 + w[0]*samples[0] + w[1]*samples[1] + ..., left to right: the order of
    Python 3.11's `sum`, which 3.12 compensates for floats."""
    return reduce(add, map(mul, w, samples), 0)


def _fd_jet(f0, at, orders, h):
    """[f, f', ..., f^(m)] at s by central differences of step h, from f0 = f(s)
    (s + 0*h is not s at -0.0) and at = f(s + o*h) over `_offsets(m)`, shared by
    all orders, with orders = `_orders(m)`.  Order k sums its own weights times
    samples in offset order and divides by h**k."""
    out = [f0]
    mid = len(at) // 2  # at[mid + o] = f(s + o*h)
    for k, (half, w) in enumerate(orders, 1):
        out.append(_dot(w, at[mid - half:]) / h ** k)
    return out


def _reference(S, profiles, c, n):
    """The per-point lift loop, list for list, before it was compiled."""
    tvar, xvar = S.jet.independents
    order, deps = S.order, S.jet.dependents
    idxs = [(xvar,) * k for k in range(order + 1)] + [(tvar,)]
    rhs = NumericPlan([S.rhs[dep] for dep in deps],
                      [sym(tvar), sym(xvar), *(jet(d, i) for d in deps for i in idxs)])
    fns = [profiles[red._DEP_MAP[dep]] for dep in deps]
    h, x_offsets, t_offsets = 1e-2, _offsets(order), _offsets(1)
    x_orders = _orders(order)
    t_orders = _orders(1)
    worst = 0.0
    for i in range(n):
        t = -0.5 + i / (n - 1)
        ct = c * t
        for j in range(n):
            x = -0.5 + j / (n - 1)
            at_x = [(o, x + o * h - ct) for o in x_offsets]
            at_t = [(o, x - c * (t + o * h)) for o in t_offsets]
            vals, u_t = [t, x], []
            for fn in fns:
                f0 = fn(x - ct)
                vals += _fd_jet(f0, [fn(a) if o else f0 for o, a in at_x], x_orders, h)
                u_t.append(_fd_jet(f0, [fn(a) if o else f0 for o, a in at_t], t_orders, h)[1])
                vals.append(u_t[-1])
            for d in map(sub, u_t, rhs(vals)):
                worst = max(worst, abs(d) if d == d else math.inf)
    return worst


def _outcome(run):
    try:
        return run().hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _same_as_reference(S, profiles, c, n):
    got = _outcome(lambda: red.lift_and_check(S, profiles, c, n))
    assert got == _outcome(lambda: _reference(S, profiles, c, n))
    return got


def _tan(c, s0=0.0):
    f_fn, g_fn = red.tan_antiderivatives(c, s0)
    return {"f": f_fn, "g": g_fn}


@pytest.mark.parametrize("member", [1, 2, 3])
def test_every_grid_size_gives_the_bits_of_the_per_point_loop(member):
    S, rng = catalogue_member(member), random.Random(member)
    for n in range(2, 31):
        c, s0 = rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3)
        _same_as_reference(S, _tan(c, s0), c, n)


def test_a_nan_past_a_point_reads_inf():
    f_fn, g_fn = red.tan_antiderivatives(1.0)
    profiles = {"f": f_fn, "g": lambda s: math.nan if s > 0.3 else g_fn(s)}
    assert _same_as_reference(catalogue_member(2), profiles, 1.0, 10) == math.inf.hex()


def test_the_negative_control_keeps_its_bits():
    f_fn, g_fn = red.tan_antiderivatives(1.0)
    profiles = {"f": f_fn, "g": lambda s: g_fn(s) + 0.05 * s * s}
    assert float.fromhex(_same_as_reference(catalogue_member(2), profiles, 1.0, 10)) > 1e-3


@pytest.mark.parametrize("member", [1, 2, 3])
def test_complex_profiles_keep_their_bits(member):
    profiles = {"f": lambda s: cmath.exp(0.7j * s) / 3, "g": lambda s: (0.2 - 0.5j) * s * s}
    _same_as_reference(catalogue_member(member), profiles, 0.8, 9)


def test_a_profile_error_propagates_as_in_the_per_point_loop():
    profiles = {"f": math.sqrt, "g": math.sin}  # f(x - c t) < 0 somewhere on the grid
    got = _same_as_reference(catalogue_member(2), profiles, 1.0, 6)
    assert got == ("ValueError", "math domain error")


def test_every_table_state_gives_the_same_bits(tables):
    cases = [(catalogue_member(m), _tan(c), c, n) for m, c, n in ((1, 0.6, 5), (2, 0.9, 12),
                                                               (3, 1.2, 7), (3, 0.9, 12))]
    want = [_reference(*case).hex() for case in cases]
    for state in tables:  # on cold tables the first lift of each member compiles
        assert [red.lift_and_check(*case).hex() for case in cases] == want, state


def test_a_member_of_order_zero_lifts():
    # v_t = w, w_t = -v; v = cos(x - t), w = sin(x - t) solve it, with no x-derivatives
    S = catalogue_member(1)
    S = PDESystem(S.jet, {"v": S.jet.parse("w"), "w": S.jet.parse("-v")}, "rotation")
    assert S.order == 0
    assert red.lift_and_check(S, {"f": math.cos, "g": math.sin}, 1.0, n=5) < 1e-9
    assert red.lift_and_check(S, {"f": math.cos, "g": math.cos}, 1.0, n=5) > 0.1


@pytest.mark.parametrize("profiles, match", [
    ({"f": math.sin}, "gives no profile for g of system member 2"),
    ({}, "gives no profile for f, g of system member 2"),
], ids=["no-g", "none"])
def test_a_missing_profile_is_named(profiles, match):
    with pytest.raises(DomainError, match=match):
        red.lift_and_check(catalogue_member(2), profiles, 1.0, n=4)


def test_a_dependent_other_than_v_and_w_takes_the_profile_of_its_name():
    S = catalogue_member(1)
    spec = replace(S.jet, dependents=("v", "u"))
    S = PDESystem(spec, {"v": spec.parse("-v_x"), "u": spec.parse("-u_x")}, "vu")
    assert red.lift_and_check(S, {"f": math.sin, "u": math.cos}, 1.0, n=4) < 1e-9
    with pytest.raises(DomainError, match="gives no profile for u of system vu"):
        red.lift_and_check(S, {"f": math.sin, "g": math.sin}, 1.0, n=4)


@pytest.mark.parametrize("n", [2.5, 4.0, "4", None])
def test_a_grid_size_that_is_not_an_int_raises(n):
    f_fn, g_fn = red.tan_antiderivatives(1.0)
    with pytest.raises(DomainError, match=f"n >= 2 points a side .*not n = {n!r}"):
        red.lift_and_check(catalogue_member(2), {"f": f_fn, "g": g_fn}, 1.0, n=n)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_a_wave_speed_that_is_not_finite_raises(c):
    f_fn, g_fn = red.tan_antiderivatives(1.0)
    with pytest.raises(DomainError, match=f"finite wave speed, not n = 4, c = {c!r}"):
        red.lift_and_check(catalogue_member(2), {"f": f_fn, "g": g_fn}, c, n=4)


def test_one_memo_entry_per_lift_shape(monkeypatch):
    monkeypatch.setattr(ec, "_MEMO", {})
    S = catalogue_member(2)
    for c, n in ((1.0, 4), (0.5, 7)):
        red.lift_and_check(S, _tan(c), c, n)
    kinds = [key[0] for key in ec._MEMO]
    assert kinds.count("lift") == 1 and "plan" not in kinds
