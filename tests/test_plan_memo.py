"""The per-process memo (`expr_core._memo`) of derivative chains and
compiled NumericPlans in `reduce`: repeated calls derive and compile
nothing, the key keeps term order, cached plans give the bits of fresh ones,
the memo is bounded, and an empty cached value is a hit."""

import builtins
from fractions import Fraction

import pytest

from lieforge import expr_core as ec
from lieforge import reduce as red
from lieforge.expr_core import Expr, NumericPlan, jet, sym
from lieforge.hierarchy import catalogue_member
from lieforge.numerics import integrate_rk4


@pytest.fixture
def counts(monkeypatch):
    """Calls of `derive` and of the builtin `compile` behind NumericPlan."""
    got = {"derive": 0, "compile": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            got[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ec, "compile", counted("compile", builtins.compile), raising=False)
    for module in (ec, red):
        monkeypatch.setattr(module, "derive", counted("derive", ec.derive))
    return got


def _verify(S, cand, params, samples=40):
    return red.verify_solution(S, cand, mode="numeric", param_values=params,
                               samples=samples)


def _s11_case():
    return red.system_33(1), red.s11_solution(), {"c": 1.0, "F0": 0.8, "F1": 0.3}


def _rt_case():
    return red.system_322(1), red.rational_trig_solution(), {"c": 1.0, "G0": 0.3, "G1": 0.1}


def _tan_case():
    return red.system_33(Fraction(1, 2)), red.tan_solution(), {"c": 0.5, "s0": 0.2}


CASES = [_s11_case, _rt_case, _tan_case]
CASE_IDS = ["s11", "rational-trig", "tan"]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_repeat_verification_derives_and_compiles_nothing(counts, case):
    S, cand, params = case()
    _verify(S, cand, params)
    counts.update(derive=0, compile=0)
    _verify(S, cand, {**params, "c": 1.25})
    red.verify_solution(S, cand, mode="symbolic")
    assert counts == {"derive": 0, "compile": 0}


def test_repeat_rk4_lift_and_fig1_derive_and_compile_nothing(counts):
    S, member2 = red.system_33(1), catalogue_member(2)

    def run(c):
        red.rk4_from_system(S, {}, {"F": 0.5, "G": -0.1 * c}, (0.0, 0.1), 1e-2)
        f_fn, g_fn = red.tan_antiderivatives(c)
        red.lift_and_check(member2, {"f": f_fn, "g": g_fn}, c, n=4)
        red.fig1_rows(c, 0.5, n=10)
        red.fig1_features(c, 0.5, n=16)

    run(1.0)
    counts.update(derive=0, compile=0)
    run(0.75)
    assert counts == {"derive": 0, "compile": 0}


def test_rk4_loop_compiles_once_per_plan(counts):
    plan = NumericPlan([jet("y").as_expr()], [sym("s"), jet("y")])
    assert plan.rk4(0) is plan.rk4(0)
    assert counts["compile"] == 1
    with pytest.raises(ValueError, match="RK4 inputs"):
        plan.rk4(1)


def test_equal_expressions_in_another_term_order_get_another_plan():
    e = red.s11_solution().exprs["F"]
    flipped = Expr(dict(reversed(e._terms.items())))
    assert flipped == e and list(flipped._terms) != list(e._terms)
    inputs = [sym("c"), sym("F0"), sym("F1"), sym("s")]
    assert red._plan([e], inputs) is red._plan([e], inputs)
    assert red._plan([flipped], inputs) is not red._plan([e], inputs)
    assert red._plan([e], inputs[::-1]) is not red._plan([e], inputs)


def _hex(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _fresh_chain(e, m):
    chain = [e]
    for _ in range(m):
        chain.append(ec.derive(chain[-1], sym("s")))
    return chain


@pytest.mark.parametrize("case", CASES[:2], ids=CASE_IDS[:2])
def test_cached_plans_give_the_bits_of_fresh_ones(case):
    S, cand, params = case()
    _verify(S, cand, params)  # warms the memo with this candidate's objects
    S, cand, _ = case()       # equal objects, built anew
    inputs = [*(sym(k) for k in params), ec.root("c"), sym("s")]
    need = red._need_order(S)
    cached = red._plan([*cand.pole_denoms, *red._candidate_jet_values(S, cand).values()],
                       inputs)
    fresh = NumericPlan([*cand.pole_denoms, *(v for u, m in need.items() if u in cand.exprs
                                               for v in _fresh_chain(cand.exprs[u], m))],
                        inputs)
    for s in (0.3, 1.7, 4.1, 9.2):
        point = [*params.values(), complex(params["c"]) ** 0.5, s]
        assert _hex(cached(point)) == _hex(fresh(point))


def test_cached_rk4_loop_gives_the_bits_of_a_fresh_one():
    S = red.system_33(1)
    state0, s_range, h = {"F": 0.5, "G": -0.2}, (0.0, 1.0), 1e-3
    red.rk4_from_system(S, {}, state0, s_range, h)
    cached = red.rk4_from_system(S, {}, state0, s_range, h)
    fresh = integrate_rk4(NumericPlan([S.leads[d][1] for d in ("F", "G")],
                                      [sym("s"), jet("F"), jet("G")]), state0, s_range, h)
    assert [s.hex() for s in cached.grid] == [s.hex() for s in fresh.grid]
    for d in ("F", "G"):
        assert _hex(cached.values[d]) == _hex(fresh.values[d])


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_verification_bits_do_not_depend_on_the_memo(monkeypatch, case):
    S, cand, params = case()
    monkeypatch.setattr(ec, "_MEMO", {})
    cold = _verify(S, cand, params).max_residual
    warm = _verify(S, cand, params).max_residual
    assert cold.hex() == warm.hex()


def test_memo_evicts_the_least_recently_used_at_its_bound(monkeypatch):
    monkeypatch.setattr(ec, "_MEMO", {})
    size = ec._MEMO_SIZE
    plans = [red._plan([Expr.rational(k)], []) for k in range(size)]
    assert red._plan([Expr.rational(1)], []) is plans[1]  # now the most recent
    assert len(ec._MEMO) == size  # a hit evicts nothing
    red._plan([Expr.rational(size)], [])
    assert len(ec._MEMO) == size
    assert red._plan([Expr.rational(1)], []) is plans[1]
    assert red._plan([Expr.rational(0)], []) is not plans[0]  # evicted
    assert len(ec._MEMO) == size


def test_an_empty_cached_value_is_a_hit(monkeypatch):
    monkeypatch.setattr(ec, "_MEMO", {})
    made = []
    for _ in range(3):
        for key, empty in (("dict", {}), ("list", []), ("zero", 0)):
            got = ec._memo((key,), lambda e=empty: made.append(key) or e)
            assert got == empty
    assert made == ["dict", "list", "zero"]
    for k in range(ec._MEMO_SIZE):
        ec._memo(("filler", k), dict)
    assert len(ec._MEMO) == ec._MEMO_SIZE
    ec._memo(("dict",), lambda: made.append("again") or {})
    assert made[-1] == "again"  # evicted at the bound, then made anew
