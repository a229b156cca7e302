"""The compiled sampling loop of numeric verification (`NumericPlan.sampler`)
against the per-sample loop it replaced: a profile plan and a residual plan
called once per sample.  Both give the same `max_residual` bits, sample count
and exception; callable profiles are read off their jets, one call per sample."""

import math
from fractions import Fraction

import pytest

from lieforge import expr_core as ec
from lieforge import reduce as red
from lieforge.expr_core import DomainError, NumericPlan, PoleError, jet, root, sym
from lieforge.numerics import sn_jet


def _reference(S, cand, params, s_range=(0.25, 10.0), samples=200):
    """(worst, good, taken): the per-sample loop, list for list, of the
    verification before it was compiled, with jets in place of stencils."""
    need = red._need_order(S)
    values = {**cand.params, **params}
    bind = {sym(k): complex(v) for k, v in values.items()}
    if "c" in values:
        bind[root("c")] = complex(values["c"]) ** 0.5
    sym_vals = red._candidate_jet_values(S, cand)
    jets = [(fn, need.get(dep, 0)) for dep, fn in cand.callables.items()]
    sampled = [jet(dep, ("s",) * k) for dep, m in zip(cand.callables, (m for _, m in jets))
               for k in range(m + 1)]
    n_poles = len(cand.pole_denoms)
    inputs = [*bind, sym("s")]
    profile = NumericPlan([*cand.pole_denoms, *sym_vals.values()], inputs)
    residuals = NumericPlan(S.equations_zero(), [*inputs, *sym_vals, *sampled])
    lo, hi = s_range
    worst, good, idx = 0.0, 0, 0
    while good < samples and idx < samples * 6:
        if idx < samples:
            sval = lo + (hi - lo) * idx / samples
        else:
            sval = lo + (hi - lo) * ((idx * 0.6180339887498949) % 1.0)
        idx += 1
        head = [*bind.values(), sval]
        try:
            vals = profile(head)
            if any(abs(d) < 0.05 for d in vals[:n_poles]):
                continue
            head += vals[n_poles:]
            for fn, m in jets:
                head += fn(sval)[:m + 1]
            res = 0.0
            for r in residuals(head):
                res = max(res, abs(r) if r == r else math.inf)
            worst = max(worst, res)
            good += 1
        except PoleError:
            continue
    if good < samples:
        raise PoleError("all samples in excluded domain")
    return worst, good, idx


def _outcome(run):
    try:
        worst, good = run()[:2]
    except (PoleError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return worst.hex(), good


def _tan(c, s0):
    return red.system_33(c), red.tan_solution(), {"c": float(c), "s0": s0}


def _rt(G0, G1, printed=False):
    return (red.system_322(1), red.rational_trig_solution(printed),
            {"c": 1.0, "G0": G0, "G1": G1})


def _s11(F1):
    return red.system_33(1), red.s11_solution(), {"c": 1.0, "F0": 0.8, "F1": F1}


def _linear4(c, f1):
    return red.reduced_system(4, c), red.linear_solution_member4(), {"c": float(c), "f1": f1}


def _sn(k, printed=True):
    kq = Fraction(k)
    S = red.f_branch_322_printed(-(1 + kq * kq)) if printed else red.f_branch_322(1 + kq * kq)
    return S, red.sn_solution(k, printed), {}


CASES = {
    "tan-c-1": _tan(1, 0.0), "tan-c-1/2-s0": _tan(Fraction(1, 2), 0.3),
    "tan-c-7/4": _tan(Fraction(7, 4), -1.1),
    # G0 sin + cos + G1 crosses zero, so samples near its zeros are skipped
    "rational-trig": _rt(0.5, 0.25), "rational-trig-G1-0.1": _rt(0.3, 0.1),
    "rational-trig-no-pole": _rt(0.5, 1.5), "rational-trig-printed": _rt(2.0, 0.7, True),
    "s11-F1-0": _s11(0.0), "s11-F1-1": _s11(1.0), "s11-F1-2": _s11(2.0),
    "linear4": _linear4(-1, 1.0), "linear4-c-8": _linear4(-8, 2.0),
    "linear4-off": _linear4(1, 0.5),
    "sn-printed": _sn(0.5), "sn-computed": _sn(0.9, printed=False),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
@pytest.mark.parametrize("samples", [200, 1, 7])
def test_sampler_gives_the_bits_of_the_per_sample_loop(case, samples):
    S, cand, params = case

    def compiled():
        rep = red.verify_solution(S, cand, "numeric", params, samples=samples)
        return rep.max_residual, rep.samples

    assert _outcome(compiled) == _outcome(lambda: _reference(S, cand, params,
                                                             samples=samples))


def test_the_pole_skip_path_runs():
    S, cand, params = CASES["rational-trig"]
    worst, good, taken = _reference(S, cand, params)
    assert good == 200 < taken


@pytest.mark.parametrize("case, params, s_range, error", [
    # |cos(s/2)| < 0.05 on the whole range: every sample is excluded
    (_tan(1, 0.0), {}, (3.1, 3.18), PoleError),
    # sqrt(c) = 31.6i: sinh overflows
    (_rt(0.5, 0.25), {"c": -1000.0}, (0.25, 10.0), OverflowError),
], ids=["all-excluded", "overflowing-c"])
def test_sampler_raises_as_the_per_sample_loop(case, params, s_range, error):
    S, cand, base = case
    params = {**base, **params}
    with pytest.raises(error) as got:
        red.verify_solution(S, cand, "numeric", params, s_range=s_range)
    with pytest.raises(error) as want:
        _reference(S, cand, params, s_range)
    assert str(got.value) == str(want.value)


def test_one_jet_call_per_sample():
    S, cand, _ = _sn(0.5)
    calls = []
    F = cand.callables["F"]
    cand.callables["F"] = lambda u: calls.append(u) or F(u)
    rep = red.verify_solution(S, cand, "numeric", s_range=(0.0, 6.0), samples=20)
    assert rep.samples == 20 and calls == [6.0 * i / 20 for i in range(20)]


@pytest.mark.parametrize("values", [1, 2])
def test_a_jet_shorter_than_the_order_names_its_dependent(values):
    S, cand, _ = _sn(0.5)
    cand.callables["F"] = lambda u: [0.0] * values
    with pytest.raises(DomainError, match=r"a jet shorter than \[F, F', F''\]"):
        red.verify_solution(S, cand, "numeric")


def test_a_longer_jet_is_read_from_its_value():
    S, cand, _ = _sn(0.5)
    F = cand.callables["F"]
    cand.callables["F"] = lambda u: [*F(u), math.nan]
    assert red.verify_solution(S, cand, "numeric").max_residual < 1e-13


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.999, 0.999999])
@pytest.mark.parametrize("printed", [True, False], ids=["printed", "computed"])
def test_sn_verifies_to_rounding_on_both_branches(k, printed):
    S, cand, _ = _sn(k, printed)
    rep = red.verify_solution(S, cand, "numeric")
    assert rep.samples == 200 and rep.max_residual <= 1e-13


def test_sn_at_the_other_branch_wave_speed_fails_by_order_one():
    S = red.f_branch_322_printed(1 + Fraction(9, 10) ** 2)  # c of the computed branch
    assert red.verify_solution(S, red.sn_solution(0.9), "numeric").max_residual > 0.1


def test_one_memo_entry_per_verification(monkeypatch):
    monkeypatch.setattr(ec, "_MEMO", {})
    S, cand, params = CASES["rational-trig"]
    for c in (1.0, 1.25):
        red.verify_solution(S, cand, "numeric", {**params, "c": c})
    kinds = [key[0] for key in ec._MEMO]
    assert kinds.count("sampler") == 1 and "plan" not in kinds


def test_sn_jet_amplitude_scales_the_jet():
    jet, scaled = sn_jet(0.5), sn_jet(0.5, 2.0)
    for u in (0.3, -1.7, 4.2):
        assert scaled(u)[0] == 2.0 * jet(u)[0]
        assert scaled(u)[1:] == pytest.approx([2.0 * d for d in jet(u)[1:]], rel=1e-15)

