"""The kernel's calculus and substitution against straightforward reference
implementations kept here: the total derivative as one partial derivative
per atom, `derive` and `substitute` as term-by-term products (term order
included, because numeric sums follow it), the product kernel against a
merge of exponents for every product with a plain side, and canonicalisation
on term dicts against its form in `Expr` arithmetic."""

import random
from fractions import Fraction

import pytest

from lieforge.expr_core import (
    I, DomainError, Expr, Func, IUnit, Jet, Root, Sym, _accumulate, _exp_atom,
    _invert_single, _is_plain, _mul_into, _product_to_sum, _put, _trig_atom,
    atoms_of, cos_e, derive, exp_e, func, jet, recip_e, root, sin_e, substitute,
    sym, tan_e, Trig, ExpAtom, Recip,
)
from lieforge.liealg import StructureTable, jacobi_check
from lieforge.systems import total_derivative

from exprgen import BASE_ATOMS, _atom_expr, random_tree, tree_to_expr

N_EXPRS = 300
SEED = 20261018

A = func("a", ("t", "x"))
A_X = func("a", ("t", "x"), ("x",))
B = func("b", ("x",))


def _e(atom):
    return atom.as_expr()


def _special_exprs():
    """Unknown functions, reciprocals, roots and transcendental arguments
    holding them, which the seeded generator does not draw."""
    v, vx, x, t = (_atom_expr(n) for n in ("v", "v_x", "x", "t"))
    a, ax, b = _e(A), _e(A_X), _e(B)
    r = _e(root("c"))
    return [
        a * vx + ax ** 2 * b,
        sin_e(a + x) * vx + cos_e(ax - v) * b,
        exp_e(a + I.as_expr() * x) * tan_e(b + t),
        recip_e(v + x) * vx + recip_e(a * b + 1) ** 2,
        recip_e(vx ** 2 + t) * sin_e(v) + r * a - r * recip_e(r + v),
        a ** 3 * recip_e(b - v) * exp_e(vx) + Expr.rational(Fraction(3, 7)),
        tan_e(ax + b) ** 2 * a - ax * recip_e(a + ax),
    ]


def _exprs():
    rng = random.Random(SEED)
    return [tree_to_expr(random_tree(rng)) for _ in range(N_EXPRS)] + _special_exprs()


def _raised(atom, indep):
    if isinstance(atom, Jet):
        return jet(atom.dep, atom.idx + (indep,))
    if isinstance(atom, Func) and indep in atom.args:
        return func(atom.name, atom.args, atom.idx + (indep,))
    return None


def _atomwise_total_derivative(e, indep):
    out = derive(e, sym(indep))
    for atom in atoms_of(e):
        raised = _raised(atom, indep)
        if raised is not None:
            out = out + derive(e, atom) * _e(raised)
    return out


def _termwise_derive(e, a):
    out = {}
    for m, q in e._terms.items():
        for i, (atom, k) in enumerate(m):
            d = _termwise_datom(atom, a)
            if d is None:
                continue
            rest = list(m[:i]) + list(m[i + 1:])
            if k != 1:
                rest.append((atom, k - 1))
            for dm, dq in d._terms.items():
                _accumulate(out, rest + list(dm), q * k * dq)
    return Expr(out)


def _termwise_datom(atom, a):
    if atom is a:
        return Expr.one()
    if not isinstance(atom, (Trig, ExpAtom, Recip)):
        return None
    darg = _termwise_derive(atom.arg, a)
    if not darg._terms:
        return None
    if isinstance(atom, ExpAtom):
        return _e(atom) * darg
    if isinstance(atom, Recip):
        return -darg * _e(atom) * _e(atom)
    if atom.fn == "sin":
        return cos_e(atom.arg) * darg
    if atom.fn == "cos":
        return -sin_e(atom.arg) * darg
    t = tan_e(atom.arg)
    return (Expr.one() + t * t) * darg


def _termwise_substitute(e, bindings):
    def value(atom):
        if atom in bindings:
            return bindings[atom]
        if not isinstance(atom, (Trig, ExpAtom, Recip)):
            return _e(atom)
        narg = _termwise_substitute(atom.arg, bindings)
        if narg == atom.arg:
            return _e(atom)
        if isinstance(atom, Recip):
            return recip_e(narg)
        if isinstance(atom, ExpAtom):
            return exp_e(narg)
        return {"sin": sin_e, "cos": cos_e, "tan": tan_e}[atom.fn](narg)

    out = Expr.zero()
    for m, q in e._terms.items():
        term = Expr.rational(q)
        for atom, k in m:
            term = term * value(atom) ** k
        out = out + term
    return out


def _outcome(fn, *args):
    """Term list with order, or the exception type."""
    try:
        return list(fn(*args)._terms.items())
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def _polynomial(rng, names):
    """A polynomial value for a binding: no I and no transcendental factor,
    so it may enter any trig or exp argument."""
    out = Expr.zero()
    for _ in range(rng.randint(0, 3)):
        term = Expr.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for name in rng.sample(names, rng.randint(0, 2)):
            term = term * _atom_expr(name)
        out = out + term
    return out


def test_total_derivative_matches_atomwise_formula():
    for e in _exprs():
        for indep in ("t", "x"):
            assert total_derivative(e, indep) == _atomwise_total_derivative(e, indep)


def test_derive_term_order_matches_termwise_product():
    rng = random.Random(SEED + 1)
    specials = [sym("t"), sym("x"), jet("v"), jet("w", ("x",)), A, A_X, B, root("c")]
    for e in _exprs():
        atoms = sorted(a for a in atoms_of(e) if isinstance(a, (Jet, Func)))
        for a in atoms[:2] + [rng.choice(specials)]:
            assert _outcome(derive, e, a) == _outcome(_termwise_derive, e, a)


# in key order x sorts before sqrt(c), v and w_x before I, exp and sin/cos/tan
X, V, W_X = sym("x"), jet("v"), jet("w", ("x",))


def _interleaved_exprs(rng, n):
    """Sums of terms in which x, v and w_x recur at powers 1, 2, 3 and -1,
    with unchanged sqrt(c), I, sin/cos/tan and exp factors raised to powers
    up to 4 between them in key order, and a last factor of x or v (or 1)."""
    t, w = _atom_expr("t"), _atom_expr("w")
    unchanged = [_e(root("c")), I.as_expr(), sin_e(t), cos_e(w), tan_e(t + w),
                 exp_e(w), exp_e(I.as_expr() * t)]
    last = [sin_e(_e(X) - t), tan_e(_e(X)), exp_e(_e(V)), recip_e(_e(V) + t),
            cos_e(_e(V) + w), Expr.one()]
    exprs = []
    for _ in range(n):
        e = Expr.zero()
        for _ in range(rng.randint(2, 4)):
            term = Expr.rational(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
            for a in rng.sample([X, V, W_X], rng.randint(1, 3)):
                term = term * _e(a) ** rng.choice([1, 2, 3, -1])
            for u in rng.sample(unchanged, rng.randint(1, 3)):
                term = term * u ** rng.randint(1, 4)
            e = e + term * rng.choice(last)
        exprs.append(e)
    return exprs


def test_substitute_term_order_matches_termwise_product():
    rng = random.Random(SEED + 2)
    base = {n: next(iter(_atom_expr(n)._terms))[0][0] for n in BASE_ATOMS}
    targets = list(base.values()) + [A, A_X, B]
    changed = 0
    for e in _exprs():
        present = [a for a in targets if a in atoms_of(e)] or targets
        bound = rng.sample(present, min(len(present), rng.randint(1, 2)))
        values = [_polynomial(rng, BASE_ATOMS), _e(A) + _e(B), Expr.zero(),
                  -_e(sym("x")), I.as_expr()]
        # one bound atom, or two whose values hold no bound atom (no cycles)
        bindings = {bound[0]: rng.choice(values)}
        if len(bound) == 2 and bound[1] not in atoms_of(bindings[bound[0]]):
            bindings[bound[1]] = _polynomial(
                rng, [n for n in BASE_ATOMS if base[n] not in bound])
        got = _outcome(substitute, e, bindings)
        assert got == _outcome(_termwise_substitute, e, bindings)
        changed += got != list(e._terms.items())
    assert changed > N_EXPRS // 2
    # bound atoms at powers 2, 3 and -1 in several terms, unchanged non-plain
    # factors between the changed ones, and two-atom bindings whose second
    # value holds a trig factor
    t, w = _atom_expr("t"), _atom_expr("w")
    singles = [{a: val} for a in (X, V, W_X)
               for val in (t + 1, Fraction(1, 2) * t * w - 3, Expr.zero(), -t, I.as_expr())]
    # acyclic: no value holds a bound atom; w_x, the second atom, stands in no
    # transcendental argument, so a trig value is legal for it
    pairs = [{X: t + 1, W_X: sin_e(t) * w + 2},
             {V: Fraction(1, 2) * t * w, W_X: cos_e(t - w) - t},
             {X: w, W_X: tan_e(t) ** 2},
             {V: _e(X) - t, W_X: sin_e(w) * cos_e(t)}]
    changed = {"single": 0, "pair": 0}
    for n, e in enumerate(_interleaved_exprs(rng, N_EXPRS)):
        kind = "pair" if n % 2 else "single"
        bindings = rng.choice(pairs if n % 2 else singles)
        got = _outcome(substitute, e, bindings)
        assert got == _outcome(_termwise_substitute, e, bindings)
        changed[kind] += not isinstance(got, type) and got != list(e._terms.items())
    assert min(changed.values()) > N_EXPRS // 4, changed


def test_substitute_at_power_one_raises_no_power(monkeypatch):
    """A bound atom every term holds at power 1 enters each term as its
    value: `value ** 1` would be a whole product from one."""
    t, w = _atom_expr("t"), _atom_expr("w")
    v = _e(V)
    e = (v * t ** 3 * tan_e(w) ** 2 - v * sin_e(t + v) * exp_e(w)
         + 5 * v * _e(W_X) ** -1 * I.as_expr() * _e(root("c")))
    value = t * w + 1
    ref = _termwise_substitute(e, {V: value})
    calls = []
    pow_ = Expr.__pow__
    monkeypatch.setattr(Expr, "__pow__", lambda self, n: calls.append(n) or pow_(self, n))
    assert substitute(e, {V: value}) == ref
    assert calls == []
    substitute(e, {sym("t"): value})  # t^3 in the first term
    assert calls == [3]


def _merge(m1, m2):
    """Product of two key-sorted monomials with a plain side in one pass:
    shared exponents added, zeros dropped, key order kept.  Canonicalisation
    never rewrites a plain atom, so this is the canonical product."""
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    merged, i, n1 = [], 0, len(m1)
    for a, k in m2:
        while i < n1 and m1[i][0].key < a.key:
            merged.append(m1[i])
            i += 1
        if i < n1 and m1[i][0] is a:
            k += m1[i][1]
            i += 1
        if k:
            merged.append((a, k))
    return tuple(merged) + m1[i:]


def _hand_picked_terms():
    """Canonical terms the product must leave alone or combine exactly: I, a
    root with its symbol, exp, sin/cos/tan, a reciprocal, negative plain
    powers, plain powers that cancel, the empty monomial, and Fraction
    coefficients whose products are integral."""
    x, t, v, vx = (_atom_expr(n) for n in ("x", "t", "v", "v_x"))
    c, r, a = _e(sym("c")), _e(root("c")), _e(A)
    exprs = [
        I.as_expr(), I.as_expr() * x, r, r * c, r * c ** -1 * v,
        exp_e(x + v), exp_e(I.as_expr() * t) * vx, sin_e(v), cos_e(2 * v) * x,
        tan_e(x - v) ** 2 * a, recip_e(v + x) * vx, recip_e(a + t) ** 2,
        x ** -2 * v ** 3, x ** 2 * v ** -3, vx ** -1 * a ** -2, a ** 2 * vx,
        Expr.one(), Expr.rational(Fraction(2, 3)), Expr.rational(Fraction(3, 2)),
        Expr.rational(Fraction(-3, 4)) * x, Expr.rational(Fraction(4, 3)) * x ** -1,
        Expr.rational(Fraction(7, 6)) * sin_e(x),
    ]
    return [term for e in exprs for term in e._terms.items()]


def _typed(out):
    return [(m, q, type(q)) for m, q in out.items()]


def test_mul_into_matches_general_path():
    """A product with a plain side against `_merge`, any other against
    `_accumulate` (checked on its own in `test_accumulate_matches_expr_arithmetic`)."""
    rng = random.Random(SEED + 4)
    special = _hand_picked_terms()
    pool = [term for e in _exprs() for term in e._terms.items()] + special
    seen = {"integral": 0, "shared": 0, "dropped": 0, "merged": 0, "general": 0}
    for n in range(2 * N_EXPRS):
        # every other pair is drawn from the hand-picked terms alone
        src = special if n % 2 else pool
        A_, B_ = (dict(rng.sample(src, rng.randint(1, 4))) for _ in range(2))
        start = dict(rng.sample(src, rng.randint(0, 3)))
        got = _mul_into(dict(start), A_, B_)
        ref = dict(start)
        for m1, q1 in A_.items():
            for m2, q2 in B_.items():
                if _is_plain(m1) or _is_plain(m2):
                    seen["merged"] += 1
                    _put(ref, _merge(m1, m2), q1 * q2)
                else:
                    seen["general"] += 1
                    _accumulate(ref, list(m1) + list(m2), q1 * q2)
        assert _typed(got) == _typed(ref)
        assert all(q.__class__ is int or q.denominator > 1 for q in got.values())
        for m1, q1 in A_.items():
            for m2, q2 in B_.items():
                seen["integral"] += (q1 * q2).denominator == 1 != q1.denominator
                seen["shared"] += len(dict(m1 + m2)) < len(m1) + len(m2)
                seen["dropped"] += any(k1 + k2 == 0 for a1, k1 in m1
                                       for a2, k2 in m2 if a1 is a2)
    assert min(seen.values()) >= 10, seen


def test_jacobi_check_rejects_hand_made_table():
    # [e0, e1] = e0, [e1, e2] = e1, [e0, e2] = 0: the cyclic sum on
    # (e0, e1, e2) is [e0, e2] + [e1, e0] = -e0
    one = Expr.one()
    constants = {(0, 1): {0: one}, (1, 0): {0: -one},
                 (1, 2): {1: one}, (2, 1): {1: -one}}
    assert not jacobi_check(StructureTable(basis=[None] * 3, constants=constants,
                                           closed=True))
    del constants[(1, 2)], constants[(2, 1)]
    assert jacobi_check(StructureTable(basis=[None] * 3, constants=constants,
                                       closed=True))


def _expr_product_to_sum(a1, a2):
    """sin/cos product-to-sum with its arguments built in Expr arithmetic."""
    A, B = a1.arg, a2.arg
    half = Fraction(1, 2)
    if a1.fn == "sin" and a2.fn == "sin":
        return [("cos", A - B, half), ("cos", A + B, -half)]
    if a1.fn == "cos" and a2.fn == "cos":
        return [("cos", A - B, half), ("cos", A + B, half)]
    if a1.fn == "sin" and a2.fn == "cos":
        return [("sin", A + B, half), ("sin", A - B, half)]
    return [("sin", A + B, half), ("sin", B - A, half)]


def _expr_accumulate(out, factors, coeff, seen):
    """Canonicalisation with exponential merging and product-to-sum
    arguments in Expr arithmetic, every pass run on every factor list;
    `seen` counts the cases the comparison must reach."""
    stack = [(factors, coeff)]
    while stack:
        fl, q = stack.pop()
        if not q:
            continue
        powers = {}
        for atom, k in fl:
            powers[atom] = powers.get(atom, 0) + k
        ik = powers.pop(I, 0)
        if ik:
            ik %= 4
            if ik >= 2:
                q = -q
                ik -= 2
            if ik:
                powers[I] = 1
        for atom in [a for a in powers if isinstance(a, Root)]:
            k = powers.pop(atom)
            rem = k & 1
            shift = (k - rem) // 2
            if shift:
                base = sym(atom.of)
                powers[base] = powers.get(base, 0) + shift
                if powers[base] == 0:
                    del powers[base]
            if rem:
                powers[atom] = rem
        exps = [(a, k) for a, k in powers.items() if isinstance(a, ExpAtom)]
        if len(exps) > 1 or (exps and exps[0][1] != 1):
            total = Expr.zero()
            for a, k in exps:
                del powers[a]
                total = total + a.arg * Expr.rational(k)
            na = _exp_atom(total)
            seen["exp cancels"] += na is None
            if na is not None:
                powers[na] = powers.get(na, 0) + 1
        for atom in [a for a in powers if isinstance(a, Recip)]:
            k = powers[atom]
            if k < 0:
                raise DomainError("negative reciprocal power")
            inv = _invert_single(atom.arg)
            if inv is not None:
                del powers[atom]
                mono, iq = next(iter(inv._terms.items()))
                q *= iq ** k
                for a2, k2 in mono:
                    powers[a2] = powers.get(a2, 0) + k2 * k
        trig_sc = []
        for atom in [a for a in powers if isinstance(a, Trig)]:
            if atom.fn in ("sin", "cos"):
                trig_sc.extend([atom] * powers.pop(atom))
        if len(trig_sc) >= 2:
            seen["three or more sin/cos"] += len(trig_sc) >= 3
            others = list(powers.items())
            rest = [(a, 1) for a in trig_sc[2:]]
            for fn, arg, w in _expr_product_to_sum(trig_sc[0], trig_sc[1]):
                flip, atom = _trig_atom(fn, arg)
                seen["sin(0)"] += flip == 0
                seen["negative lead"] += bool(arg._terms) and arg._lead_coeff() < 0
                stack.append((others + rest + ([(atom, 1)] if atom else []), q * w * flip))
            continue
        for atom in trig_sc:
            powers[atom] = powers.get(atom, 0) + 1
        mono = tuple(sorted(((a, k) for a, k in powers.items() if k != 0),
                            key=lambda t: t[0].key))
        _put(out, mono, q)


def _trig_exp_terms():
    """Canonical terms carrying sin/cos/tan, exp, I, sqrt(c), reciprocals
    and plain atoms, with arguments whose sums and differences cancel, lead
    with a negative coefficient, or carry I."""
    x, t, v, w = (_atom_expr(n) for n in ("x", "t", "v", "w"))
    i, r, c = I.as_expr(), _e(root("c")), _e(sym("c"))
    half = Expr.rational(Fraction(1, 2))
    args = [v, 2 * v, x - v, v - x, c * t - w, half * x + t, w, -w + x]
    exprs = [Expr.one(), x, v * w, i, r, r * c, recip_e(v + x), i * r * x]
    for a in args:
        exprs += [sin_e(a), cos_e(a), exp_e(a), exp_e(-a), exp_e(i * a),
                  tan_e(a) * v, sin_e(a) * exp_e(-a) * r,
                  cos_e(a) * exp_e(a) * recip_e(v + t)]
    return [term for e in exprs for term in e._terms.items()]


def test_accumulate_matches_expr_arithmetic():
    rng = random.Random(SEED + 5)
    pool = _trig_exp_terms()
    seen = dict.fromkeys(["exp cancels", "sin(0)", "negative lead",
                          "three or more sin/cos"], 0)
    for _ in range(3 * N_EXPRS):
        terms = rng.sample(pool, rng.randint(2, 4))
        factors = [f for m, _ in terms for f in m]
        coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        start = dict(rng.sample(pool, rng.randint(0, 3)))
        got, ref = dict(start), dict(start)
        _accumulate(got, list(factors), coeff)
        _expr_accumulate(ref, list(factors), coeff, seen)
        assert _typed(got) == _typed(ref)
    assert min(seen.values()) >= 10, seen
    # factor lists holding every atom class at once
    x, v = _atom_expr("x"), _atom_expr("v")
    funcs = [_e(A) * x, _e(A_X) ** 2 * v, _e(B) ** -1 * sin_e(x), exp_e(_e(A)) * _e(B)]
    func_terms = [term for e in funcs for term in e._terms.items()]
    classes = (Sym, Root, Jet, Func, IUnit, Trig, ExpAtom, Recip)
    holding = {cls: [t for t in pool + func_terms
                     if any(a.__class__ is cls for a, _ in t[0])] for cls in classes}
    for _ in range(N_EXPRS):
        factors = [f for cls in rng.sample(classes, len(classes))
                   for f in rng.choice(holding[cls])[0]]
        assert {a.__class__ for a, _ in factors} == set(classes)
        coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        got, ref = {}, {}
        _accumulate(got, list(factors), coeff)
        _expr_accumulate(ref, list(factors), coeff, seen)
        assert _typed(got) == _typed(ref)
    recip = next(iter(recip_e(_atom_expr("v") + _atom_expr("x"))._terms))[0][0]
    for canonicalise in (_accumulate, lambda out, fl, q: _expr_accumulate(out, fl, q, seen)):
        with pytest.raises(DomainError, match="negative reciprocal power"):
            canonicalise({}, [(recip, -1), (sym("x"), 1)], 1)


def test_merged_exp_argument_keeps_sum_order():
    # symbols fresh to each product, so that the merged atom, and the term
    # order of its argument, is made by the call under test
    rng = random.Random(SEED + 6)
    for n in range(100):
        names = [_e(sym(f"m{n}_{j}")) for j in range(4)]
        exps = []
        for _ in range(rng.randint(2, 3)):
            arg = Expr.zero()
            for a in rng.sample(names, rng.randint(1, 3)):
                arg = arg + Expr.rational(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))) * a
            exps.append((next(iter(exp_e(arg)._terms))[0][0], rng.choice([-2, -1, 1, 2])))
        out = {}
        _accumulate(out, list(exps), 1)
        total = Expr.zero()
        for a, k in exps:
            total = total + a.arg * Expr.rational(k)
        got = [a for m in out for a, _ in m if isinstance(a, ExpAtom)]
        assert [list(a.arg._terms.items()) for a in got] == \
            ([list(total._terms.items())] if total._terms else [])


def test_product_to_sum_matches_expr_arithmetic():
    atoms = [a for m, _ in _trig_exp_terms() for a, _ in m
             if isinstance(a, Trig) and a.fn in ("sin", "cos")]
    for a1 in atoms:
        for a2 in atoms:
            got = [(fn, list(arg._terms.items()), w) for fn, arg, w in _product_to_sum(a1, a2)]
            ref = [(fn, list(arg._terms.items()), w)
                   for fn, arg, w in _expr_product_to_sum(a1, a2)]
            assert got == ref


def test_substituting_zero_into_a_trig_argument():
    # sin(0) = tan(0) = 0 and cos(0) = 1 are decided when the atom is rebuilt
    v, w = _atom_expr("v"), _atom_expr("w")
    zero = {jet("v"): Expr.zero()}
    assert substitute(sin_e(v) * w, zero) == Expr.zero()
    assert substitute(cos_e(v) * w, zero) == w
    assert substitute(tan_e(v) + sin_e(v) ** 2, zero) == Expr.zero()
