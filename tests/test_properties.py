"""Randomised kernel properties: canonical idempotence, value preservation,
parse/print roundtrip, product rule, imaginary-unit reduction, and both
directions of the sampled zero test."""

import random
from fractions import Fraction

from lieforge.expr_core import (
    Expr, I, PoleError, cos_e, derive, equals_zero, eval_numeric, exp_e, jet, recip_e,
    sin_e, sym, to_canonical, ZeroStatus, _ZERO_TOL,
)
from lieforge.parser import expr_text, parse_expr
from lieforge.systems import JetSpec

from exprgen import (kernel_point, random_point, random_tree, tree_eval,
                     tree_to_expr)

CTX = JetSpec(("t", "x"), ("v", "w"))
N_EXPRS = 300
SEED = 20240811


def _sample(rng, n):
    return [random_tree(rng) for _ in range(n)]


def test_canonical_idempotence():
    rng = random.Random(SEED)
    for tree in _sample(rng, N_EXPRS):
        e = tree_to_expr(tree)
        c1 = to_canonical(e)
        assert c1 == e
        assert to_canonical(c1) == c1


def test_value_preservation():
    # canonicalisation agrees with direct tree evaluation
    rng = random.Random(SEED + 1)
    checked = 0
    for tree in _sample(rng, N_EXPRS):
        e = tree_to_expr(tree)
        for _ in range(3):
            point = random_point(rng)
            try:
                want = tree_eval(tree, point)
                got = eval_numeric(e, kernel_point(point))
            except (PoleError, OverflowError):
                continue
            scale = max(1.0, abs(want))
            assert abs(got - want) < 1e-8 * scale, expr_text(e)
            checked += 1
    assert checked > N_EXPRS  # most points are pole-free


def test_parse_print_roundtrip():
    rng = random.Random(SEED + 2)
    for tree in _sample(rng, N_EXPRS):
        e = tree_to_expr(tree)
        text = expr_text(e)
        assert parse_expr(text, CTX) == e, text


def test_product_rule():
    rng = random.Random(SEED + 3)
    slots = [jet("v"), jet("v", ("x",)), sym("x"), jet("w")]
    for _ in range(N_EXPRS):
        e1 = tree_to_expr(random_tree(rng, depth=2))
        e2 = tree_to_expr(random_tree(rng, depth=2))
        a = rng.choice(slots)
        resid = derive(e1 * e2, a) - e1 * derive(e2, a) - e2 * derive(e1, a)
        assert resid.is_zero()


def test_derive_linearity():
    rng = random.Random(SEED + 4)
    for _ in range(N_EXPRS // 2):
        e1 = tree_to_expr(random_tree(rng, depth=2))
        e2 = tree_to_expr(random_tree(rng, depth=2))
        a = jet("v")
        assert (derive(e1 + e2, a) - derive(e1, a) - derive(e2, a)).is_zero()


def test_i_power_reduction():
    rng = random.Random(SEED + 5)
    for tree in _sample(rng, N_EXPRS):
        e = tree_to_expr(tree)
        for mono in e._terms:
            for atom, k in mono:
                if atom is I:
                    assert k == 1


def test_equals_zero_soundness():
    # whenever the kernel reports Zero, numeric evaluation confirms it
    rng = random.Random(SEED + 6)
    for _ in range(N_EXPRS // 3):
        e1 = tree_to_expr(random_tree(rng, depth=2))
        e2 = tree_to_expr(random_tree(rng, depth=2))
        probe = e1 * e2 - e2 * e1 + (e1 + e2) - e1 - e2
        assert equals_zero(probe) == ZeroStatus.ZERO
        for _ in range(5):
            point = kernel_point(random_point(rng))
            try:
                assert abs(eval_numeric(probe, point)) < 1e-10
            except PoleError:
                continue


_I, _HALF = I.as_expr(), Expr.rational(Fraction(1, 2))
# sin and cos by Euler's formula, tan as sin times the reciprocal of cos
EULER = {"sin": lambda a: (exp_e(_I * a) - exp_e(-_I * a)) * -_HALF * _I,
         "cos": lambda a: (exp_e(_I * a) + exp_e(-_I * a)) * _HALF,
         "tan": lambda a: sin_e(a) * recip_e(cos_e(a)), "exp": exp_e}


def test_equals_zero_reads_no_rewritten_zero_as_nonzero():
    # the canonical form is not unique across these rewrites, so a zero may keep
    # terms; it must sample to ProbablyZero, never read Nonzero
    rng = random.Random(SEED + 7)
    sampled = 0
    for tree in _sample(rng, 200):
        diff = tree_to_expr(tree) - tree_to_expr(tree, EULER)
        assert equals_zero(diff) != ZeroStatus.NONZERO, expr_text(diff)
        sampled += not diff.is_zero()
    assert sampled > 40  # the rewrite leaves terms in many trees


def test_equals_zero_nonzero_has_a_witness():
    # every Nonzero the generator yields is confirmed by the tree's own evaluator
    rng = random.Random(SEED + 8)
    for tree in _sample(rng, N_EXPRS // 3):
        if equals_zero(tree_to_expr(tree)) != ZeroStatus.NONZERO:
            continue
        values = []
        for _ in range(20):
            try:
                values.append(abs(tree_eval(tree, random_point(rng))))
            except (PoleError, OverflowError):
                continue
        assert values and max(values) > _ZERO_TOL, tree
