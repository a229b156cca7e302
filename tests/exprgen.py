"""Seeded random expression generator with an independent tree evaluator.

Trees are built first as plain tuples, evaluated numerically by direct
recursion (no kernel involvement), then translated into kernel expressions;
comparing the two evaluations checks that canonicalisation preserves value.
"""

import cmath
import random
from fractions import Fraction

from lieforge.expr_core import (
    Expr, I, PoleError, cos_e, exp_e, jet, random_rational, sin_e, sym, tan_e,
)

BASE_ATOMS = ["t", "x", "v", "w", "v_x", "w_x"]


def _atom_expr(name):
    if "_" in name:
        dep, idx = name.split("_")
        return jet(dep, tuple(idx)).as_expr()
    if name in ("v", "w"):
        return jet(name).as_expr()
    return sym(name).as_expr()


def random_linear_arg(rng):
    """Q-linear combination of base atoms plus a rational constant."""
    terms = []
    for name in rng.sample(BASE_ATOMS, rng.randint(1, 2)):
        q = random_rational(rng, -2, 2, den_max=3)
        if q:
            terms.append((name, q))
    const = random_rational(rng, -1, 1, den_max=2) if rng.random() < 0.3 else Fraction(0)
    if not terms:
        terms = [("v", Fraction(1))]
    return terms, const


def random_tree(rng, depth=3, allow_i=True):
    r = rng.random()
    if depth == 0 or r < 0.25:
        kind = rng.random()
        if kind < 0.35:
            return ("num", random_rational(rng, -2, 2, den_max=4))
        if kind < 0.85 or not allow_i:
            return ("atom", rng.choice(BASE_ATOMS))
        return ("i",)
    if r < 0.55:
        return ("add", [random_tree(rng, depth - 1, allow_i)
                        for _ in range(rng.randint(2, 3))])
    if r < 0.8:
        return ("mul", [random_tree(rng, depth - 1, allow_i)
                        for _ in range(2)])
    if r < 0.88:
        return ("pow", random_tree(rng, depth - 1, allow_i), rng.randint(2, 3))
    fn = rng.choice(["sin", "cos", "tan", "exp"])
    return (fn, random_linear_arg(rng))


KERNEL_FNS = {"sin": sin_e, "cos": cos_e, "tan": tan_e, "exp": exp_e}


def tree_to_expr(tree, fns=KERNEL_FNS) -> Expr:
    """The kernel expression of a tree, fns[name](arg) at each function node."""
    kind = tree[0]
    if kind == "num":
        return Expr.rational(tree[1])
    if kind == "atom":
        return _atom_expr(tree[1])
    if kind == "i":
        return I.as_expr()
    if kind == "add":
        out = Expr.zero()
        for ch in tree[1]:
            out = out + tree_to_expr(ch, fns)
        return out
    if kind == "mul":
        out = Expr.one()
        for ch in tree[1]:
            out = out * tree_to_expr(ch, fns)
        return out
    if kind == "pow":
        return tree_to_expr(tree[1], fns) ** tree[2]
    terms, const = tree[1]
    arg = Expr.rational(const)
    for name, q in terms:
        arg = arg + Expr.rational(q) * _atom_expr(name)
    return fns[kind](arg)


def tree_eval(tree, point: dict) -> complex:
    kind = tree[0]
    if kind == "num":
        return complex(tree[1])
    if kind == "atom":
        return point[tree[1]]
    if kind == "i":
        return 1j
    if kind == "add":
        return sum(tree_eval(ch, point) for ch in tree[1])
    if kind == "mul":
        out = 1 + 0j
        for ch in tree[1]:
            out *= tree_eval(ch, point)
        return out
    if kind == "pow":
        return tree_eval(tree[1], point) ** tree[2]
    terms, const = tree[1]
    z = complex(const) + sum(complex(q) * point[name] for name, q in terms)
    if kind == "sin":
        return cmath.sin(z)
    if kind == "cos":
        return cmath.cos(z)
    if kind == "tan":
        c = cmath.cos(z)
        if abs(c) < 1e-9:
            raise PoleError("tan pole in shadow evaluation")
        return cmath.sin(z) / c
    return cmath.exp(z)


def random_point(rng) -> dict:
    return {name: complex(random_rational(rng, -1, 1, den_max=5))
            for name in BASE_ATOMS}


def kernel_point(point: dict) -> dict:
    out = {}
    for name, val in point.items():
        if "_" in name:
            dep, idx = name.split("_")
            out[jet(dep, tuple(idx))] = val
        elif name in ("v", "w"):
            out[jet(name)] = val
        else:
            out[sym(name)] = val
    return out
