"""Exact symbolic expression kernel.

Expressions are finite sums  sum_m  q_m * m  where every q_m is a nonzero
``int`` or non-integral ``Fraction`` and every monomial m is a product of
atom powers; `terms()` and `as_rational()` hand out ``Fraction``s.  Atoms are
base symbols, jet coordinates (a dependent together with a multiset of
derivative indices), unknown functions with their own derivative multisets,
the imaginary unit, and opaque transcendental factors sin/cos/tan/exp of
polynomial arguments, plus reciprocals of whole expressions.

Canonicalisation rewrites:

* i^2 -> -1, so no monomial carries the imaginary unit above power one;
* exp factors inside one monomial are merged, exp(0) disappears;
* products of sin/cos are rewritten to Fourier form (product-to-sum) until
  each monomial holds at most one sin or cos factor;
* square-root symbols r = sqrt(c) rewrite as r^2 -> c;
* trig/exp arguments are sign-normalised (sin(-a) = -sin(a), cos(-a) = cos(a)).

tan is kept opaque with derivative 1 + tan^2 and is never rewritten into
sin/cos; reciprocal atoms make closed-form solution candidates expressible.
So the form is not unique: `verdict`, the one zero decision of generator,
symbolic profile, Jacobi and audit verdicts, is exact for `Zero` (an empty term
dict or a rational multiple of a stated constraint) but can read `Nonzero` on
a zero that holds reciprocals, tan, or exp of an imaginary argument.
`equals_zero` is the sampled test: `Zero` for an empty term dict, else
`Nonzero` only at a seeded rational point whose value exceeds its relative
tolerance, else `ProbablyZero`.  One product kernel multiplies term dicts
straight into an accumulator.

Every monomial product is normalised once per process: `_PRODUCTS`, keyed on
the factor tuple handed to `_accumulate`, holds the (monomial, coefficient at
1) puts of its normalisation, replayed in order and scaled, so terms, term
order and atom intern order are a first call's.  It is emptied at 8192
entries.  It and `_MEMO`, which keeps the chains, plans, stencils and s11
profile of `reduce` and the prolongations and residual maps of `symmetry`
among its 64 most recent entries, are the only process-wide tables:
`clear_caches()` empties both, as a fresh process starts them.  Atoms stay
interned in `_INTERN`.

Partial and total derivatives share one derivation loop: a sweep over the
terms, fixed by its values on symbols, jets and functions, with one chain
rule through trig/exp/reciprocal arguments; one sweep serves several
directions, as `gradient` does.  A total derivative takes two sweeps, the
partial by its symbol and then one raising jets and functions.
Substitution rebuilds only the terms holding a changed atom, as the product
of their factors in factor order.

Numeric evaluation compiles expressions once into a `NumericPlan`: one
generated straight-line function (as SymPy's lambdify; Meurer et al. 2017)
with one local per derived atom (I, sin/cos/tan, exp, reciprocal), power and
sum, shared by all outputs and nested arguments.  Its source holds generated
names and integers only, so no atom name or user text can break or inject
code.  Sums keep term and factor order: a value does not depend on which plan
computed it.  RK4, sampling and lifting compile loops around a plan's body.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, KeysView, Mapping, Sequence

__all__ = [
    "Atom", "Sym", "Root", "Jet", "Func", "IUnit", "Trig", "ExpAtom", "Recip",
    "Expr", "DomainError", "PoleError", "UnboundAtomError", "ZeroStatus",
    "sym", "root", "jet", "func", "I", "sin_e", "cos_e", "tan_e", "exp_e",
    "recip_e", "sqrt_e", "derive", "gradient", "substitute", "NumericPlan",
    "eval_numeric", "equals_zero", "verdict", "equal_up_to_factor",
    "to_canonical", "collect_terms", "atoms_of", "random_rational", "clear_caches",
]


class DomainError(ValueError):
    """Construction or operation outside the supported expression class."""


class PoleError(ArithmeticError):
    """Numeric evaluation hit a pole (tan at odd pi/2, vanishing reciprocal)."""


class UnboundAtomError(KeyError):
    """Numeric evaluation found an atom with no value bound."""


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

_INTERN: dict[tuple, "Atom"] = {}


class Atom:
    """An atom is made once per structural key and interned in `_INTERN`, so
    atoms compare and hash by identity; `key` orders them, and `_text` keeps
    the text of its first print (`parser.atom_text`)."""

    __slots__ = ("key", "_text")

    def __new__(cls, *args):
        raise TypeError("use the atom constructor helpers")

    @classmethod
    def _make(cls, key: tuple, **fields) -> "Atom":
        got = _INTERN.get(key)
        if got is None:
            got = object.__new__(cls)
            got.key, got._text = key, None
            for name, value in fields.items():
                setattr(got, name, value)
            _INTERN[key] = got
        return got

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        from .parser import atom_text
        return atom_text(self)

    def as_expr(self) -> "Expr":
        return Expr._single(self, 1, 1)


class Sym(Atom):
    __slots__ = ("name",)


class Root(Atom):
    """Square root of a base symbol; canonicalisation applies r^2 -> Sym(of)."""

    __slots__ = ("of",)


class Jet(Atom):
    """Jet coordinate: dependent `dep` differentiated by the multiset `idx`."""

    __slots__ = ("dep", "idx")

    @property
    def order(self) -> int:
        return len(self.idx)


class Func(Atom):
    """Unknown function of declared arguments, with a derivative multiset."""

    __slots__ = ("name", "args", "idx")


class IUnit(Atom):
    __slots__ = ()


class Trig(Atom):
    __slots__ = ("fn", "arg")


class ExpAtom(Atom):
    __slots__ = ("arg",)


class Recip(Atom):
    """Reciprocal of a canonical expression with leading coefficient one."""

    __slots__ = ("arg",)


def sym(name: str) -> Sym:
    return Sym._make((0, name), name=name)


def root(of: str) -> Root:
    return Root._make((1, of), of=of)


def jet(dep: str, idx: Iterable[str] = ()) -> Jet:
    tidx = tuple(sorted(idx))
    return Jet._make((2, dep, tidx), dep=dep, idx=tidx)


def func(name: str, args: Iterable[str], idx: Iterable[str] = ()) -> Func:
    targs = tuple(args)
    tidx = tuple(sorted(idx))
    bad = set(tidx) - set(targs)
    if bad:
        raise DomainError(f"derivative of {name}{targs} by non-argument {sorted(bad)}")
    return Func._make((3, name, targs, tidx), name=name, args=targs, idx=tidx)


I: IUnit = IUnit._make((4,))
_PLAIN = frozenset((Sym, Jet, Func))  # atoms canonicalisation never rewrites


def _check_transc_arg(arg: "Expr", fn: str, allow_i: bool) -> None:
    for mono in arg._terms:
        for atom, _ in mono:
            if isinstance(atom, (Trig, ExpAtom, Recip)):
                raise DomainError(f"{fn} argument contains a transcendental factor")
            if isinstance(atom, IUnit) and not allow_i:
                raise DomainError(f"{fn} argument may not contain I")


def _trig_atom(fn: str, arg: "Expr") -> tuple[int, Atom | None]:
    """Normalised trig factor: returns (coefficient multiplier, atom or None)."""
    if not arg._terms:
        return (0, None) if fn in ("sin", "tan") else (1, None)
    if arg._lead_coeff() < 0:
        flip = -1 if fn in ("sin", "tan") else 1
        arg = -arg
    else:
        flip = 1
    return flip, Trig._make((6, fn, arg._key()), fn=fn, arg=arg)


def _exp_atom(arg: "Expr") -> Atom | None:
    if not arg._terms:
        return None
    return ExpAtom._make((5, arg._key()), arg=arg)


def _trig_e(fn: str, arg: "Expr") -> "Expr":
    _check_transc_arg(arg, fn, allow_i=False)
    q, a = _trig_atom(fn, arg)
    return Expr._single(a, 1, q) if a is not None else Expr.rational(q)


def sin_e(arg: "Expr") -> "Expr":
    return _trig_e("sin", arg)


def cos_e(arg: "Expr") -> "Expr":
    return _trig_e("cos", arg)


def tan_e(arg: "Expr") -> "Expr":
    return _trig_e("tan", arg)


def exp_e(arg: "Expr") -> "Expr":
    _check_transc_arg(arg, "exp", allow_i=True)
    a = _exp_atom(arg)
    return a.as_expr() if a is not None else Expr.one()


def recip_e(arg: "Expr") -> "Expr":
    if not arg._terms:
        raise ZeroDivisionError("reciprocal of zero expression")
    inv = _invert_single(arg)
    if inv is not None:
        return inv
    q = Fraction(1) / arg._lead_coeff()
    scaled = arg * Expr.rational(q)
    return Expr._single(Recip._make((7, scaled._key()), arg=scaled), 1, q)


def sqrt_e(arg: "Expr") -> "Expr":
    """Exact square root of a rational perfect square, single symbol (fresh
    root atom with r^2 -> symbol rewrite), or monomial of even powers."""
    terms = arg._terms
    if not terms:
        return Expr.zero()
    if len(terms) != 1:
        raise DomainError("sqrt of a sum is outside the expression class")
    mono, q = next(iter(terms.items()))
    if q < 0:
        raise DomainError("sqrt of a negative coefficient")
    num, den = q.numerator, q.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    out_atoms: list[tuple[Atom, int]] = []
    for atom, k in mono:
        if k % 2 == 0:
            out_atoms.append((atom, k // 2))
        elif k == 1 and isinstance(atom, Sym):
            out_atoms.append((root(atom.name), 1))
        else:
            raise DomainError("sqrt of an odd atom power")
    if rn is None or rd is None:
        raise DomainError("sqrt of a non-square rational")
    out: dict[Monomial, Coeff] = {}
    _accumulate(out, out_atoms, Fraction(rn, rd))
    return Expr(out)


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


_MEMO: dict[tuple, object] = {}  # least recently used first
_MEMO_SIZE, _MISS = 64, object()


def _memo(key: tuple, make: Callable[[], object]):
    """make(), kept while key is among the _MEMO_SIZE most recent (chains,
    plans, loops, stencils and the s11 profile of `reduce`, prolongations and
    residual maps of `symmetry`), returned as is, even empty."""
    got = _MEMO.pop(key, _MISS)
    _MEMO[key] = got = make() if got is _MISS else got
    if len(_MEMO) > _MEMO_SIZE:
        del _MEMO[next(iter(_MEMO))]
    return got


def clear_caches() -> None:
    """Empty `_PRODUCTS` and `_MEMO`.  `_INTERN` stays: atoms compare by
    identity, and module constants hold them."""
    _PRODUCTS.clear()
    _MEMO.clear()


# ---------------------------------------------------------------------------
# expression
# ---------------------------------------------------------------------------

Monomial = tuple  # tuple[tuple[Atom, int], ...] sorted by atom key
Coeff = int | Fraction  # a stored coefficient: int, or Fraction with denominator > 1

_ONE_M: Monomial = ()


def _mono_key(m: Monomial):
    return tuple((a.key, k) for a, k in m)


class Expr:
    __slots__ = ("_terms", "_cached_key", "_cached_hash")

    def __init__(self, terms: dict | None = None):
        self._terms: dict[Monomial, Coeff] = terms if terms is not None else {}
        self._cached_key = None
        self._cached_hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return Expr({})

    @staticmethod
    def one() -> "Expr":
        return Expr({_ONE_M: 1})

    @staticmethod
    def rational(q) -> "Expr":
        if isinstance(q, (float, complex)):
            raise DomainError(f"inexact coefficient {q!r}")
        if q.__class__ is not int:
            q = Fraction(q)
            q = q.numerator if q.denominator == 1 else q
        return Expr({_ONE_M: q}) if q else Expr({})

    @staticmethod
    def _single(atom: Atom, k: int, q: Coeff) -> "Expr":
        out: dict[Monomial, Coeff] = {}
        _accumulate(out, ((atom, k),), q)
        return Expr(out)

    # -- identity ----------------------------------------------------------

    def _key(self):
        if self._cached_key is None:
            self._cached_key = tuple(sorted(
                (_mono_key(m), (q.numerator, q.denominator))
                for m, q in self._terms.items()))
        return self._cached_key

    def __hash__(self):
        if self._cached_hash is None:
            self._cached_hash = hash(self._key())
        return self._cached_hash

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __repr__(self):
        from .parser import expr_text
        return expr_text(self)

    def _lead_mono(self) -> Monomial:
        return min(self._terms, key=_mono_key)

    def _lead_coeff(self) -> Coeff:
        return self._terms[self._lead_mono()]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Expr":
        return Expr(_add_into(dict(self._terms), _coerce(other)._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr({m: -q for m, q in self._terms.items()})

    def __sub__(self, other) -> "Expr":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Expr":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Expr":
        return Expr(_mul_into({}, self._terms, _coerce(other)._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise DomainError("exponent must be an integer")
        if n < 0:
            return recip_e(self) ** (-n)
        return _power(self, n, Expr.__mul__)

    def __truediv__(self, other) -> "Expr":
        other = _coerce(other)
        if not other._terms:
            raise ZeroDivisionError("division by zero expression")
        return self * recip_e(other)

    def __rtruediv__(self, other) -> "Expr":
        return _coerce(other) / self

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _ONE_M in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and _ONE_M in self._terms:
            return Fraction(self._terms[_ONE_M])
        raise DomainError("expression is not a rational constant")

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(((m, Fraction(q)) for m, q in self._terms.items()),
                      key=lambda t: _mono_key(t[0]))


def _power(base: Expr, n: int, times: Callable[[Expr, Expr], Expr]) -> Expr:
    """base^n for n >= 0 by square-and-multiply, each product formed by `times`
    (the parser's `^` passes one that keeps its term budget)."""
    out = Expr.one()
    while n:
        if n & 1:
            out = times(out, base)
        n >>= 1
        if n:
            base = times(base, base)
    return out


def _add_into(out: dict[Monomial, Coeff],
              terms: Iterable[tuple[Monomial, Coeff]]) -> dict[Monomial, Coeff]:
    """Add terms into `out` in place, dropping monomials that cancel; a new
    monomial goes last and an existing one keeps its place."""
    for m, q in terms:
        _put(out, m, q)
    return out


def _put(out: dict[Monomial, Coeff], m: Monomial, q: Coeff) -> None:
    """Add q*m into `out`: a new monomial takes q as it is, a sum that cancels
    is dropped, and an integral sum is stored as an `int`."""
    s = out.get(m)
    s = q if s is None else s + q
    if s:
        out[m] = s if s.__class__ is int or s.denominator != 1 else s.numerator
    else:
        del out[m]


def _is_plain(m: Monomial) -> bool:
    for a, _ in m:
        if a.__class__ not in _PLAIN:
            return False
    return True


def _mul_into(out: dict[Monomial, Coeff], A: Mapping[Monomial, Coeff],
              B: Mapping[Monomial, Coeff]) -> dict[Monomial, Coeff]:
    """Add the product of the canonical term dicts A and B into `out` in
    place, term by term in the order of A, then of B, each product of two
    monomials handed to `_accumulate` as one factor tuple."""
    for m1, q1 in A.items():
        for m2, q2 in B.items():
            _accumulate(out, m1 + m2, q1 * q2)
    return out


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.rational(x)
    raise TypeError(f"cannot coerce {type(x)!r} to Expr")


def _invert_single(e: Expr) -> Expr | None:
    """Exact reciprocal of a single-term expression, or None."""
    if len(e._terms) != 1:
        return None
    mono, q = next(iter(e._terms.items()))
    factors: list[tuple[Atom, int]] = []
    coeff = Fraction(1) / q
    for atom, k in mono:
        if isinstance(atom, (Sym, Root, Jet, Func)):
            factors.append((atom, -k))
        elif isinstance(atom, IUnit):
            # i^-1 = -i
            coeff *= (-1) ** k
            factors.append((atom, k))
        elif isinstance(atom, ExpAtom):
            factors.append((atom, -k))
        else:
            return None
    out: dict[Monomial, Coeff] = {}
    _accumulate(out, factors, coeff)
    return Expr(out)


# ---------------------------------------------------------------------------
# monomial canonicalisation
# ---------------------------------------------------------------------------

_PRODUCTS, _PRODUCTS_SIZE = {}, 8192  # factor tuple -> [(monomial, coefficient at 1)]


def _accumulate(out: dict[Monomial, Coeff], factors: Iterable[tuple[Atom, int]],
                coeff: Coeff) -> None:
    """Add coeff times the normal form of a factor list into `out` (an
    integral sum stored as an `int`, nothing for coeff 0) by replaying the
    puts of `_normal_form` kept in `_PRODUCTS`; a DomainError keeps nothing.
    A put at 1, as every plain product's is, adds coeff itself; a put at c
    on an int coeff that c.denominator divides adds c * coeff as an int."""
    if not coeff:
        return
    key = tuple(factors)
    puts = _PRODUCTS.get(key)
    if puts is None:
        puts = _normal_form(key)  # raises before anything is kept
        if len(_PRODUCTS) >= _PRODUCTS_SIZE:
            _PRODUCTS.clear()
        _PRODUCTS[key] = puts
    for m, c in puts:
        _put(out, m, coeff if c == 1 else coeff // c.denominator * c.numerator
             if coeff.__class__ is int and not coeff % c.denominator else c * coeff)


def _normal_form(factors: tuple[tuple[Atom, int], ...]) -> list[tuple[Monomial, Coeff]]:
    """The (monomial, coefficient) puts that normalise the product of a factor
    list: I mod 4, roots, exp merge, product-to-sum, sign flips."""
    puts, stack = [], [(factors, 1)]
    while stack:
        fl, q = stack.pop()
        if not q:
            continue
        powers: dict[Atom, int] = {}
        for atom, k in fl:
            powers[atom] = powers.get(atom, 0) + k
        # imaginary unit: reduce exponent mod 4
        ik = powers.pop(I, 0)
        if ik:
            ik %= 4
            if ik >= 2:
                q = -q
                ik -= 2
            if ik:
                powers[I] = 1

        # root symbols: r^k -> Sym(of)^((k - k%2)/2) * r^(k%2)
        for atom in [a for a in powers if a.__class__ is Root]:
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

        # merge exponentials; a lone exp(arg) stays, its argument is
        # canonical and nonzero (only _exp_atom makes the atom)
        exps = [(a, k) for a, k in powers.items() if a.__class__ is ExpAtom]
        if len(exps) > 1 or exps and exps[0][1] != 1:
            total: dict[Monomial, Coeff] = {}
            for a, k in exps:
                del powers[a]
                for m, aq in a.arg._terms.items() if k else ():
                    _put(total, m, aq * k)
            na = _exp_atom(Expr(total))
            if na is not None:
                powers[na] = powers.get(na, 0) + 1

        # a reciprocal atom stays: only recip_e makes one, of a nonzero
        # argument it could not invert, and that argument never changes
        if any(k < 0 for a, k in powers.items() if a.__class__ is Recip):
            raise DomainError("negative reciprocal power")

        # trig bookkeeping
        trig_sc: list[Trig] = []
        for atom in [a for a in powers if a.__class__ is Trig]:
            k = powers[atom]
            if k < 0:
                raise DomainError("negative power of a trig factor")
            if atom.fn in ("sin", "cos"):
                trig_sc.extend([atom] * k)
                del powers[atom]

        if len(trig_sc) >= 2:
            a1, a2 = trig_sc[0], trig_sc[1]
            rest = [(a, 1) for a in trig_sc[2:]]
            others = [(a, k) for a, k in powers.items()]
            for fn, arg, w in _product_to_sum(a1, a2):
                wq = q * w
                flip, atom = _trig_atom(fn, arg)
                if flip != 1:  # 0 for sin(0): a multiplication, not a negation
                    wq *= flip
                nl = others + rest + ([(atom, 1)] if atom is not None else [])
                stack.append((nl, wq))
            continue

        # single leftover sin/cos
        for atom in trig_sc:
            powers[atom] = powers.get(atom, 0) + 1

        mono = tuple(sorted(((a, k) for a, k in powers.items() if k != 0),
                            key=lambda t: t[0].key))
        puts.append((mono, q))
    return puts


_HALF = Fraction(1, 2)


def _product_to_sum(a1: Trig, a2: Trig) -> list[tuple[str, Expr, Fraction]]:
    """sin/cos product rewriting into (fn, arg, weight) triples, with the
    arguments A + B and A - B (B - A for cos * sin)."""
    A, B = a1.arg, a2.arg
    plus, minus = A + B, B - A if (a1.fn, a2.fn) == ("cos", "sin") else A - B
    if a1.fn == "sin" and a2.fn == "sin":
        return [("cos", minus, _HALF), ("cos", plus, -_HALF)]
    if a1.fn == "cos" and a2.fn == "cos":
        return [("cos", minus, _HALF), ("cos", plus, _HALF)]
    return [("sin", plus, _HALF), ("sin", minus, _HALF)]


def to_canonical(e: Expr) -> Expr:
    """Re-normalise an expression (idempotent on canonical input)."""
    out: dict[Monomial, Coeff] = {}
    for m, q in e._terms.items():
        _accumulate(out, m, q)
    return Expr(out)


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def atoms_of(e: Expr, recurse: bool = True) -> KeysView[Atom]:
    """All atoms of an expression, by default descending into trig/exp/recip
    arguments, as a set-like view in order of first occurrence: atoms hash by
    identity, so a set of them would iterate in order of memory address."""
    seen: dict[Atom, None] = {}
    stack = [e]
    while stack:
        cur = stack.pop()
        for m in cur._terms:
            for atom, _ in m:
                if atom in seen:
                    continue
                seen[atom] = None
                if recurse and isinstance(atom, (Trig, ExpAtom, Recip)):
                    stack.append(atom.arg)
    return seen.keys()


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def derive(e: Expr, a: Atom) -> Expr:
    """Partial derivative treating all other atoms as independent; chain rule
    through transcendental factors.  Term order follows the terms of `e`,
    then their factors, then the terms of each factor's derivative: the
    one-direction sweep of `_derivation`."""
    return Expr(_derivation(e, {_direction(a): ((0, {_ONE_M: 1}),)}.get, [{}])[0])


def gradient(e: Expr, atoms: Sequence[Atom]) -> list[Expr]:
    """derive(e, a) for every a of `atoms`, term for term, from one sweep."""
    deltas: dict[Atom, tuple] = {}
    for j, a in enumerate(atoms):
        deltas[_direction(a)] = deltas.get(a, ()) + ((j, {_ONE_M: 1}),)
    return list(map(Expr, _derivation(e, deltas.get, [{} for _ in atoms])))


def _direction(a: Atom) -> Atom:
    if isinstance(a, (Sym, Jet, Func, Root)):
        return a
    raise DomainError("derivative only with respect to symbols, jets, or functions")


def _derivation(e: Expr, delta: Callable[[Atom], tuple | None], outs: list[dict]) -> list[dict]:
    """Add D_j(e) into outs[j] and return outs: one sweep adding
    q*k*atom^(k-1)*D_j(atom)*rest for every factor atom^k of every term
    q*rest*atom^k, outs[j] in the term order of a sweep for D_j alone.
    delta(atom) holds the nonzero (j, term dict of D_j(atom)), or is None;
    trig, exp and reciprocal atoms take the chain rule through their
    arguments, and a root without a value for j differentiates as a^(1/2)."""
    dvals: dict[Atom, tuple] = {}
    for m, q in e._terms.items():
        for i, (atom, k) in enumerate(m):
            ds = dvals.get(atom)
            if ds is None:
                ds = dvals[atom] = _datom(atom, delta, outs)
            if ds:
                rest = m[:i] + ((atom, k - 1),) + m[i + 1:] if k != 1 else m[:i] + m[i + 1:]
                for j, d in ds:
                    _mul_into(outs[j], {rest: q * k}, d)
    return outs


def _datom(atom: Atom, delta: Callable[[Atom], tuple | None], outs: list) -> Sequence:
    """The nonzero values (j, term dict) of D_j(atom) in a `_derivation` into outs."""
    if atom.__class__ in _PLAIN:
        return delta(atom) or ()
    if isinstance(atom, Root):  # sqrt(a)' = sqrt(a) a'/(2a) where delta names no value
        named, chain = delta(atom) or (), delta(sym(atom.of))
        return [*named, *[
            (j, (atom.as_expr() * Expr(da) / (Expr.rational(2) * sym(atom.of).as_expr()))._terms)
            for j, da in chain if j not in dict(named)]] if chain else named
    if not isinstance(atom, (Trig, ExpAtom, Recip)):
        return ()
    dargs = _derivation(atom.arg, delta, [{} for _ in outs])
    if not any(dargs):
        return ()
    if isinstance(atom, Recip):
        r = atom.as_expr()
        return [(j, (-Expr(t) * r * r)._terms) for j, t in enumerate(dargs) if t]
    outer = (atom.as_expr() if isinstance(atom, ExpAtom) else
             cos_e(atom.arg) if atom.fn == "sin" else
             -sin_e(atom.arg) if atom.fn == "cos" else
             Expr.one() + (tn := tan_e(atom.arg)) * tn)._terms
    return [(j, _mul_into({}, outer, t)) for j, t in enumerate(dargs) if t]


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def substitute(e: Expr, bindings: Mapping[Atom, Expr]) -> Expr:
    """Simultaneous substitution of atoms by expressions, then renormalise, in
    one pass: values are not substituted again, so {v: w, w: v} swaps and
    {v: v + 1} shifts.  Only terms with a changed atom are rebuilt, as the
    product of their factors in factor order on term dicts: a changed factor
    as its value raised to its power, an unchanged one as itself."""
    cache: dict[Atom, Expr | None] = {}

    def atom_value(atom: Atom) -> Expr | None:
        got = bindings.get(atom)
        if got is not None:
            return got
        if atom not in cache:
            val = None
            if isinstance(atom, (Trig, ExpAtom, Recip)):
                narg = substitute(atom.arg, bindings)
                if narg != atom.arg:
                    val = (recip_e(narg) if isinstance(atom, Recip) else
                           exp_e(narg) if isinstance(atom, ExpAtom) else
                           _trig_e(atom.fn, narg))
            cache[atom] = val
        return cache[atom]

    out: dict[Monomial, Coeff] = {}
    for m, q in e._terms.items():
        vals = [atom_value(atom) for atom, _ in m]
        if all(v is None for v in vals):
            _add_into(out, ((m, q),))
            continue
        term: dict[Monomial, Coeff] = {_ONE_M: q}
        for (atom, k), val in zip(m, vals):
            term = _mul_into({}, term, {((atom, k),): 1} if val is None else
                             (val if k == 1 else val ** k)._terms)
        _add_into(out, term.items())
    return Expr(out)


# ---------------------------------------------------------------------------
# numeric evaluation and randomised zero testing
# ---------------------------------------------------------------------------

_POLE_TOL = 1e-13


def _tan(z: complex) -> complex:
    c = cmath.cos(z)
    if abs(c) < _POLE_TOL:
        raise PoleError(f"tan pole at argument {z}")
    return cmath.sin(z) / c


def _recip(d: complex) -> complex:
    if abs(d) < _POLE_TOL:
        raise PoleError("reciprocal pole")
    return 1.0 / d


# Sums longer than this are split into statements: the compiler recurses once
# per operator, so one expression of thousands of terms overflows its stack.
_CHUNK = 100
# the function a derived atom applies to its argument, by trig name or class
_FNS = {"sin": "_sin", "cos": "_cos", "tan": "_tan", ExpAtom: "_exp", Recip: "_recip",
        IUnit: ""}


class NumericPlan:
    """`NumericPlan(exprs, inputs)(values)`: one complex per expression, with
    `values` in the order of `inputs`.  Building raises UnboundAtomError,
    calling raises PoleError.  The generated function unpacks the inputs as
    complex; every sum starts at 0j and adds its terms left to right, a term
    its constant times each factor's power in monomial order.  Each distinct
    power v ** k is one local, defined just before the first statement that
    reads it, ``** 1`` kept as it raises OverflowError on an infinite input;
    each distinct sum is one local, which sin, cos, tan, exp and the reciprocal
    of one argument share, as does an output with its terms.  Constants are
    `complex(q)` objects bound in the function's globals, not re-parsed float
    literals, so the floating operations, and the order in which powers and
    derived atoms raise, are those of a term-by-term interpreter that
    evaluates each derived atom when first seen.  It compiles on first call.  The
    loops `rk4`, `sampler` and `lifter` inline the body once per RK4 stage, per
    verification sample (with the profile's) and per grid point of a lift."""

    def __init__(self, exprs: Iterable[Expr], inputs: Iterable[Atom]):
        inputs = list(inputs)
        self._slot = {a: f"x{i}" for i, a in enumerate(inputs)}
        self._consts: dict[Coeff, str] = {}
        self._powers: dict[tuple[Atom, int], str] = {}
        self._pending: dict[str, str] = {}  # power locals named but not yet defined
        self._sums: dict[tuple, str] = {}
        self._lines: list[str] = []  # the body: derived atoms, then the outputs
        self._outs = self._section(exprs)
        self._n_in, self._n_out = len(inputs), len(self._outs)

    def _section(self, exprs: Iterable[Expr]) -> list[str]:
        """Append the lines of exprs, every derived atom before the sums; their names."""
        return [self._sum(terms) for terms in [self._terms(e) for e in exprs]]

    def _read(self, slot: str, value: str) -> list[str]:
        """[`slot = complex(value)`] if a line reads input slot (through its powers), else []."""
        read = any(self._slot[a] == slot for a, _ in self._powers)
        return [f"{slot} = complex({value})"] if read else []

    def _terms(self, e: Expr) -> tuple[tuple[str, ...], ...]:
        """Each term as its constant's name and its factors' power locals."""
        return tuple((self._consts.setdefault(q, f"c{len(self._consts)}"),
                      *(self._power(a, k) for a, k in m))
                     for m, q in e._terms.items())

    def _power(self, atom: Atom, k: int) -> str:
        if (atom, k) not in self._powers:
            base = self._resolve(atom)  # may name other powers first
            got = self._powers[atom, k] = f"p{len(self._powers)}"
            self._pending[got] = f"{got} = {base}**{k}"
        return self._powers[atom, k]

    def _sum(self, terms: tuple[tuple[str, ...], ...]) -> str:
        """The local `a = 0j + terms...`, one per distinct sum, in statements of
        at most _CHUNK terms after the power locals no earlier statement reads."""
        if terms not in self._sums:
            name = self._sums[terms] = f"a{len(self._sums)}"
            self._lines += [self._pending.pop(f) for term in terms for f in term
                            if f in self._pending]
            parts = ["0j", *map("*".join, terms)]
            while len(parts) > _CHUNK:
                self._lines.append(f"{name} = {' + '.join(parts[:_CHUNK])}")
                parts = [name, *parts[_CHUNK:]]
            self._lines.append(f"{name} = {' + '.join(parts)}")
        return self._sums[terms]

    def _resolve(self, atom: Atom) -> str:
        got = self._slot.get(atom)
        if got is not None:
            return got
        fn = _FNS.get(atom.fn if isinstance(atom, Trig) else type(atom))
        if fn is None:
            raise UnboundAtomError(f"unbound atom {atom!r}")
        arg = "_I" if isinstance(atom, IUnit) else self._sum(self._terms(atom.arg))
        got = self._slot[atom] = f"d{len(self._slot)}"
        self._lines.append(f"{got} = {fn}({arg})")
        return got

    def _compile(self, name: str, args: str, lines: list[str], **names) -> Callable:
        names.update(_I=1j, _sin=cmath.sin, _cos=cmath.cos, _tan=_tan, _exp=cmath.exp,
                     _recip=_recip, _inf=math.inf, _PoleError=PoleError, _DomainError=DomainError)
        names.update((c, complex(q)) for q, c in self._consts.items())
        source = f"def {name}({args}):\n    " + "\n    ".join(lines)
        # profilers label a function by (file, line, name): one file per function,
        # named by its globals dict, which lives as long as the function does
        exec(compile(source, f"<NumericPlan {id(names):#x}>", "exec"), names)
        return names[name]

    @cached_property
    def _fn(self) -> Callable:
        return self._compile("plan", "values", [
            f"[{', '.join(f'x{i}' for i in range(self._n_in))}] = map(complex, values)",
            *self._lines, f"return [{', '.join(self._outs)}]"])

    def __call__(self, values: Iterable) -> list[complex]:
        return self._fn(values)

    def rk4(self, n_bound: int) -> Callable:
        """Classical RK4 with this plan as right-hand side, its inputs `n_bound`
        bound values, s and the state: `run(bound, s0, state, h, n_steps, guard)
        -> (grid, columns)` stops before a state component exceeds `guard` or is
        NaN.  The body is inlined per stage, so the floating operations are those
        of four plan calls per step, in the same order.  It compiles once per plan."""
        if n_bound != self._n_in - 1 - self._n_out:
            raise ValueError(f"RK4 inputs: {n_bound} bound, s and {self._n_out} states, "
                             f"not {self._n_in}")
        return self._rk4

    @cached_property
    def _rk4(self) -> Callable:
        n, n_bound = self._n_out, self._n_in - 1 - self._n_out
        states = range(n)
        lines = [f"[{', '.join(f'x{i}' for i in range(n_bound))}] = map(complex, bound)",
                 f"[{', '.join(f'y{j}' for j in states)}] = state", "h2, h6 = h / 2, h / 6",
                 "grid = [s0]", *(f"col{j} = [y{j}]" for j in states),
                 "for i in range(n_steps):", "    s = s0 + i * h"]
        stages = [("s", "y{j}"), ("s + h2", "y{j} + h2 * k1_{j}"),
                  ("s + h2", "y{j} + h2 * k2_{j}"), ("s + h", "y{j} + h * k3_{j}")]
        for stage, (s_in, y_in) in enumerate(stages, 1):  # an autonomous system reads no s
            lines += ("    " + line for line in self._read(f"x{n_bound}", s_in))
            lines += (f"    x{n_bound + 1 + j} = {y_in.format(j=j)}" for j in states)
            lines += ("    " + line for line in self._lines)
            lines += (f"    k{stage}_{j} = {self._outs[j]}" for j in states)
        lines += (f"    y{j} = y{j} + h6 * (k1_{j} + 2 * k2_{j} + 2 * k3_{j} + k4_{j})"
                  for j in states)
        blown = " or ".join(f"abs(y{j}) > guard or y{j} != y{j}" for j in states)
        lines += [f"    if {blown or 'False'}:", "        break", "    grid.append(s + h)",
                  *(f"    col{j}.append(y{j})" for j in states),
                  f"return grid, [{', '.join(f'col{j}' for j in states)}]"]
        return self._compile("rk4", "bound, s0, state, h, n_steps, guard", lines)

    @classmethod
    def sampler(cls, profile: list[Expr], inputs: list[Atom], n_poles: int, jets: list[Atom],
                sampled: list[list[Atom]], residuals: list[Expr]) -> Callable:
        """`run(bound, lo, hi, samples, fns) -> (worst, good)`, bound the values of all
        inputs but s, the last: sample idx at lo + (hi - lo) * idx / samples, then at
        golden-ratio fractions of [lo, hi], 6 * samples at most.  A sample within 0.05
        of a zero of the first n_poles profile outputs, or raising PoleError, is
        skipped; the rest of the profile gives `jets`, fns[i](s) lists `sampled[i]`
        first (a shorter list raises DomainError).  worst: max |residual|, NaN as
        inf, over `good` samples, as a profile and a residual plan per sample give."""
        plan = cls(profile, inputs)
        n_s, head, plan._lines = plan._n_in - 1, plan._lines, []
        plan._slot.update(zip(jets, plan._outs[n_poles:]))
        fill, errors, n = [], {}, plan._n_in
        for i, atoms in enumerate(sampled):  # bound last: a sampled value overrides
            names, n = [f"x{n + j}" for j in range(len(atoms))], n + len(atoms)
            plan._slot.update(zip(atoms, names))
            errors[f"e{i}"] = f"a jet shorter than [{', '.join(map(repr, atoms))}]"
            fill += [f"j = f{i}(s)", f"if len(j) < {len(atoms)}: raise _DomainError(e{i})",
                     f"[{', '.join(names)}] = map(complex, j[:{len(atoms)}])"]
        worst = ", ".join(f"abs({r}) if {r} == {r} else _inf" for r in plan._section(residuals))
        near = " or ".join(f"abs({d}) < 0.05" for d in plan._outs[:n_poles])
        body = [*plan._read(f"x{n_s}", "s"), *head, f"if {near or 'False'}: continue",
                *fill, *plan._lines]
        lines = [f"[{', '.join(f'x{i}' for i in range(n_s))}] = map(complex, bound)",
                 f"[{', '.join(f'f{i}' for i in range(len(sampled)))}] = fns",
                 "worst, good, idx, budget = 0.0, 0, 0, samples * 6",
                 "while good < samples and idx < budget:",
                 "    if idx < samples: s = lo + (hi - lo) * idx / samples",
                 "    else: s = lo + (hi - lo) * ((idx * 0.6180339887498949) % 1.0)",
                 "    idx += 1", "    try:", *("        " + line for line in body),
                 "    except _PoleError: continue", f"    worst = max(worst, {worst})",
                 "    good += 1", "return worst, good"]
        return plan._compile("sample", "bound, lo, hi, samples, fns", lines, **errors)

    @classmethod
    def lifter(cls, rhs: list[Expr], inputs: list[Atom], stencils: list[tuple[int, list[float]]],
               h: float) -> Callable:
        """`run(c, n, fns) -> worst`: max |u_t - rhs|, NaN as inf, over the n x n grid of
        [-0.5, 0.5]^2 of u = fns[i](x - c t); inputs t, x, then per dependent its value,
        x-derivatives of orders 1..m and t-derivative.  stencils[k - 1] is the (half
        width, float weights) of order k, k = 1..max(m, 1), u_t taking the first.  Each
        fns[i] is called at x - c t, then at x + o*h - c t and x - c (t + o*h) for each
        nonzero offset; order k is (0 + w * sample + ...) / h**k in offset order, as
        `sum` adds on Python 3.11 (3.12 compensates float sums)."""
        plan = cls(rhs, inputs)
        m = (plan._n_in - 2) // plan._n_out - 2  # x-derivatives per dependent
        halves = {"x": stencils[m - 1][0] if m else 0, "t": stencils[0][0]}
        wide = max(halves.values())  # sample index i is offset i - wide
        names = {f"_o{i}": (i - wide) * h for i in range(2 * wide + 1)}
        for k, (_, ws) in enumerate(stencils, 1):
            names.update({f"_h{k}": h ** k}, **{f"_w{k}_{j}": w for j, w in enumerate(ws)})
        at = {ax: [i for i in range(wide - half, wide + half + 1) if i != wide]
              for ax, half in halves.items()}

        def diff(k, samples):  # order k over samples[i], the profile at index i
            half = stencils[k - 1][0]
            terms = (f"_w{k}_{j} * {samples[wide - half + j]}" for j in range(2 * half + 1))
            return f"(0 + {' + '.join(terms)}) / _h{k}"

        body = [*plan._read("x1", "x"), "s = x - ct", *(f"sx{i} = x + _o{i} - ct" for i in at["x"]),
                *(f"st{i} = x - c * (t + _o{i})" for i in at["t"])]
        for d in range(plan._n_out):
            base = 2 + d * (m + 2)
            sx, st = ({wide: f"v{d}", **{i: f"v{d}{ax}{i}" for i in at[ax]}} for ax in "xt")
            body += [f"v{d} = f{d}(s)", *(f"{sx[i]} = f{d}(sx{i})" for i in at["x"]),
                     *(f"{st[i]} = f{d}(st{i})" for i in at["t"]), *plan._read(f"x{base}", f"v{d}")]
            for k in range(1, m + 1):
                body += plan._read(f"x{base + k}", diff(k, sx))
            body += [f"u{d} = {diff(1, st)}", *plan._read(f"x{base + m + 1}", f"u{d}")]
        body += plan._lines
        for d, out in enumerate(plan._outs):
            body += [f"r = u{d} - {out}", "worst = max(worst, abs(r) if r == r else _inf)"]
        lines = [f"[{', '.join(f'f{d}' for d in range(plan._n_out))}] = fns", "worst = 0.0",
                 "for i in range(n):", "    t = -0.5 + i / (n - 1)", "    ct = c * t",
                 *("    " + line for line in plan._read("x0", "t")), "    for j in range(n):",
                 "        x = -0.5 + j / (n - 1)", *("        " + line for line in body),
                 "return worst"]
        return plan._compile("lift", "c, n, fns", lines, **names)


def eval_numeric(e: Expr, point: Mapping[Atom, complex]) -> complex:
    """Floating evaluation at one point; raises UnboundAtomError / PoleError.
    Callers that evaluate at many points compile one `NumericPlan` instead."""
    return NumericPlan([e], point)(point.values())[0]


class ZeroStatus:
    ZERO = "Zero"
    NONZERO = "Nonzero"
    PROBABLY_ZERO = "ProbablyZero"


def random_rational(rng: random.Random, lo=-2, hi=2, den_max=7) -> Fraction:
    den = rng.randint(1, den_max)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def _sample_values(n_roots: int, n_free: int, rng: random.Random) -> list[complex]:
    """Rational values: (r, r^2) for each root atom and its symbol, then one
    per free atom."""
    vals = []
    for _ in range(n_roots):
        q = random_rational(rng, 0, 2)
        if q == 0:
            q = Fraction(1, 2)
        vals += [complex(q), complex(q * q)]
    for _ in range(n_free):
        q = random_rational(rng)
        if q == 0:
            q = Fraction(1, 3)
        vals.append(complex(q))
    return vals


# points, relative tolerance and seed of the sampled zero test
_ZERO_SAMPLES, _ZERO_TOL, _ZERO_SEED = 200, 1e-10, 42


def equals_zero(e: Expr) -> str:
    """One rule: an empty term dict is Zero.  Any other expression is evaluated at
    _ZERO_SAMPLES seeded rational points (a root atom at r and its symbol at r^2;
    a point at a pole is skipped) and is Nonzero only at a point where the sum of
    its terms exceeds _ZERO_TOL * max(1, sum of their magnitudes), else
    ProbablyZero (Schwartz, J. ACM 27, 1980).  No verdict reads it yet: the
    generator, symbolic profile, Jacobi and audit verdicts take `verdict`."""
    if not e._terms:
        return ZeroStatus.ZERO
    atoms = sorted(atoms_of(e), key=lambda a: a.key)  # not set order
    roots = [a for a in atoms if isinstance(a, Root)]
    root_syms = [sym(r.of) for r in roots]
    free = [a for a in atoms if isinstance(a, (Sym, Jet, Func)) and a not in root_syms]
    # one output per term, so that the scale sums the terms' magnitudes
    terms = NumericPlan([Expr({m: q}) for m, q in e._terms.items()],
                        [x for pair in zip(roots, root_syms) for x in pair] + free)
    rng, done = random.Random(_ZERO_SEED), 0
    for _ in range(_ZERO_SAMPLES * 5):
        try:
            vals = terms(_sample_values(len(roots), len(free), rng))
        except PoleError:
            continue
        total, scale = 0j, 0.0
        for val in vals:
            total, scale = total + val, scale + abs(val)
        if abs(total) > _ZERO_TOL * max(1.0, scale):
            return ZeroStatus.NONZERO
        done += 1
        if done == _ZERO_SAMPLES:
            return ZeroStatus.PROBABLY_ZERO
    raise PoleError("all sampled points hit poles")


def verdict(e: Expr, constraints: Iterable[Expr] = ()) -> str:
    """The status of every exact verdict: Zero for an empty term dict or a rational
    multiple of a constraint, which vanishes where the constraint holds, else Nonzero."""
    zero = not e._terms or any(equal_up_to_factor(e, P) is not None for P in constraints)
    return ZeroStatus.ZERO if zero else ZeroStatus.NONZERO


def equal_up_to_factor(e1: Expr, e2: Expr):
    """Rational lambda with e1 = lambda * e2, or None."""
    if not e2._terms:
        return None if e1._terms else Fraction(1)
    q1 = e1._terms.get(e2._lead_mono())
    lam = q1 and Fraction(q1) / e2._lead_coeff()
    return lam if lam and (e1 - e2 * Expr.rational(lam)).is_zero() else None


# ---------------------------------------------------------------------------
# term collection
# ---------------------------------------------------------------------------

def collect_terms(e: Expr, family: Iterable[Expr]) -> dict[Expr, Expr]:
    """Split e = sum over classes class * cofactor.

    Each family member must be a single-monomial expression; the classifying
    atoms are the atoms appearing in any class.  Raises DomainError when the
    family does not partition the terms of e.
    """
    classes: dict[Monomial, Expr] = {}
    class_atoms: set[Atom] = set()
    for cl in family:
        if len(cl._terms) != 1:
            raise DomainError("collection classes must be single monomials")
        mono, q = next(iter(cl._terms.items()))
        if q != 1:
            raise DomainError("collection classes must have coefficient 1")
        if mono in classes:
            raise DomainError("duplicate collection class")
        classes[mono] = cl
        for atom, _ in mono:
            class_atoms.add(atom)
    parts: dict[Monomial, dict[Monomial, Coeff]] = {mono: {} for mono in classes}
    for m, q in e._terms.items():
        part = parts.get(tuple((a, k) for a, k in m if a in class_atoms))
        if part is None:
            raise DomainError(f"term {Expr({m: q})!r} not covered by the class family")
        # a canonical monomial is determined by its class and rest parts,
        # so no two terms land on the same cofactor monomial
        part[tuple((a, k) for a, k in m if a not in class_atoms)] = q
    return {classes[mono]: Expr(part) for mono, part in parts.items()}

