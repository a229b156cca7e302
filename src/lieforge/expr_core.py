"""Exact symbolic expression kernel.

Expressions are finite sums  sum_m  q_m * m  where every q_m is a nonzero
``int`` or non-integral ``Fraction`` and every monomial m is a product of
atom powers; `terms()` and `as_rational()` hand out ``Fraction``s.  Atoms are
base symbols, jet coordinates (a dependent together with a multiset of
derivative indices), unknown functions with their own derivative multisets,
the imaginary unit, and opaque transcendental factors sin/cos/tan/exp of
polynomial arguments, plus reciprocals of whole expressions.

Canonicalisation keeps the representation strong enough to decide zero for
the class of expressions the toolkit manipulates:

* i^2 -> -1, so no monomial carries the imaginary unit above power one;
* exp factors inside one monomial are merged, exp(0) disappears;
* products of sin/cos are rewritten to Fourier form (product-to-sum) until
  each monomial holds at most one sin or cos factor;
* square-root symbols r = sqrt(c) rewrite as r^2 -> c;
* trig/exp arguments are sign-normalised (sin(-a) = -sin(a), cos(-a) = cos(a)).

tan is kept opaque with derivative 1 + tan^2 and is never rewritten into
sin/cos.  Reciprocal atoms make closed-form solution candidates expressible;
expressions containing them are outside the decidable class and fall back to
randomised numeric zero testing.  One product kernel multiplies term dicts
straight into an accumulator; a monomial product with a plain side (symbols,
jets and unknown functions alone) is a merge of exponents, so it skips every
rewriting pass.  The rewriting passes run only for the atom classes present,
and merge exp arguments and build product-to-sum arguments on term dicts.

Partial and total derivatives share one derivation loop: a single sweep over
the terms, fixed by its values on symbols, jets and functions, with one chain
rule through trig/exp/reciprocal arguments.  Substitution rebuilds only the
terms holding a changed atom and keeps the term order of a factor-wise product.

Numeric evaluation compiles expressions once into a `NumericPlan` over a
positional list of input atoms: one slot per derived atom (I, sin/cos/tan, exp,
reciprocal), shared by all outputs and nested arguments and filled in dependency
order, and coefficients converted to complex once.  Sums keep term and factor
order, so a value does not depend on which plan computed it.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, KeysView, Mapping

__all__ = [
    "Atom", "Sym", "Root", "Jet", "Func", "IUnit", "Trig", "ExpAtom", "Recip",
    "Expr", "DomainError", "PoleError", "UnboundAtomError", "CyclicBindingError",
    "ZeroStatus", "sym", "root", "jet", "func", "I", "sin_e", "cos_e", "tan_e",
    "exp_e", "recip_e", "sqrt_e", "derive", "substitute", "NumericPlan",
    "eval_numeric", "equals_zero", "to_canonical", "collect_terms",
    "coefficient_vector", "atoms_of", "random_rational",
]


class DomainError(ValueError):
    """Construction or operation outside the supported expression class."""


class PoleError(ArithmeticError):
    """Numeric evaluation hit a pole (tan at odd pi/2, vanishing reciprocal)."""


class UnboundAtomError(KeyError):
    """Numeric evaluation found an atom with no value bound."""


class CyclicBindingError(ValueError):
    """Substitution bindings contain a cycle through distinct atoms."""


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

_INTERN: dict[tuple, "Atom"] = {}


class Atom:
    """An atom is made once per structural key and interned in `_INTERN`, so
    atoms compare and hash by identity; `key` orders them."""

    __slots__ = ("key",)

    def __new__(cls, *args):
        raise TypeError("use the atom constructor helpers")

    @classmethod
    def _make(cls, key: tuple, init: Callable[["Atom"], None]) -> "Atom":
        got = _INTERN.get(key)
        if got is None:
            got = object.__new__(cls)
            got.key = key
            init(got)
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

    @property
    def order(self) -> int:
        return len(self.idx)


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
    return Sym._make((0, name), lambda a: setattr(a, "name", name))


def root(of: str) -> Root:
    return Root._make((1, of), lambda a: setattr(a, "of", of))


def jet(dep: str, idx: Iterable[str] = ()) -> Jet:
    tidx = tuple(sorted(idx))

    def init(a):
        a.dep = dep
        a.idx = tidx

    return Jet._make((2, dep, tidx), init)


def func(name: str, args: Iterable[str], idx: Iterable[str] = ()) -> Func:
    targs = tuple(args)
    tidx = tuple(sorted(idx))
    bad = set(tidx) - set(targs)
    if bad:
        raise DomainError(f"derivative of {name}{targs} by non-argument {sorted(bad)}")

    def init(a):
        a.name = name
        a.args = targs
        a.idx = tidx

    return Func._make((3, name, targs, tidx), init)


I: IUnit = IUnit._make((4,), lambda a: None)
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
    atom = Trig._make((6, fn, arg._key()), lambda a: (setattr(a, "fn", fn),
                                                      setattr(a, "arg", arg)))
    return flip, atom


def _exp_atom(arg: "Expr") -> Atom | None:
    if not arg._terms:
        return None
    return ExpAtom._make((5, arg._key()), lambda a: setattr(a, "arg", arg))


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
    atom = Recip._make((7, scaled._key()), lambda a: setattr(a, "arg", scaled))
    return Expr._single(atom, 1, q)


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
    out = Expr.rational(Fraction(rn, rd))
    for atom, k in out_atoms:
        out = out * Expr._single(atom, k, 1)
    return out


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


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
        _accumulate(out, [(atom, k)], q)
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
        other = _coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        return Expr(_add_into(dict(self._terms), other._terms.items()))

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
        out = Expr.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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
    place, term by term in the order of A, then of B.  Canonicalisation never
    rewrites a plain atom, so a canonical monomial times a plain one is
    canonical once the shared exponents are added and zeros dropped: such a
    product is that merge and skips every rewriting pass."""
    bs = [(m2, q2, _is_plain(m2)) for m2, q2 in B.items()]
    for m1, q1 in A.items():
        p1 = _is_plain(m1)
        for m2, q2, p2 in bs:
            if p1 or p2:
                _put(out, _merge(m1, m2), q1 * q2)
            else:
                _accumulate(out, [*m1, *m2], q1 * q2)
    return out


def _merge(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two key-sorted monomials in one pass: shared exponents
    added, zeros dropped, key order kept."""
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    merged, i, n1 = [], 0, len(m1)
    for a, k in m2:
        key = a.key
        while i < n1 and m1[i][0].key < key:
            merged.append(m1[i])
            i += 1
        if i < n1 and m1[i][0] is a:
            k += m1[i][1]
            i += 1
        if k:
            merged.append((a, k))
    return tuple(merged) + m1[i:]


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

def _accumulate(out: dict[Monomial, Coeff], factors: list[tuple[Atom, int]],
                coeff: Coeff) -> None:
    """Normalise a factor list and add the resulting terms into `out`; an
    integral sum is stored as an `int`.  Products with a plain side do not
    come here: `_mul_into` merges them."""
    stack = [(factors, coeff)]
    while stack:
        fl, q = stack.pop()
        if not q:
            continue
        powers: dict[Atom, int] = {}
        for atom, k in fl:
            powers[atom] = powers.get(atom, 0) + k
        # the passes below add no atom of a class a later pass rewrites
        kinds = {a.__class__ for a in powers}
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
        for atom in [a for a in powers if a.__class__ is Root] if Root in kinds else ():
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
        if ExpAtom in kinds:
            exps = [(a, k) for a, k in powers.items() if a.__class__ is ExpAtom]
            if len(exps) > 1 or exps[0][1] != 1:
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
        if Recip in kinds and any(k < 0 for a, k in powers.items()
                                  if a.__class__ is Recip):
            raise DomainError("negative reciprocal power")

        # trig bookkeeping
        trig_sc: list[Trig] = []
        for atom in [a for a in powers if a.__class__ is Trig] if Trig in kinds else ():
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
        _put(out, mono, q)


_HALF = Fraction(1, 2)


def _product_to_sum(a1: Trig, a2: Trig) -> list[tuple[str, Expr, Fraction]]:
    """sin/cos product rewriting into (fn, arg, weight) triples.  Arguments
    are summed on term dicts, in the term order of A + B and of A - B (of
    B - A for cos * sin)."""
    A, B = a1.arg, a2.arg
    minuend, subtrahend = (B, A) if (a1.fn, a2.fn) == ("cos", "sin") else (A, B)
    plus, minus = dict(A._terms), dict(minuend._terms)
    for m, q in B._terms.items():
        _put(plus, m, q)
    for m, q in subtrahend._terms.items():
        _put(minus, m, -q)
    plus, minus = Expr(plus), Expr(minus)
    if a1.fn == "sin" and a2.fn == "sin":
        return [("cos", minus, _HALF), ("cos", plus, -_HALF)]
    if a1.fn == "cos" and a2.fn == "cos":
        return [("cos", minus, _HALF), ("cos", plus, _HALF)]
    return [("sin", plus, _HALF), ("sin", minus, _HALF)]


def to_canonical(e: Expr) -> Expr:
    """Re-normalise an expression (idempotent on canonical input)."""
    out: dict[Monomial, Coeff] = {}
    for m, q in e._terms.items():
        _accumulate(out, list(m), q)
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
    then their factors, then the terms of each factor's derivative."""
    if not isinstance(a, (Sym, Jet, Func, Root)):
        raise DomainError("derivative only with respect to symbols, jets, or functions")
    return _derivation(e, lambda atom: Expr.one() if atom is a else None)


def _derivation(e: Expr, delta: Callable[[Atom], Expr | None]) -> Expr:
    """The derivation D with D(atom) = delta(atom) (None for zero) on every
    atom but trig, exp and reciprocal ones, which take the chain rule through
    their arguments: one sweep adding q*k*atom^(k-1)*D(atom)*rest for every
    factor atom^k of every term q*rest*atom^k."""
    dvals: dict[Atom, Expr | None] = {}
    out: dict[Monomial, Coeff] = {}
    for m, q in e._terms.items():
        for i, (atom, k) in enumerate(m):
            d = dvals.get(atom, dvals)
            if d is dvals:  # not looked up yet
                d = dvals[atom] = _datom(atom, delta)
            if d is None:
                continue
            rest = m[:i] + ((atom, k - 1),) + m[i + 1:] if k != 1 else m[:i] + m[i + 1:]
            _mul_into(out, {rest: q * k}, d._terms)
    return Expr(out)


def _datom(atom: Atom, delta: Callable[[Atom], Expr | None]) -> Expr | None:
    if not isinstance(atom, (Trig, ExpAtom, Recip)):
        return delta(atom)
    darg = _derivation(atom.arg, delta)
    if not darg._terms:
        return None
    if isinstance(atom, ExpAtom):
        return atom.as_expr() * darg
    if isinstance(atom, Recip):
        r = atom.as_expr()
        return -darg * r * r
    if atom.fn == "sin":
        return cos_e(atom.arg) * darg
    if atom.fn == "cos":
        return -sin_e(atom.arg) * darg
    t = tan_e(atom.arg)
    return (Expr.one() + t * t) * darg


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def substitute(e: Expr, bindings: Mapping[Atom, Expr]) -> Expr:
    """Simultaneous substitution of atoms by expressions, then renormalise.
    Only terms with a changed atom are rebuilt: the product of their changed
    and non-plain factors, merged with their unchanged Sym/Jet/Func factors,
    which map monomials one-to-one in order, so terms keep the factor-wise
    order."""
    _check_acyclic(bindings)
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

    powers: dict[tuple[Atom, int], Expr] = {}
    out: dict[Monomial, Coeff] = {}
    for m, q in e._terms.items():
        vals = [atom_value(atom) for atom, _ in m]
        if all(v is None for v in vals):
            _add_into(out, ((m, q),))
            continue
        term = Expr.rational(q)
        kept = []
        for (atom, k), val in zip(m, vals):
            if val is None:
                if atom.__class__ in _PLAIN:
                    kept.append((atom, k))
                    continue
                val = atom.as_expr()
            if k != 1:
                got = powers.get((atom, k))
                if got is None:
                    got = powers[(atom, k)] = val ** k
                val = got
            term = term * val
        _mul_into(out, term._terms, {tuple(kept): 1})
    return Expr(out)


def _check_acyclic(bindings: Mapping[Atom, Expr]) -> None:
    keys = set(bindings)
    if len(keys) < 2:
        return
    graph = {}
    for k, v in bindings.items():
        graph[k] = (atoms_of(v) & keys) - {k}
    seen: dict[Atom, int] = {}

    def visit(n):
        state = seen.get(n, 0)
        if state == 1:
            raise CyclicBindingError("cyclic binding set")
        if state == 2:
            return
        seen[n] = 1
        for m in graph.get(n, ()):
            visit(m)
        seen[n] = 2

    for k in keys:
        visit(k)


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


def _eval_sum(terms: list, v: list[complex]) -> complex:
    total = 0j
    for q, factors in terms:
        val = q
        for i, k in factors:
            val *= v[i] ** k
        total += val
    return total


class NumericPlan:
    """`NumericPlan(exprs, inputs)(values)`: one complex per expression, with
    `values` in the order of `inputs`.  Compiling raises UnboundAtomError,
    calling raises PoleError."""

    def __init__(self, exprs: Iterable[Expr], inputs: Iterable[Atom]):
        inputs = list(inputs)
        self._slot = {a: i for i, a in enumerate(inputs)}
        self._n_inputs = len(inputs)
        self._steps: list[tuple[Callable, list]] = []
        self._outputs = [self._compile(e) for e in exprs]

    def _compile(self, e: Expr) -> list:
        return [(complex(q), [(self._resolve(a), k) for a, k in m])
                for m, q in e._terms.items()]

    def _resolve(self, atom: Atom) -> int:
        got = self._slot.get(atom)
        if got is not None:
            return got
        if isinstance(atom, IUnit):
            # the one-term sum 1j, passed through unchanged
            step = (complex, [(1j, [])])
        elif isinstance(atom, Trig):
            fn = {"sin": cmath.sin, "cos": cmath.cos, "tan": _tan}[atom.fn]
            step = (fn, self._compile(atom.arg))
        elif isinstance(atom, ExpAtom):
            step = (cmath.exp, self._compile(atom.arg))
        elif isinstance(atom, Recip):
            step = (_recip, self._compile(atom.arg))
        else:
            raise UnboundAtomError(f"unbound atom {atom!r}")
        self._steps.append(step)
        got = self._slot[atom] = self._n_inputs + len(self._steps) - 1
        return got

    def __call__(self, values: Iterable) -> list[complex]:
        v = [complex(x) for x in values]
        for fn, terms in self._steps:
            v.append(fn(_eval_sum(terms, v)))
        return [_eval_sum(terms, v) for terms in self._outputs]


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


def _is_decidable(e: Expr) -> bool:
    return not any(isinstance(a, Recip) for a in atoms_of(e, recurse=False))


# points, relative tolerance and seed of the sampled zero test
_ZERO_SAMPLES, _ZERO_TOL, _ZERO_SEED = 200, 1e-10, 42


def equals_zero(e: Expr) -> str:
    """Decide zero: canonical-empty -> Zero; decidable class -> Nonzero;
    otherwise randomised evaluation at rational points -> ProbablyZero/Nonzero."""
    if not e._terms:
        return ZeroStatus.ZERO
    if _is_decidable(e):
        return ZeroStatus.NONZERO
    atoms = sorted(atoms_of(e), key=lambda a: a.key)  # not set order
    roots = [a for a in atoms if isinstance(a, Root)]
    root_syms = [sym(r.of) for r in roots]
    free = [a for a in atoms if isinstance(a, (Sym, Jet, Func)) and a not in root_syms]
    # one output per term, so that the scale sums the terms' magnitudes
    terms = NumericPlan([Expr({m: q}) for m, q in e._terms.items()],
                        [x for pair in zip(roots, root_syms) for x in pair] + free)
    rng = random.Random(_ZERO_SEED)
    done = 0
    attempts = 0
    while done < _ZERO_SAMPLES:
        attempts += 1
        if attempts > _ZERO_SAMPLES * 5:
            raise PoleError("all sampled points hit poles")
        values = _sample_values(len(roots), len(free), rng)
        try:
            scale = 0.0
            total = 0j
            for val in terms(values):
                total += val
                scale += abs(val)
            if abs(total) > _ZERO_TOL * max(1.0, scale):
                return ZeroStatus.NONZERO
            done += 1
        except PoleError:
            continue
    return ZeroStatus.PROBABLY_ZERO


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


def coefficient_vector(parts: Iterable[tuple[object, Expr]]) -> dict[tuple, Coeff]:
    """Sparse rational vector of keyed expressions over the monomial basis:
    {(key, monomial key): coefficient} for every term of every part.  Keys
    sort deterministically, so these vectors feed `linalg` directly."""
    return {(key, _mono_key(m)): q for key, e in parts for m, q in e._terms.items()}
