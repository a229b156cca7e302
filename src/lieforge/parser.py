"""Expression grammar: parser and printer.

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' '-'? integer)?
    base   := integer | ident | func '(' expr ')' | '(' expr ')' | 'I'

Jet coordinates are written ``v_x``, ``w_xx`` (multiset suffix of independent
letters) or with primes ``f'``, ``f''`` when the context has one independent.
Functions: sin cos tan exp sqrt.  Whitespace is insignificant.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .expr_core import (
    Atom, DomainError, Expr, ExpAtom, Func, I, IUnit, Jet, Recip, Root, Sym,
    Trig, _mono_key, _power, cos_e, exp_e, jet, func, sin_e, sqrt_e, sym, tan_e,
)

__all__ = ["ParseError", "UnknownIdentifierError", "parse_expr", "expr_text",
           "atom_text", "combo_text"]

_FUNCS = {"sin": sin_e, "cos": cos_e, "tan": tan_e, "exp": exp_e, "sqrt": sqrt_e}
MAX_TERM_PRODUCTS = 4000  # len(A) * len(B) for one `*`, or one product inside a `^`
MAX_POWER_BITS = 4096  # |n| * bits(p*q) for a coefficient p/q raised to n by one `^`


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class UnknownIdentifierError(ParseError):
    pass


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_Tok = namedtuple("_Tok", "kind val pos")


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(_Tok("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            name = text[i:j]
            suffix = None
            if j < n and text[j] == "_" and j + 1 < n and text[j + 1].isalpha():
                k = j + 1
                while k < n and text[k].isalpha():
                    k += 1
                suffix = text[j + 1:k]
                j = k
            primes = 0
            while j < n and text[j] == "'":
                primes += 1
                j += 1
            toks.append(_Tok("ident", (name, suffix, primes), i))
            i = j
            continue
        if ch in "+-*/^(),":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", None, n))
    return toks


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[_Tok], ctx):
        self.toks = toks
        self.k = 0
        self.ctx = ctx

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def take(self, kind=None) -> _Tok:
        t = self.toks[self.k]
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.kind!r}", t.pos)
        self.k += 1
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.kind!r}", t.pos)
        return e

    def expr(self) -> Expr:
        neg = self.peek().kind in ("+", "-") and self.take().kind == "-"
        e = -self.term() if neg else self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            try:
                e = self.times(e, rhs, op) if op.kind == "*" else e / rhs
            except (ZeroDivisionError, DomainError) as exc:
                raise ParseError(str(exc), self.toks[self.k - 1].pos) from exc
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek().kind == "^":
            op = self.take()
            neg = self.peek().kind == "-"
            if neg:
                self.take()
            t = self.take("num")
            n = -t.val if neg else t.val
            if len(e._terms) == 1:  # a one-term base raises its coefficient exactly
                q, = e._terms.values()
                if abs(q) != 1 and abs(n) * (abs(q.numerator) * q.denominator).bit_length() \
                        > MAX_POWER_BITS:
                    raise ParseError(f"'^' would form a coefficient over {MAX_POWER_BITS} bits",
                                     op.pos)
            try:  # a reciprocal is one term; else Expr.__pow__'s products, each in the budget
                e = e ** n if n < 0 else _power(e, n, lambda a, b: self.times(a, b, op))
            except (ZeroDivisionError, DomainError) as exc:
                raise ParseError(str(exc), t.pos) from exc
        return e

    def times(self, a: Expr, b: Expr, op: _Tok) -> Expr:
        if len(a._terms) * len(b._terms) > MAX_TERM_PRODUCTS:
            raise ParseError(f"{op.kind!r} would form over {MAX_TERM_PRODUCTS} term products",
                             op.pos)
        return a * b

    def base(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.take()
            return Expr.rational(Fraction(t.val))
        if t.kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if t.kind == "ident":
            name, suffix, primes = t.val
            if name in _FUNCS and suffix is None and primes == 0 \
                    and self.toks[self.k + 1].kind == "(":
                self.take()
                self.take("(")
                arg = self.expr()
                self.take(")")
                try:
                    return _FUNCS[name](arg)
                except DomainError as exc:
                    raise ParseError(str(exc), t.pos) from exc
            self.take()
            return self.resolve(name, suffix, primes, t.pos)
        raise ParseError(f"unexpected token {t.kind!r}", t.pos)

    def resolve(self, name, suffix, primes, pos) -> Expr:
        ctx = self.ctx
        if name == "I" and suffix is None and primes == 0:
            return I.as_expr()
        deriv: tuple[str, ...] = ()
        if suffix is not None and primes:
            raise ParseError("mixed underscore and prime derivative notation", pos)
        if primes:
            if len(ctx.independents) != 1:
                raise ParseError("prime notation needs a single independent", pos)
            deriv = (ctx.independents[0],) * primes
        elif suffix is not None:
            deriv = tuple(suffix)
        functions = dict(ctx.functions or ())
        if name in functions:
            try:
                return func(name, functions[name], deriv).as_expr()
            except DomainError as exc:
                raise ParseError(str(exc), pos) from exc
        if name in ctx.dependents:
            bad = set(deriv) - set(ctx.independents)
            if bad:
                raise ParseError(f"derivative by non-independent {sorted(bad)}", pos)
            return jet(name, deriv).as_expr()
        if deriv:
            raise UnknownIdentifierError(f"unknown jet base {name!r}", pos)
        if name in ctx.independents or name in ctx.constants:
            return sym(name).as_expr()
        raise UnknownIdentifierError(f"unknown identifier {name!r}", pos)


def parse_expr(text: str, context) -> Expr:
    """Parse `text` against a jet context (independents, dependents,
    constants, functions)."""
    return _Parser(_tokenize(text), context).parse()


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def atom_text(atom: Atom) -> str:
    """The atom's text, rendered on its first print and kept on the atom."""
    if atom._text is None:
        atom._text = _render(atom)
    return atom._text


def _render(atom: Atom) -> str:
    if isinstance(atom, Sym):
        return atom.name
    if isinstance(atom, Root):
        return f"sqrt({atom.of})"
    if isinstance(atom, Jet):
        if not atom.idx:
            return atom.dep
        if all(i == "s" for i in atom.idx):
            return atom.dep + "'" * len(atom.idx)
        return atom.dep + "_" + "".join(atom.idx)
    if isinstance(atom, Func):
        return atom.name + ("_" + "".join(atom.idx) if atom.idx else "")
    if isinstance(atom, IUnit):
        return "I"
    if isinstance(atom, Trig):
        return f"{atom.fn}({expr_text(atom.arg)})"
    if isinstance(atom, ExpAtom):
        return f"exp({expr_text(atom.arg)})"
    if isinstance(atom, Recip):
        return f"({expr_text(atom.arg)})^-1"
    raise TypeError(f"unknown atom {atom!r}")


def _factor_text(atom: Atom, k: int) -> str:
    base = atom_text(atom)
    if isinstance(atom, Recip):  # (arg)^-1 with k for its 1
        return base[:-1] + str(k)
    return base if k == 1 else f"{base}^{k}"


def expr_text(e: Expr) -> str:
    """The terms of `e` in `_mono_key` order, each coefficient printed as it
    is stored (an int, or a non-integral Fraction, through `str`) and left
    out at magnitude one before factors; parts joined by `_sum_text`."""
    if not e._terms:
        return "0"
    parts = []
    for m in sorted(e._terms, key=_mono_key):
        q, factors = e._terms[m], "*".join([_factor_text(a, k) for a, k in m])
        if not factors:
            parts.append(str(q))
        else:
            parts.append(factors if q == 1 else "-" + factors if q == -1 else f"{q}*{factors}")
    return _sum_text(parts)


def combo_text(pairs) -> str:
    """Sum of named terms from (coefficient, name) pairs: zeros skipped, a
    unit coefficient left out, a coefficient whose text holds a space in
    parentheses; parts joined by `_sum_text`."""
    parts = []
    for q, name in pairs:
        if q.is_zero():
            continue
        txt = expr_text(q)
        if txt in ("1", "-1"):
            parts.append(name if txt == "1" else "-" + name)
        else:
            parts.append(f"({txt})*{name}" if " " in txt else f"{txt}*{name}")
    return _sum_text(parts) if parts else "0"


def _sum_text(parts: list[str]) -> str:
    """Signed parts as one sum: a later part's leading '-' is its sign."""
    return parts[0] + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in parts[1:])
