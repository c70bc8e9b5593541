"""Exact arithmetic in a truncated perfected bivariate Laurent-series ring.

Elements are finite F_p-linear combinations of monomials u^a * t^b where the
exponents a, b are rationals whose denominators are powers of p (bounded by a
configurable cap p^D), together with an optional precision cap: the series is
known modulo terms of valuation >= prec.

The valuation is monomial-graded: val(u) = p/(p-1), val(t) = 1, and
val(u^a t^b) = a*p/(p-1) + b.  All valuations are exact `Fraction`s; the
precision "+infinity" (an exact series) is represented by ``None``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CapExceeded,
    NonDominantLeading,
    ParseError,
    PrecisionRequired,
    ZeroDivisor,
)

DEFAULT_DENOM_CAP = 6


def min_prec(a, b):
    """Minimum of two precision caps, where None means +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def add_prec(v, prec):
    """v + prec with None treated as +infinity."""
    if prec is None:
        return None
    return v + prec


@dataclass(frozen=True)
class PExp:
    """An exponent m / p^kden in Z[1/p].

    Normalized so that kden == 0 or p does not divide num.  The value
    depends on p, which is supplied by the enclosing series.
    """

    num: int
    kden: int

    @staticmethod
    def from_fraction(q, p, cap):
        q = Fraction(q)
        den = q.denominator
        k = 0
        while den % p == 0:
            den //= p
            k += 1
        if den != 1:
            raise ValueError(f"denominator {q.denominator} is not a power of {p}")
        if k > cap:
            raise CapExceeded(f"exponent {q} needs denominator p^{k} > p^{cap}")
        return PExp(q.numerator, k)

    def fraction(self, p):
        return Fraction(self.num, p**self.kden)

    def is_zero(self):
        return self.num == 0


PEXP_ZERO = PExp(0, 0)


@dataclass(frozen=True)
class Monomial:
    """A monomial u^eu * t^et."""

    eu: PExp
    et: PExp


MONO_ONE = Monomial(PEXP_ZERO, PEXP_ZERO)


@lru_cache(maxsize=None)
def mono_val(m: Monomial, p: int) -> Fraction:
    """Valuation of a monomial: eu * p/(p-1) + et."""
    return m.eu.fraction(p) * Fraction(p, p - 1) + m.et.fraction(p)


@lru_cache(maxsize=None)
def _mono_key(m: Monomial, p: int):
    return (mono_val(m, p), m.eu.fraction(p), m.et.fraction(p))


def _mono_mul(a: Monomial, b: Monomial, p: int, cap: int) -> Monomial:
    if b is MONO_ONE:
        return a
    if a is MONO_ONE:
        return b
    eu = PExp.from_fraction(a.eu.fraction(p) + b.eu.fraction(p), p, cap)
    et = PExp.from_fraction(a.et.fraction(p) + b.et.fraction(p), p, cap)
    return Monomial(eu, et)


@dataclass(frozen=True)
class PerfSeries:
    """A sparse series over F_p, known modulo terms of valuation >= prec.

    ``terms`` is kept sorted by ascending valuation, ties broken by the
    (eu, et) lexicographic order; this is the canonical form used for
    equality, hashing and formatting.
    """

    p: int
    cap: int
    prec: Fraction | None
    terms: tuple[tuple[Monomial, int], ...]

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def val(self) -> Fraction | None:
        """Exact minimal term valuation, or None when no term is known
        (the series is then 0 up to O(prec))."""
        if not self.terms:
            return None
        return mono_val(self.terms[0][0], self.p)

    def val_floor(self) -> Fraction | None:
        """A certified lower bound for the valuation: the exact valuation
        for a nonzero series, prec for a series with no known terms, and
        None (= +infinity) for the exact zero."""
        if self.terms:
            return mono_val(self.terms[0][0], self.p)
        return self.prec

    def leading(self):
        if not self.terms:
            raise ZeroDivisor("series has no known terms")
        return self.terms[0]

    def coeff(self, mono: Monomial) -> int:
        for m, c in self.terms:
            if m == mono:
                return c
        return 0

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.p != other.p or self.cap != other.cap:
            raise ValueError("series have different p or denominator cap")

    def __add__(self, other):
        self._check_compatible(other)
        prec = min_prec(self.prec, other.prec)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = (acc.get(m, 0) + c) % self.p
        return make_series(self.p, self.cap, acc, prec)

    def __neg__(self):
        return self.scale(self.p - 1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        """Multiply by a scalar in F_p."""
        c %= self.p
        if c == 0:
            return PerfSeries(self.p, self.cap, self.prec, ())
        if c == 1:
            return self
        return PerfSeries(
            self.p, self.cap, self.prec, tuple((m, (a * c) % self.p) for m, a in self.terms)
        )

    def __mul__(self, other):
        self._check_compatible(other)
        prec = min_prec(
            add_prec_of(self, other.prec),
            add_prec_of(other, self.prec),
        )
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2, self.p, self.cap)
                acc[m] = (acc.get(m, 0) + c1 * c2) % self.p
        return make_series(self.p, self.cap, acc, prec)

    def mono_shift(self, mono: Monomial, coeff: int = 1):
        """Multiply by a single monomial coeff * mono (coeff a unit)."""
        coeff %= self.p
        mv = mono_val(mono, self.p)
        prec = add_prec(mv, self.prec)
        acc = {}
        for m, c in self.terms:
            acc[_mono_mul(m, mono, self.p, self.cap)] = (c * coeff) % self.p
        return make_series(self.p, self.cap, acc, prec)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers go through invert()")
        result = one(self.p, self.cap)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def truncate(self, prec: Fraction | None):
        """Forget everything of valuation >= prec."""
        newprec = min_prec(self.prec, prec)
        if newprec == self.prec:
            return self
        return make_series(self.p, self.cap, dict(self.terms), newprec)

    # -- presentation -------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"PerfSeries(p={self.p}, {format_series(self)!r})"


def add_prec_of(x: PerfSeries, prec):
    """val(x) + prec, the contribution of x's value to a product's cap."""
    if prec is None:
        return None
    v = x.val_floor()
    if v is None:
        return None
    return v + prec


def make_series(p, cap, termdict, prec=None) -> PerfSeries:
    """Normalize a {Monomial: coeff} mapping into canonical form."""
    if prec is not None:
        prec = Fraction(prec)
    items = []
    for m, c in termdict.items():
        c %= p
        if c == 0:
            continue
        if m.eu.kden > cap or m.et.kden > cap:
            raise CapExceeded(f"monomial needs denominator beyond p^{cap}")
        if prec is not None and mono_val(m, p) >= prec:
            continue
        items.append((m, c))
    items.sort(key=lambda mc: _mono_key(mc[0], p))
    return PerfSeries(p, cap, prec, tuple(items))


# -- constructors -----------------------------------------------------


def zero(p, cap=DEFAULT_DENOM_CAP, prec=None):
    return make_series(p, cap, {}, prec)


def one(p, cap=DEFAULT_DENOM_CAP):
    return make_series(p, cap, {MONO_ONE: 1})


def constant(c, p, cap=DEFAULT_DENOM_CAP):
    return make_series(p, cap, {MONO_ONE: c})


def monomial(p, cap, coeff, eu, et, prec=None):
    """coeff * u^eu * t^et with rational exponents."""
    m = Monomial(PExp.from_fraction(eu, p, cap), PExp.from_fraction(et, p, cap))
    return make_series(p, cap, {m: coeff}, prec)


def u_var(p, cap=DEFAULT_DENOM_CAP):
    return monomial(p, cap, 1, 1, 0)


def t_var(p, cap=DEFAULT_DENOM_CAP):
    return monomial(p, cap, 1, 0, 1)


# -- Frobenius --------------------------------------------------------


def frobenius(x: PerfSeries) -> PerfSeries:
    """Scale all exponents by p; coefficients are fixed since kappa = F_p."""
    p = x.p
    acc = {}
    for m, c in x.terms:
        eu = PExp.from_fraction(m.eu.fraction(p) * p, p, x.cap)
        et = PExp.from_fraction(m.et.fraction(p) * p, p, x.cap)
        acc[Monomial(eu, et)] = c
    prec = None if x.prec is None else x.prec * p
    return make_series(p, x.cap, acc, prec)


def frobenius_inv(x: PerfSeries) -> PerfSeries:
    """Scale all exponents by 1/p.  Raises CapExceeded at the denominator cap."""
    p = x.p
    acc = {}
    for m, c in x.terms:
        eu = PExp.from_fraction(Fraction(m.eu.fraction(p), p), p, x.cap)
        et = PExp.from_fraction(Fraction(m.et.fraction(p), p), p, x.cap)
        acc[Monomial(eu, et)] = c
    prec = None if x.prec is None else Fraction(x.prec, p)
    return make_series(p, x.cap, acc, prec)


def frobenius_pow(x: PerfSeries, n: int) -> PerfSeries:
    for _ in range(n):
        x = frobenius(x)
    for _ in range(-n):
        x = frobenius_inv(x)
    return x


# -- inversion --------------------------------------------------------


def invert(x: PerfSeries, prec: Fraction | None = None) -> PerfSeries:
    """Invert a series with a strictly dominant leading term.

    The result y satisfies x*y = 1 + O(...) consistently with the
    propagated caps.  When the input has a nontrivial tail a finite
    target precision is required (either the input's own cap or the
    ``prec`` argument); inverting an exact unit with an infinite tail
    otherwise raises PrecisionRequired.
    """
    if not x.terms:
        raise ZeroDivisor("cannot invert a series with no known terms")
    lead_m, lead_c = x.terms[0]
    lead_v = mono_val(lead_m, x.p)
    if len(x.terms) > 1 and mono_val(x.terms[1][0], x.p) == lead_v:
        raise NonDominantLeading(
            f"two monomials share the minimal valuation {lead_v}"
        )
    p = x.p
    inv_m = Monomial(
        PExp.from_fraction(-lead_m.eu.fraction(p), p, x.cap),
        PExp.from_fraction(-lead_m.et.fraction(p), p, x.cap),
    )
    inv_c = pow(lead_c, -1, p)
    # determined precision of the inverse: prec(x) - 2*val(x)
    determined = None if x.prec is None else x.prec - 2 * lead_v
    target = min_prec(determined, None if prec is None else Fraction(prec))
    tail = make_series(p, x.cap, dict(x.terms[1:]), x.prec)
    if tail.is_zero() and tail.prec is None:
        return make_series(p, x.cap, {inv_m: inv_c}, target)
    if target is None:
        raise PrecisionRequired("inverting a unit with a tail needs a finite cap")
    # x = lead * (1 + y) with val(y) > 0; 1/x = (1/lead) * sum (-y)^j
    y = tail.mono_shift(inv_m, inv_c).truncate(target + lead_v)
    y_v = y.val_floor()
    acc = one(p, x.cap).truncate(target + lead_v)
    if y_v is not None:
        power = one(p, x.cap).truncate(target + lead_v)
        neg_y = -y
        j_v = Fraction(0)
        while j_v < target + lead_v:
            power = (power * neg_y).truncate(target + lead_v)
            if power.is_zero():
                break
            acc = acc + power
            j_v += y_v
    return acc.mono_shift(inv_m, inv_c).truncate(target)


# -- text form --------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[ut*+^{}()/O-])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", pos)
        return tok

    def rational(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected digits, found {tok!r}", pos)
        num = int(tok)
        den = 1
        if self.peek() == "/":
            self.next()
            tok, pos = self.next()
            if not tok.isdigit():
                raise ParseError(f"expected digits, found {tok!r}", pos)
            den = int(tok)
            if den == 0:
                raise ParseError("zero denominator", pos)
        return Fraction(sign * num, den)

    def atom(self):
        tok, pos = self.next()
        if tok not in ("u", "t"):
            raise ParseError(f"expected 'u' or 't', found {tok!r}", pos)
        exp = Fraction(1)
        if self.peek() == "^":
            self.next()
            if self.peek() == "{":
                self.next()
                exp = self.rational()
                self.expect("}")
            else:
                exp = self.rational()
        return tok, exp

    def term(self, p, cap):
        """Returns (coeff, eu, et) for one term."""
        coeff = 1
        eu = Fraction(0)
        et = Fraction(0)
        saw_anything = False
        if self.peek() is not None and self.peek().isdigit():
            coeff = int(self.next()[0])
            saw_anything = True
            if self.peek() == "*":
                self.next()
            elif self.peek() in ("u", "t"):
                pos = self.tokens[self.i][1]
                raise ParseError("missing '*' between coefficient and atom", pos)
            else:
                return coeff, eu, et
        while self.peek() in ("u", "t"):
            var, exp = self.atom()
            saw_anything = True
            if var == "u":
                eu += exp
            else:
                et += exp
            if self.peek() == "*":
                self.next()
            else:
                break
        if not saw_anything:
            tok = self.peek()
            raise ParseError(f"expected a term, found {tok!r}")
        return coeff, eu, et


def parse_series(text: str, p: int, cap: int = DEFAULT_DENOM_CAP) -> PerfSeries:
    """Parse the series grammar:

    series := term ('+' term)* ['+' 'O(' rational ')'] | 'O(' rational ')'
    term   := coeff ['*' atom {'*' atom}] | atom {'*' atom}
    atom   := ('u'|'t') ['^' '{' rational '}']
    """
    parser = _Parser(text)
    acc = {}
    prec = None
    if parser.peek() is None:
        raise ParseError("empty series literal")
    while True:
        if parser.peek() == "O":
            parser.next()
            parser.expect("(")
            prec = parser.rational()
            parser.expect(")")
            if parser.peek() is not None:
                tok, pos = parser.next()
                raise ParseError(f"trailing input after O(...): {tok!r}", pos)
            break
        coeff, eu, et = parser.term(p, cap)
        m = Monomial(PExp.from_fraction(eu, p, cap), PExp.from_fraction(et, p, cap))
        acc[m] = (acc.get(m, 0) + coeff) % p
        if parser.peek() is None:
            break
        parser.expect("+")
    return make_series(p, cap, acc, prec)


def _format_exp(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _format_atom(name, q: Fraction):
    if q == 1:
        return name
    return f"{name}^{{{_format_exp(q)}}}"


def format_series(x: PerfSeries) -> str:
    """Canonical text form: terms in ascending valuation order, then O(prec)."""
    parts = []
    for m, c in x.terms:
        atoms = []
        if not m.eu.is_zero():
            atoms.append(_format_atom("u", m.eu.fraction(x.p)))
        if not m.et.is_zero():
            atoms.append(_format_atom("t", m.et.fraction(x.p)))
        if not atoms:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(atoms))
        else:
            parts.append(f"{c}*" + "*".join(atoms))
    if x.prec is not None:
        parts.append(f"O({_format_exp(x.prec)})")
    if not parts:
        return "0"
    return " + ".join(parts)


# -- comparison helpers ----------------------------------------------


def eq_to_prec(x: PerfSeries, y: PerfSeries, floor: Fraction | None = None) -> bool:
    """True when x - y vanishes to the joint precision (optionally only
    requiring agreement below ``floor``)."""
    d = x - y
    if floor is not None:
        d = d.truncate(floor)
    return d.is_zero()
