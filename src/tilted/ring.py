"""Exact arithmetic in a truncated perfected bivariate Laurent-series ring.

Elements are finite F_p-linear combinations of monomials u^a * t^b where the
exponents a, b are rationals whose denominators are powers of p (bounded by a
configurable cap p^D), together with an optional precision cap: the series is
known modulo terms of valuation >= prec.

The valuation is monomial-graded: val(u) = p/(p-1), val(t) = 1, and
val(u^a t^b) = a*p/(p-1) + b.  Valuations are exact `Fraction`s; the
precision "+infinity" (an exact series) is represented by ``None``.

Every exponent lies in p^-D Z, so u^(A/p^D) * t^(B/p^D) has int units
A and B, and its valuation is k / (p^D*(p-1)) for the int key
k = A*p + B*(p-1).  A monomial is stored as the int pair (k, A), which
orders monomials by valuation, ties broken by the u and then the t
exponent, so a sorted list of terms needs no sort key; B comes back as
(k - A*p) / (p-1).  A monomial product is integer addition, Frobenius
multiplies both ints by p, and its inverse is exact when p divides A and
B, that is A and k.

A precision cap is stored in the same integer lattice, as its key bound
K = ceil(prec*(p-1)*p^D): the cap drops exactly the monomials of key
k >= K, because every key is an integer.  So every cap rule is int
arithmetic: a product is known below min(key0(x) + K_y, key0(y) + K_x),
with key0 the leading key (K itself for a series with no terms), a
monomial shift adds the monomial's key, Frobenius multiplies K by p and
its inverse takes ceil(K/p).  A cap given off the lattice, such as
O(1/7) at p = 3, is sharpened to K/((p-1)*p^D) = 209/1458, which cuts
the same terms.  Fractions appear only at the edges: valuations, the
``prec`` of a series, ``prec=`` arguments, and the text form.

Every product goes through one kernel, `dot`, which forms a sum of
products x_1*y_1 + ... + x_n*y_n in one dict and normalizes it once,
under the least of the products' bounds.  Its terms and cap are those of
the chained ``*`` and ``+``: each product keeps every key below its own
bound, so below the least one, and coefficients add mod p either way.
It reads that least bound before it forms any product, and a term pair
whose key reaches it is never formed.  A product x*y is the one-pair
`dot`.  An operand with no terms, the exact zero or a zero known modulo
O(q), forms no term pair, but its cap still enters the least bound:
0 + O(q) times y is known below key0(y) + K.  Likewise a sum with a side
that has no terms is the other side cut at that side's cap.

Frobenius, its inverse and a monomial shift keep the order of the
terms and keep them distinct, so they build the sorted terms directly,
with no dict and no sort.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import (
    CapExceeded,
    NonDominantLeading,
    ParseError,
    PrecisionRequired,
    TiltedError,
    ZeroDivisor,
)

DEFAULT_DENOM_CAP = 6
# exponents are ints scaled by p^cap, so the cap bounds their size
MAX_DENOM_CAP = 64

# the monomial u^0 t^0, as (key, u units)
MONO_ONE = (0, 0)


def min_prec(a, b):
    """Minimum of two precision caps or key bounds, where None means
    +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# psi_13, the least strong pseudoprime to the first thirteen prime bases
# (Sorenson and Webster, Math. Comp. 2017)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen prime bases 2..41, which is
    exact for n < PRIME_TEST_LIMIT; a larger n raises ValueError."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"cannot certify {n} as a prime: need n < {PRIME_TEST_LIMIT}")
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_ring(p, cap):
    """Reject a p that is not a prime, for which F_p and the exponents
    p^-D Z mean nothing, or that `is_prime` cannot certify, and a cap
    outside 0..MAX_DENOM_CAP.  This is the one home of both rules: the
    CLI and the module-file reader reach it rather than checking again."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got p={p}")
    if not 0 <= cap <= MAX_DENOM_CAP:
        raise ValueError(f"denominator cap must be in 0..{MAX_DENOM_CAP}, got {cap}")


def vp(m: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer m."""
    if m == 0:
        raise ValueError("m must be nonzero")
    v = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        v += 1
    return v


def split_exponent(q, p, cap) -> tuple[int, int]:
    """(m, k) with q = m / p^k in lowest terms.

    Raises ValueError when the denominator of q is not a power of p or
    `check_ring` rejects (p, cap), and CapExceeded when k > cap.
    """
    check_ring(p, cap)
    q = Fraction(q)
    k = vp(q.denominator, p)
    if q.denominator != p**k:
        raise ValueError(f"denominator {q.denominator} is not a power of {p}")
    if k > cap:
        raise CapExceeded(f"exponent {q} needs denominator p^{k} > p^{cap}")
    return q.numerator, k


def exponent_units(q, p, cap) -> int:
    """The int A with q = A / p^cap, validated as in `split_exponent`."""
    m, k = split_exponent(q, p, cap)
    return m * p ** (cap - k)


def lowest_terms(a: int, p: int, cap: int) -> tuple[int, int]:
    """(m, k) with a / p^cap = m / p^k in lowest terms."""
    k = cap
    while k and a % p == 0:
        a //= p
        k -= 1
    return a, k


def mono_of(a: int, b: int, p: int) -> tuple[int, int]:
    """The monomial u^(a/p^cap) * t^(b/p^cap) as (key, a), with the key
    a*p + b*(p-1) its valuation times (p-1)*p^cap."""
    return (a * p + b * (p - 1), a)


def mono_units(m, p: int) -> tuple[int, int]:
    """The exponent units (A, B) of the monomial m = (key, A)."""
    return m[1], (m[0] - m[1] * p) // (p - 1)


def key_den(p: int, cap: int) -> int:
    """The denominator (p-1)*p^cap of the key lattice: a key k is the
    valuation k / key_den(p, cap)."""
    return (p - 1) * p**cap


def mono_val(m, p: int, cap: int) -> Fraction:
    """Valuation of the monomial (key, A): key / ((p-1)*p^cap)."""
    return Fraction(m[0], key_den(p, cap))


def _ceil_key(num: int, den: int, p: int, cap: int) -> int:
    """ceil(num/den * (p-1) * p^cap) for den > 0."""
    return -(-num * key_den(p, cap) // den)


def key_bound(prec, p: int, cap: int) -> int | None:
    """The key bound K = ceil(prec * (p-1) * p^cap) of a precision cap
    (None, +infinity, stays None): a monomial is below prec exactly when
    its key is below K."""
    if prec is None:
        return None
    if not isinstance(prec, (int, Fraction)):
        prec = Fraction(prec)
    return _ceil_key(prec.numerator, prec.denominator, p, cap)


def bound_prec(bound: int | None, p: int, cap: int) -> Fraction | None:
    """The precision cap bound / ((p-1)*p^cap) of a key bound."""
    if bound is None:
        return None
    return Fraction(bound, key_den(p, cap))


@dataclass(frozen=True)
class PerfSeries:
    """A sparse series over F_p, known modulo terms of valuation >= prec.

    ``terms`` holds ((key, A), coeff) pairs for the monomials
    u^(A/p^cap) * t^(B/p^cap) of key A*p + B*(p-1), sorted: ascending
    valuation, ties broken by the (eu, et) lexicographic order.  ``bound``
    is the cap as an int key bound: every monomial of key >= bound is
    unknown, and None means the series is exact.  The two are the
    canonical form used for equality, hashing and formatting; ``prec`` is
    derived from ``bound``.
    """

    p: int
    cap: int
    bound: int | None
    terms: tuple[tuple[tuple[int, int], int], ...]

    # -- basic queries ------------------------------------------------

    @property
    def prec(self) -> Fraction | None:
        """The precision cap bound / ((p-1)*p^cap), None for +infinity."""
        return bound_prec(self.bound, self.p, self.cap)

    def is_zero(self):
        return not self.terms

    def val(self) -> Fraction | None:
        """Exact minimal term valuation, or None when no term is known
        (the series is then 0 up to O(prec))."""
        if not self.terms:
            return None
        return mono_val(self.terms[0][0], self.p, self.cap)

    def val_floor(self) -> Fraction | None:
        """A certified lower bound for the valuation: the exact valuation
        for a nonzero series, prec for a series with no known terms, and
        None (= +infinity) for the exact zero."""
        return bound_prec(self.key_floor(), self.p, self.cap)

    def key_floor(self) -> int | None:
        """`val_floor` as a key: the leading key, the key bound for a
        series with no known terms, None for the exact zero."""
        if self.terms:
            return self.terms[0][0][0]
        return self.bound

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.p != other.p or self.cap != other.cap:
            raise ValueError("series have different p or denominator cap")

    def _plus(self, other, sign):
        """self + sign * other in one pass, with no scaled copy of other;
        a side with no terms adds only its cap."""
        self._check_compatible(other)
        if not other.terms:
            return self.cut(other.bound)
        if not self.terms:
            return other.scale(sign).cut(self.bound)
        acc = dict(self.terms)
        get = acc.get
        for m, c in other.terms:
            acc[m] = get(m, 0) + sign * c
        return make_series(self.p, self.cap, acc, min_prec(self.bound, other.bound))

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self.scale(self.p - 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c: int):
        """Multiply by a scalar in F_p."""
        c %= self.p
        if c == 0:
            return PerfSeries(self.p, self.cap, self.bound, ())
        if c == 1:
            return self
        return PerfSeries(
            self.p, self.cap, self.bound, tuple((m, (a * c) % self.p) for m, a in self.terms)
        )

    def __mul__(self, other):
        return dot(((self, other),))

    def mono_shift(self, mono: tuple[int, int], coeff: int = 1):
        """Multiply by a single monomial coeff * mono, mono a (key, A)
        pair: the product with the exact series coeff * mono, key bound
        and all.  Adding a constant to every monomial keeps the terms
        sorted and distinct, so they need no normalization; a coeff
        divisible by p leaves no term."""
        p = self.p
        coeff %= p
        dk, da = mono
        bound = _plus(dk, self.bound)
        if not coeff:
            return PerfSeries(p, self.cap, bound, ())
        terms = tuple(((k + dk, a + da), c * coeff % p) for (k, a), c in self.terms)
        return PerfSeries(p, self.cap, bound, terms)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers go through invert()")
        if not n:
            return one(self.p, self.cap)
        # start from the lowest set bit: one is exact, so one * b is b
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        while n := n >> 1:
            base = base * base
            if n & 1:
                result = result * base
        return result

    def truncate(self, prec: Fraction | None):
        """Forget everything of valuation >= prec."""
        return self.cut(key_bound(prec, self.p, self.cap))

    def cut(self, bound: int | None):
        """Forget every monomial of key >= bound (None: nothing)."""
        newbound = min_prec(self.bound, bound)
        if newbound == self.bound:
            return self
        # the terms are sorted by key: keep the prefix below the bound
        end = bisect_left(self.terms, newbound, key=_lead_key)
        return PerfSeries(self.p, self.cap, newbound, self.terms[:end])

    # -- presentation -------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"PerfSeries(p={self.p}, {format_series(self)!r})"


def _plus(k, bound):
    """k + bound, None when either is None."""
    if k is None or bound is None:
        return None
    return k + bound


def _lead_key(term):
    return term[0][0]


def dot(pairs, signs=None, cut=None) -> PerfSeries:
    """The sum of products x_1*y_1 + ... + x_n*y_n over the (x, y) pairs,
    or the signed sum s_1*x_1*y_1 + ... + s_n*x_n*y_n with ``signs`` the
    s_i in {1, -1}, one per pair, as in a cofactor expansion; at least one
    pair is needed.  ``pairs`` and ``signs`` may be any iterables, such as
    a `zip`: each is read once, side by side, and no negated copy of an
    operand is built.

    The result is known below the least of the products' key bounds
    min(key0(x) + K_y, key0(y) + K_x), and below the key bound ``cut``
    when one is given, so the result is ``dot(pairs).cut(cut)``.  That
    least bound is read first, and a term pair whose key k1 + k2 reaches
    it is never formed: the terms are sorted by key, so each inner loop
    over y stops at the first such pair, and the loop over x stops once
    x's key plus y's leading key reaches it.  The pairs below go into one
    dict, normalized once by `make_series`.  The terms and cap are
    exactly those of the chained products and sums: each product keeps
    every key below its own bound, and coefficients add mod p either way.
    """
    bound = cut
    p = cap = None
    work = []  # (x terms, y terms, sign) of the pairs with terms on both sides
    sign = 1
    if signs is not None:
        signs = iter(signs)
    # next(signs) raises StopIteration only when the signs run out first
    try:
        for x, y in pairs:
            if signs is not None:
                sign = next(signs)
            if p is None:
                p, cap = x.p, x.cap
            if x.p != p or y.p != p or x.cap != cap or y.cap != cap:
                raise ValueError("series have different p or denominator cap")
            xt, yt = x.terms, y.terms
            bx, by = x.bound, y.bound
            # this product is known below key0(x) + K_y and key0(y) + K_x,
            # key0 the leading key, or K for a series with no terms
            if by is not None:
                kx = xt[0][0][0] if xt else bx
                if kx is not None and (bound is None or kx + by < bound):
                    bound = kx + by
            if bx is not None:
                ky = yt[0][0][0] if yt else by
                if ky is not None and (bound is None or ky + bx < bound):
                    bound = ky + bx
            if xt and yt:
                work.append((xt, yt, sign))
    except StopIteration:
        raise ValueError("fewer signs than pairs") from None
    if signs is not None and next(signs, None) is not None:
        raise ValueError("more signs than pairs")
    if p is None:
        raise ValueError("dot needs at least one pair")
    acc = {}
    get = acc.get
    for xt, yt, sign in work:
        # an exact result keeps every pair: each key sum is below the
        # last terms' keys plus one
        top = bound if bound is not None else xt[-1][0][0] + yt[-1][0][0] + 1
        y_lead = yt[0][0][0]
        for (k1, a1), c1 in xt:
            # the pairs kept are those with k2 < room
            room = top - k1
            if y_lead >= room:
                break
            c1 *= sign
            for (k2, a2), c2 in yt:
                if k2 >= room:
                    break
                m = (k1 + k2, a1 + a2)
                acc[m] = get(m, 0) + c1 * c2
    return make_series(p, cap, acc, bound)


def make_series(p, cap, termdict, bound=None) -> PerfSeries:
    """Normalize a {(key, A): coeff} mapping into canonical form, dropping
    the monomials of key >= bound (an int key bound; None: exact)."""
    if not termdict:
        return PerfSeries(p, cap, bound, ())
    if bound is None:
        items = [(m, r) for m, c in termdict.items() if (r := c % p)]
    else:
        items = [(m, r) for m, c in termdict.items() if m[0] < bound and (r := c % p)]
    # the monomials are distinct, so ordering on them alone is the same
    # order, with int pairs compared rather than (pair, coeff) items
    items.sort(key=itemgetter(0))
    return PerfSeries(p, cap, bound, tuple(items))


# -- constructors -----------------------------------------------------


def zero(p, cap=DEFAULT_DENOM_CAP, prec=None):
    check_ring(p, cap)
    return make_series(p, cap, {}, key_bound(prec, p, cap))


def one(p, cap=DEFAULT_DENOM_CAP):
    check_ring(p, cap)
    return make_series(p, cap, {MONO_ONE: 1})


def constant(c, p, cap=DEFAULT_DENOM_CAP):
    check_ring(p, cap)
    return make_series(p, cap, {MONO_ONE: c})


def monomial(p, cap, coeff, eu, et, prec=None):
    """coeff * u^eu * t^et with rational exponents."""
    m = mono_of(exponent_units(eu, p, cap), exponent_units(et, p, cap), p)
    return make_series(p, cap, {m: coeff}, key_bound(prec, p, cap))


def u_var(p, cap=DEFAULT_DENOM_CAP):
    return monomial(p, cap, 1, 1, 0)


def t_var(p, cap=DEFAULT_DENOM_CAP):
    return monomial(p, cap, 1, 0, 1)


# -- Frobenius --------------------------------------------------------


def frobenius(x: PerfSeries) -> PerfSeries:
    """Scale all exponents by p; coefficients are fixed since kappa = F_p."""
    p = x.p
    # scaling both ints by p keeps the terms sorted and distinct
    terms = tuple(((k * p, a * p), c) for (k, a), c in x.terms)
    return PerfSeries(p, x.cap, None if x.bound is None else x.bound * p, terms)


def frobenius_inv(x: PerfSeries) -> PerfSeries:
    """Scale all exponents by 1/p.  Raises CapExceeded at the denominator
    cap.  The key bound K becomes ceil(K/p): a key >= K scales to one
    >= K/p, and keys are ints."""
    p, cap = x.p, x.cap
    terms = []
    for m, c in x.terms:
        k, a = m
        # with p | A, p | B exactly when p | k
        if a % p or k % p:
            q = Fraction(a if a % p else mono_units(m, p)[1], p ** (cap + 1))
            raise CapExceeded(f"exponent {q} needs denominator p^{cap + 1} > p^{cap}")
        terms.append(((k // p, a // p), c))
    # exact division by p keeps the terms sorted and distinct
    return PerfSeries(p, cap, None if x.bound is None else -(-x.bound // p), tuple(terms))


# -- inversion --------------------------------------------------------


def invert(x: PerfSeries, prec: Fraction | None = None) -> PerfSeries:
    """Invert a series with a strictly dominant leading term.

    The result y satisfies x*y = 1 + O(...) consistently with the
    propagated caps.  When the input has a nontrivial tail a finite
    target precision is required (either the input's own cap or the
    ``prec`` argument); inverting an exact unit with an infinite tail
    otherwise raises PrecisionRequired.  So does a series with no term
    known below its cap; only the exact zero raises ZeroDivisor.
    """
    if not x.terms:
        if x.bound is None:
            raise ZeroDivisor("cannot invert a series with no known terms")
        raise PrecisionRequired(f"cannot invert a series with no known term below O({x.prec})")
    lead_m, lead_c = x.terms[0]
    p, cap = x.p, x.cap
    lead_k = lead_m[0]
    if len(x.terms) > 1 and x.terms[1][0][0] == lead_k:
        raise NonDominantLeading(
            f"two monomials share the minimal valuation {mono_val(lead_m, p, cap)}"
        )
    inv_m = (-lead_m[0], -lead_m[1])
    inv_c = pow(lead_c, -1, p)
    # determined precision of the inverse: prec(x) - 2*val(x)
    determined = None if x.bound is None else x.bound - 2 * lead_k
    target = min_prec(determined, key_bound(prec, p, cap))
    tail = make_series(p, cap, dict(x.terms[1:]), x.bound)
    if tail.is_zero() and tail.bound is None:
        return make_series(p, cap, {inv_m: inv_c}, target)
    if target is None:
        raise PrecisionRequired("inverting a unit with a tail needs a finite cap")
    # x = lead * (1 + y) with val(y) > 0; 1/x = (1/lead) * sum (-y)^j,
    # with y and its powers needed below target + val(x)
    top = target + lead_k
    # every key of y is above 0, so the powers climb to top and the first
    # one with no term below it ends the sum
    neg_y = -tail.mono_shift(inv_m, inv_c).cut(top)
    acc = power = one(p, cap).cut(top)
    while (power := dot(((power, neg_y),), cut=top)).terms:
        acc = acc + power
    return acc.mono_shift(inv_m, inv_c).cut(target)


# -- text form --------------------------------------------------------

# a token is a digit run or one other character, after any whitespace
_NEXT_TOKEN_RE = re.compile(r"\s*(\d+|\S)")
# the start of the whitespace before the first character that begins no
# token, or of trailing whitespace
_STRAY_RE = re.compile(r"(?<!\s)\s*(?:[^\s\d*+^{}()/Out-]|\Z)")

_VARS = ("u", "t")

# `format_series`'s own shape: one atom of a term, and the O(...) part
_CANON_ATOM_RE = re.compile(r"([ut])(?:\^\{(-?\d+)(?:/(\d+))?\})?")
_CANON_CAP_RE = re.compile(r"O\((-?\d+)(?:/(\d+))?\)")


def _next_token(text, i):
    """(token, position, end) of the token after i; (None, None, i) when
    only whitespace is left."""
    m = _NEXT_TOKEN_RE.match(text, i)
    if m is None:
        return None, None, i
    return m[1], m.start(1), m.end()


def _expect(text, i, want):
    """The end of the token `want` after i."""
    tok, pos, end = _next_token(text, i)
    if tok is None:
        raise ParseError("unexpected end of input")
    if tok != want:
        raise ParseError(f"expected {want!r}, found {tok!r}", pos)
    return end


def _digits(text, i):
    """(value, position, end) of the digit run after i."""
    tok, pos, end = _next_token(text, i)
    if tok is None:
        raise ParseError("unexpected end of input")
    if not tok.isdecimal():
        raise ParseError(f"expected digits, found {tok!r}", pos)
    return int(tok), pos, end


def _rational(text, i):
    """(numerator, denominator, end) of the rational after i."""
    tok, _, end = _next_token(text, i)
    sign = 1
    if tok == "-":
        sign, i = -1, end
    num, _, i = _digits(text, i)
    den = 1
    tok, _, end = _next_token(text, i)
    if tok == "/":
        den, pos, i = _digits(text, end)
        if den == 0:
            raise ParseError("zero denominator", pos)
    return sign * num, den, i


def _atom(text, i):
    """(variable, numerator, denominator, star, end) of the atom after i,
    where star tells whether a '*' follows it, or None when the next
    token is not 'u' or 't'."""
    var, _, i = _next_token(text, i)
    if var not in _VARS:
        return None
    num = den = 1
    tok, _, end = _next_token(text, i)
    if tok == "^":
        tok, _, brace_end = _next_token(text, end)
        if tok == "{":
            num, den, i = _rational(text, brace_end)
            i = _expect(text, i, "}")
        else:
            num, den, i = _rational(text, end)
    tok, _, end = _next_token(text, i)
    return (var, num, den, True, end) if tok == "*" else (var, num, den, False, i)


def _cap(text, i):
    """(numerator, denominator) of the O(...) whose 'O' ends at i; it must
    end the text."""
    i = _expect(text, i, "(")
    num, den, i = _rational(text, i)
    i = _expect(text, i, ")")
    if i != len(text):
        tok, pos, _ = _next_token(text, i)
        raise ParseError(f"trailing input after O(...): {tok!r}", pos)
    return num, den


def parse_series(text: str, p: int, cap: int = DEFAULT_DENOM_CAP) -> PerfSeries:
    """Parse the series grammar:

    series := term ('+' term)* ['+' 'O(' rational ')'] | 'O(' rational ')'
    term   := coeff ['*' atom {'*' atom}] | atom {'*' atom}
    atom   := ('u'|'t') ['^' '{' rational '}']

    Whitespace may come before any token but not after the last one, and
    digits are any Unicode decimal digits.  A '*' that no atom follows is
    dropped, so "t*" is t.

    A literal in the shape `format_series` writes is read by splitting:
    terms joined by exactly " + ", each `c`, `atoms` or `c*atoms` with
    the atoms `u` or `t` and an optional `^{n}` or `^{n/d}` joined by
    '*', no other whitespace, and an optional last part `O(q)`.  Each
    distinct atom text is matched and converted once per call.  The
    reader gives up on anything else, on an exponent off the p^cap
    lattice, a zero denominator, or a digit run too long for `int`, and
    the scanner below then reads the text; it reports every error.  On a
    text both read, the two give the same series and differ only in speed.

    The scanner reads the text left to right, token by token.  An atom's
    exponent num/den goes straight to its units num * p^cap / den, an
    int, whenever den divides p^cap, and the units of a term's atoms add
    up per variable.  Only an exponent off that lattice is kept as a
    Fraction, and the term's sum is validated by `exponent_units`, so
    u^{1/2}*u^{1/2} at p = 3 is u.  The O(...) cap, which comes at most
    once, goes straight to its key bound, so a cap off the key lattice is
    sharpened: O(1/7) at p = 3 reads as O(209/1458).

    Errors come as the grammar meets them, except that a character no
    token begins with, or trailing whitespace, is reported first wherever
    it stands; the scan looks for one only once it has failed.
    """
    check_ring(p, cap)
    x = _read_canonical(text, p, cap)
    if x is not None:
        return x
    try:
        return _scan(text, p, cap)
    except (TiltedError, ValueError):
        m = _STRAY_RE.search(text)
        if m.start() < len(text):
            raise ParseError(f"unexpected character {text[m.start()]!r}", m.start()) from None
        raise


def _read_canonical(text, p, cap):
    """The series of a literal in `format_series`'s shape, equal to what
    `_scan` reads from it, or None for any text the split reader does
    not take; it never raises."""
    scale = p**cap
    parts = text.split(" + ")
    bound = None
    atoms = {}
    acc = {}
    get = acc.get
    try:
        if parts[-1][:1] == "O":
            m = _CANON_CAP_RE.fullmatch(parts.pop())
            if m is None:
                return None
            den = 1 if m[2] is None else int(m[2])
            if not den:
                return None
            bound = _ceil_key(int(m[1]), den, p, cap)
        for part in parts:
            factors = part.split("*")
            coeff = 1
            if factors[0].isdecimal():
                coeff = int(factors.pop(0))
            key = units = 0
            for f in factors:
                atom = atoms.get(f)
                if atom is None:
                    m = _CANON_ATOM_RE.fullmatch(f)
                    if m is None:
                        return None
                    var, num, den = m.groups()
                    num = 1 if num is None else int(num)
                    den = 1 if den is None else int(den)
                    if not den or scale % den:
                        return None
                    a = num * (scale // den)
                    # (key, u units) of the atom, as `mono_of` adds them up
                    atom = atoms[f] = (a * p, a) if var == "u" else (a * (p - 1), 0)
                key += atom[0]
                units += atom[1]
            mono = (key, units)
            acc[mono] = get(mono, 0) + coeff
    except ValueError:
        # int() refuses a digit run past its limit
        return None
    return make_series(p, cap, acc, bound)


def _scan(text, p, cap):
    if not text:
        raise ParseError("empty series literal")
    scale = p**cap
    acc = {}
    bound = None
    i = 0
    while True:
        coeff, a, b, off = 1, 0, 0, None
        seen = more = False
        tok, _, end = _next_token(text, i)
        if tok is not None and tok.isdecimal():
            coeff, i, seen = int(tok), end, True
            tok, pos, end = _next_token(text, i)
            if tok == "*":
                i, more = end, True
            elif tok in _VARS:
                raise ParseError("missing '*' between coefficient and atom", pos)
        while more or not seen:
            atom = _atom(text, i)
            if atom is None:
                break
            var, num, den, more, i = atom
            seen = True
            if scale % den:
                # off the p^cap lattice: only the term's sum must be on it
                off = off or {}
                off[var] = off.get(var, 0) + Fraction(num, den)
            elif var == "u":
                a += num * (scale // den)
            else:
                b += num * (scale // den)
        if not seen:
            tok, _, end = _next_token(text, i)
            if tok == "O":
                bound = _ceil_key(*_cap(text, end), p, cap)
                break
            raise ParseError(f"expected a term, found {tok!r}")
        if off:
            if "u" in off:
                a = exponent_units(off["u"] + Fraction(a, scale), p, cap)
            if "t" in off:
                b = exponent_units(off["t"] + Fraction(b, scale), p, cap)
        key = mono_of(a, b, p)
        acc[key] = acc.get(key, 0) + coeff
        if i == len(text):
            break
        i = _expect(text, i, "+")
    return make_series(p, cap, acc, bound)


def _format_atom(name, a, p, cap):
    """The atom name^(a/p^cap), its exponent in lowest terms."""
    m, k = lowest_terms(a, p, cap)
    if k:
        return f"{name}^{{{m}/{p**k}}}"
    return name if m == 1 else f"{name}^{{{m}}}"


def format_series(x: PerfSeries) -> str:
    """Canonical text form: terms in ascending valuation order, then O(prec)."""
    p, cap = x.p, x.cap
    # units -> atom text, per variable, each formatted once
    u_atoms, t_atoms = {}, {}
    parts = []
    for (key, a), c in x.terms:
        b = (key - a * p) // (p - 1)
        if b:
            t = t_atoms.get(b)
            if t is None:
                t = t_atoms[b] = _format_atom("t", b, p, cap)
        if a:
            atoms = u_atoms.get(a)
            if atoms is None:
                atoms = u_atoms[a] = _format_atom("u", a, p, cap)
            if b:
                atoms = f"{atoms}*{t}"
        elif b:
            atoms = t
        else:
            parts.append(str(c))
            continue
        parts.append(atoms if c == 1 else f"{c}*{atoms}")
    if x.bound is not None:
        parts.append(f"O({x.prec})")
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
