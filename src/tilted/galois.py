"""The semidirect group acting on perfected series.

A group element tau^c gamma_a acts through

    gamma_a : u^(1/p^k) |-> (1 + u^(1/p^k))^a - 1,     t fixed,
    tau^c   : t^r       |-> (1+u)^(c*r) * t^r,         u fixed,

with gamma applied first.  The group law is (c1,a1)*(c2,a2) =
(c1 + a1*c2, a1*a2), realizing gamma_a tau gamma_a^{-1} = tau^a.

Elements produced by `inverse` are only known modulo p^N; the action
checks per call that N is large enough for the requested precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import ring
from .errors import InsufficientGroupAccuracy, PrecisionRequired
from .ring import PerfSeries, min_prec

# (1 + x)^m has at most m+1 terms; refuse to expand huge exact powers.
_EXACT_POWER_LIMIT = 100_000


@dataclass(frozen=True)
class GroupElem:
    """The operator tau^c o gamma_a (gamma applied first).

    ``nacc`` records that (c, a) are only accurate modulo p^nacc, which
    happens after inverting the gamma component; None means exact.
    """

    c: int
    a: int
    nacc: int | None = None


def tau(c: int = 1) -> GroupElem:
    return GroupElem(c, 1)


def gamma(a: int) -> GroupElem:
    return GroupElem(0, a)


IDENTITY = GroupElem(0, 1)


def compose(g: GroupElem, h: GroupElem) -> GroupElem:
    nacc = g.nacc if h.nacc is None else (h.nacc if g.nacc is None else min(g.nacc, h.nacc))
    return GroupElem(g.c + g.a * h.c, g.a * h.a, nacc)


def inverse(g: GroupElem, p: int, nacc: int = 24) -> GroupElem:
    """(c,a)^{-1} = (-a^{-1} c, a^{-1}) with a^{-1} taken modulo p^nacc."""
    if g.a % p == 0:
        raise ValueError("gamma component must be a unit")
    if g.a in (1, -1) and g.nacc is None:
        return GroupElem(-g.a * g.c, g.a, None)
    mod = p**nacc
    ainv = pow(g.a, -1, mod)
    c = (-ainv * g.c) % mod
    new_nacc = nacc if g.nacc is None else min(nacc, g.nacc)
    return GroupElem(c, ainv, new_nacc)


def _lucas_terms(m: int, p: int, bound: int | None) -> list[tuple[int, int]]:
    """The pairs (j, C(m, j) mod p) with C(m, j) != 0 mod p and j < bound
    (None: no bound), for m >= 0.

    By Lucas' theorem these are the j whose base-p digits are each at
    most the matching digit of m, and C(m, j) is the product of the
    digit binomials.  Digits are added from the least significant up, so
    a partial j at or above the bound is final and can be dropped.
    """
    terms = [(0, 1)] if bound is None or bound > 0 else []
    place = 1
    while m:
        m, digit = divmod(m, p)
        terms = [
            (j + i * place, c * math.comb(digit, i) % p)
            for i in range(digit + 1)
            for j, c in terms
            if bound is None or j + i * place < bound
        ]
        place *= p
    return terms


def eps_pow(r, p: int, cap: int = ring.DEFAULT_DENOM_CAP, prec=None) -> PerfSeries:
    """(1+u)^r for r in Z[1/p], computed as (1 + v)^m for r = m/p^k and
    v = u^(1/p^k).

    With a finite precision cap only the terms v^j with j*val(v) < prec
    are kept.  Choosing the least N with p^N*val(v) >= prec, the identity
    (1+v)^(p^N) = 1 + v^(p^N) in characteristic p lets m be replaced by
    m mod p^N; a negative m thus needs a finite cap, and then expands like
    a positive one.  The nonzero binomials come from Lucas' theorem.
    """
    m, k = ring.split_exponent(r, p, cap)
    if prec is None:
        if m < 0:
            raise PrecisionRequired("eps_pow with negative exponent needs a cap")
        if m > _EXACT_POWER_LIMIT:
            raise PrecisionRequired(f"exact expansion of (1+u)^{m} is too large")
        bound = None
    else:
        # j*val(v) < prec  <=>  j < bound, with val(v) = p/(p-1)/p^k
        bound = math.ceil(Fraction(prec) * (p - 1) * p**k / p)
        modulus = 1
        while modulus < bound:
            modulus *= p
        m %= modulus
    # v^j = u^(j/p^k) is the monomial (j * p^(cap-k), 0)
    unit = p ** (cap - k)
    acc = {(j * unit, 0): c for j, c in _lucas_terms(m, p, bound)}
    return ring.make_series(p, cap, acc, prec)


def eps_val_formula(m: int, p: int) -> Fraction:
    """Valuation of eps^m - 1: p^{v_p(m)} * p/(p-1), for m != 0."""
    if m == 0:
        raise ValueError("m must be nonzero")
    vp = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        vp += 1
    return Fraction(p, p - 1) * p**vp


def required_accuracy(x: PerfSeries, eff) -> int | None:
    """Minimal N so that elements known mod p^N act correctly on x up to
    precision eff.  Perturbing an exponent by p^N changes the action by
    terms of valuation >= p^(N-k) * p/(p-1) with k the deepest
    denominator in x; None means no finite N suffices (exact x)."""
    if eff is None:
        return None
    p, cap = x.p, x.cap
    kmax = max((ring.lowest_terms(e, p, cap)[1] for m, _ in x.terms for e in m), default=0)
    need = 0
    while Fraction(p, p - 1) * Fraction(p**need, p**kmax) < eff:
        need += 1
    return need


def _check_accuracy(g: GroupElem, x: PerfSeries, eff):
    if g.nacc is None:
        return
    need = required_accuracy(x, eff)
    if need is None:
        raise InsufficientGroupAccuracy(
            "an approximate group element cannot act on an exact series "
            "without a finite precision cap"
        )
    if g.nacc < need:
        raise InsufficientGroupAccuracy(
            f"element known mod p^{g.nacc}, but p^{need} required for this precision"
        )


def _accumulate(acc: dict, image: PerfSeries, prec):
    """Add image's terms into acc; return the joint precision cap."""
    for m, c in image.terms:
        acc[m] = acc.get(m, 0) + c
    return min_prec(prec, image.prec)


def _apply_gamma(a: int, x: PerfSeries, eff) -> PerfSeries:
    p, cap = x.p, x.cap
    acc = {}
    prec = eff
    for m, c in x.terms:
        eu, et = m
        if eu == 0:
            acc[m] = acc.get(m, 0) + c
            continue
        mm, k = ring.lowest_terms(eu, p, cap)
        target = None if eff is None else eff - Fraction(et, p**cap)
        w = eps_pow(Fraction(a, p**k), p, cap, target) - ring.one(p, cap).truncate(target)
        if mm >= 0:
            f = w**mm
        else:
            f = ring.invert(w ** (-mm), target)
        prec = _accumulate(acc, f.mono_shift((0, et), c), prec)
    return ring.make_series(p, cap, acc, prec)


def _apply_tau(c: int, x: PerfSeries, eff) -> PerfSeries:
    p, cap = x.p, x.cap
    acc = {}
    prec = eff
    for m, co in x.terms:
        if m[1] == 0:
            acc[m] = acc.get(m, 0) + co
            continue
        target = None if eff is None else eff - ring.mono_val(m, p, cap)
        factor = eps_pow(Fraction(c * m[1], p**cap), p, cap, target)
        prec = _accumulate(acc, factor.mono_shift(m, co), prec)
    return ring.make_series(p, cap, acc, prec)


def act(g: GroupElem, x: PerfSeries, prec=None) -> PerfSeries:
    """Apply the operator tau^c o gamma_a to a series.

    The result carries precision min(prec(x), prec), lowered further
    where gamma inverts a series for a negative u exponent; an exact
    input with only finite expansions yields an exact output.
    """
    eff = min_prec(x.prec, None if prec is None else Fraction(prec))
    _check_accuracy(g, x, eff)
    y = x.truncate(eff)
    if g.a % x.p == 0:
        raise ValueError("gamma component must be a unit")
    if g.a != 1:
        y = _apply_gamma(g.a, y, eff)
    if g.c != 0:
        # gamma's images may be known to less than eff, and tau is an
        # isometry: its images are known exactly as far as y is
        y = _apply_tau(g.c, y, y.prec)
    return y
