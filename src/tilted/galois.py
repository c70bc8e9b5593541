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
import sys
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
    return _eps_pow(m, k, p, cap, ring.key_bound(prec, p, cap))


def check_exact_power(m: int) -> None:
    """Refuse the exact expansion of (1+v)^m when it cannot be made: a
    negative m needs a precision cap, and an m above the limit has too
    many terms."""
    if m < 0:
        raise PrecisionRequired("eps_pow with negative exponent needs a cap")
    if m > _EXACT_POWER_LIMIT:
        try:
            power = f"(1+u)^{m}"
        except ValueError:
            # m has more digits than sys.get_int_max_str_digits() prints
            power = f"(1+u)^m, m of more than {sys.get_int_max_str_digits()} digits,"
        raise PrecisionRequired(f"exact expansion of {power} is too large")


def _eps_terms(m: int, k: int, p: int, cap: int, bound: int | None) -> list[tuple[int, int]]:
    """The nonzero terms of (1+v)^m, v = u^(1/p^k), whose key lies below
    the key bound (None: all of them), as pairs (j, C(m, j) mod p) for
    the terms C(m, j) v^j, with m reduced mod p^N as in `eps_pow`, in
    ascending order of j.

    By Lucas' theorem these are the j whose base-p digits are each at
    most the matching digit of m, and C(m, j) is the product of the
    digit binomials.  Digits are added from the least significant up, so
    a partial j at or above the bound is final and can be dropped; each
    new digit i at place p^n puts j + i*p^n after every j < p^n, which
    keeps the j ascending.
    """
    if bound is None:
        check_exact_power(m)
        jmax = None
    else:
        # v^j = u^(j/p^k) has key j * p^(cap-k) * p, below the bound
        # exactly when j < ceil(bound / p^(cap-k+1))
        jmax = -(-bound // p ** (cap - k + 1))
        modulus = 1
        while modulus < jmax:
            modulus *= p
        m %= modulus
    terms = [(0, 1)] if jmax is None or jmax > 0 else []
    place = 1
    while m:
        m, digit = divmod(m, p)
        if not digit:
            # C(0, 0) = 1: a zero digit leaves every term as it is
            place *= p
            continue
        terms = [
            (j + i * place, c * math.comb(digit, i) % p)
            for i in range(digit + 1)
            for j, c in terms
            if jmax is None or j + i * place < jmax
        ]
        place *= p
    return terms


def _eps_pow(m: int, k: int, p: int, cap: int, bound: int | None) -> PerfSeries:
    """`eps_pow` of r = m/p^k in lowest terms, cut at the key bound
    (None: exact)."""
    # v^j = u^(j/p^k) has u units j * unit and key j * unit * p
    unit = p ** (cap - k)
    acc = {(j * unit * p, j * unit): c for j, c in _eps_terms(m, k, p, cap, bound)}
    return ring.make_series(p, cap, acc, bound)


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
    """Minimal N so that elements known mod p^N act correctly on x below
    the key bound eff.  Perturbing an exponent by p^N changes the action
    by terms of valuation >= p^(N-k) * p/(p-1), of key p^(cap+1+N-k), with
    k the deepest denominator in x; None means no finite N suffices
    (exact x)."""
    if eff is None:
        return None
    p, cap = x.p, x.cap
    kmax = max(
        (ring.lowest_terms(e, p, cap)[1] for m, _ in x.terms for e in ring.mono_units(m, p)),
        default=0,
    )
    need = 0
    while p ** (cap + 1 + need - kmax) < eff:
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


def _apply_gamma(a: int, x: PerfSeries, eff) -> PerfSeries:
    p, cap = x.p, x.cap
    acc = {}
    get = acc.get
    bound = eff
    for m, c in x.terms:
        eu, et = ring.mono_units(m, p)
        if eu == 0:
            acc[m] = get(m, 0) + c
            continue
        mm, k = ring.lowest_terms(eu, p, cap)
        # the t^et factor, of key et * (p-1), is fixed
        t_key = et * (p - 1)
        target = None if eff is None else eff - t_key
        w = _eps_pow(a, k, p, cap, target) - ring.one(p, cap).cut(target)
        if mm >= 0:
            f = w**mm
        else:
            f = ring.invert(w ** (-mm), ring.bound_prec(target, p, cap))
        # the image c * f * t^et: f's terms shifted by the t factor's key
        for (fk, fa), fc in f.terms:
            mono = (fk + t_key, fa)
            acc[mono] = get(mono, 0) + fc * c
        if f.bound is not None:
            bound = min_prec(bound, f.bound + t_key)
    return ring.make_series(p, cap, acc, bound)


def _apply_tau(c: int, x: PerfSeries, eff) -> PerfSeries:
    p, cap = x.p, x.cap
    acc = {}
    get = acc.get
    # u^A t^B is fixed, so its factor (1+u)^(c*B) is needed below
    # eff - key only.  Every term of one t-column shares that factor, and
    # the terms come sorted by key: the column's first term needs the most
    # of it, and its expansion serves the column's later terms
    columns = {}
    for m, co in x.terms:
        et = ring.mono_units(m, p)[1]
        if et == 0:
            acc[m] = get(m, 0) + co
            continue
        key, units = m
        column = columns.get(et)
        if column is None:
            mm, k = ring.lowest_terms(c * et, p, cap)
            column = columns[et] = (
                p ** (cap - k),
                _eps_terms(mm, k, p, cap, None if eff is None else eff - key),
            )
        unit, terms = column
        for j, cj in terms:
            # v^j lands on the monomial shifted by its key and u units
            ju = j * unit
            jkey = key + ju * p
            if eff is not None and jkey >= eff:
                # j ascend: every later v^j lies at or above eff too
                break
            mono = (jkey, units + ju)
            acc[mono] = get(mono, 0) + cj * co
    if not columns:
        # no term moves, and x is already cut at eff
        return x
    return ring.make_series(p, cap, acc, eff)


def act(g: GroupElem, x: PerfSeries, prec=None) -> PerfSeries:
    """Apply the operator tau^c o gamma_a to a series.

    The result carries precision min(prec(x), prec), lowered further
    where gamma inverts a series for a negative u exponent; an exact
    input with only finite expansions yields an exact output.
    """
    return _act(g, x, ring.key_bound(prec, x.p, x.cap))


def _act(g: GroupElem, x: PerfSeries, bound) -> PerfSeries:
    """`act` below the key bound of prec, converted once by the caller."""
    eff = min_prec(x.bound, bound)
    _check_accuracy(g, x, eff)
    y = x.cut(eff)
    if g.a % x.p == 0:
        raise ValueError("gamma component must be a unit")
    if g.a != 1:
        y = _apply_gamma(g.a, y, eff)
    if g.c != 0:
        # gamma's images may be known to less than eff, and tau is an
        # isometry: its images are known exactly as far as y is
        y = _apply_tau(g.c, y, y.bound)
    return y
