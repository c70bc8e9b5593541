"""The semidirect group acting on perfected series.

A group element tau^c gamma_a acts through

    gamma_a : u^(1/p^k) |-> (1 + u^(1/p^k))^a - 1,     t fixed,
    tau^c   : t^r       |-> (1+u)^(c*r) * t^r,         u fixed,

with gamma applied first.  The group law is (c1,a1)*(c2,a2) =
(c1 + a1*c2, a1*a2), realizing gamma_a tau gamma_a^{-1} = tau^a.

Elements produced by `inverse` are only known modulo p^N; the action
checks per call that N is large enough for the requested precision, and
then acts through the element's least representative mod p^N and cuts
the result where two representatives could first differ.  So
gamma_a tau gamma_a^{-1}, known as (a, a * a^{-1}) mod p^24, acts as
tau^a does: no gamma pass and the same terms, with tau^a's cap wherever
that lies below what a change of a by p^24 could move.
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
EXACT_POWER_LIMIT = 100_000


@dataclass(frozen=True)
class GroupElem:
    """The operator tau^c o gamma_a (gamma applied first).

    ``nacc`` records that (c, a) are only accurate modulo p^nacc, which
    happens after inverting the gamma component; None means exact.  An
    approximate element acts through its least representative
    (c mod p^nacc, a mod p^nacc), cut below where another one could act
    differently, so gamma_a tau gamma_a^{-1} acts as tau^a.
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
    # None, an exact element, is +infinity
    return GroupElem(g.c + g.a * h.c, g.a * h.a, min_prec(g.nacc, h.nacc))


def inverse(g: GroupElem, p: int, nacc: int = 24) -> GroupElem:
    """(c,a)^{-1} = (-a^{-1} c, a^{-1}) with a^{-1} taken modulo p^nacc."""
    if g.a % p == 0:
        raise ValueError("gamma component must be a unit")
    if g.a in (1, -1) and g.nacc is None:
        return GroupElem(-g.a * g.c, g.a, None)
    mod = p**nacc
    ainv = pow(g.a, -1, mod)
    c = (-ainv * g.c) % mod
    return GroupElem(c, ainv, min_prec(nacc, g.nacc))


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
    bound = ring.key_bound(prec, p, cap)
    return _v_series(_eps_terms(m, k, p, cap, bound), k, p, cap, bound)


def check_exact_power(m: int) -> None:
    """Refuse the exact expansion of (1+v)^m when it cannot be made: a
    negative m needs a precision cap, and an m above the limit has too
    many terms."""
    if m < 0:
        raise PrecisionRequired("eps_pow with negative exponent needs a cap")
    if m > EXACT_POWER_LIMIT:
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


def _v_series(terms, k: int, p: int, cap: int, bound: int | None) -> PerfSeries:
    """The series of the pairs (j, c) for the terms c v^j, v = u^(1/p^k),
    as `_eps_terms` gives them: ascending in j, each c a unit mod p, so
    they are already in canonical form."""
    # v^j = u^(j/p^k) has u units j * unit and key j * unit * p
    unit = p ** (cap - k)
    return PerfSeries(p, cap, bound, tuple(((j * unit * p, j * unit), c) for j, c in terms))


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


def _check_accuracy(g: GroupElem, x: PerfSeries, eff):
    """Refuse an element known mod p^N that cannot act on x below the key
    bound eff.  Perturbing an exponent by p^N changes the action by terms
    of valuation >= p^(N-k) * p/(p-1), of key p^(cap+1+N-k), with k the
    deepest denominator in x, so the least N that puts that key at or
    above eff is required; no finite N suffices for an exact x (eff None)."""
    if g.nacc is None:
        return
    if eff is None:
        raise InsufficientGroupAccuracy(
            "an approximate group element cannot act on an exact series "
            "without a finite precision cap"
        )
    p, cap = x.p, x.cap
    kmax = max(
        (ring.lowest_terms(e, p, cap)[1] for m, _ in x.terms for e in ring.mono_units(m, p)),
        default=0,
    )
    need = 0
    while p ** (cap + 1 + need - kmax) < eff:
        need += 1
    if g.nacc < need:
        raise InsufficientGroupAccuracy(
            f"element known mod p^{g.nacc}, but p^{need} required for this precision"
        )


def _agreement_bound(x: PerfSeries, mod: int, eff: int) -> int | None:
    """The key bound below which all elements congruent mod p^N = `mod`
    act alike on x (None: they act alike below eff).

    Raising a by p^N b turns w = (1+v)^a - 1, v = u^(1/p^k), into
    w + (1+v)^a ((1+v^(p^N))^b - 1); w has the valuation of v, a being a
    unit, so w^m, for m of either sign, moves by terms of valuation at
    least val(v^m) + (p^N - 1) val(v).  Raising c by p^N b multiplies the
    image of t^B, B = m/p^k, by (1+u)^(p^N b B), which moves it by
    terms p^(N-k) val(u) above it.  gamma keeps each term's t factor and
    leaves no image term below its source, and tau is an isometry, so
    each term of x bounds the change its images can make.
    """
    p, cap = x.p, x.cap
    # every step below is at least (p^N - 1) * p, and the first key is least
    if not x.terms or x.terms[0][0][0] + (mod - 1) * p >= eff:
        return None
    bound = None
    for m, _ in x.terms:
        eu, et = ring.mono_units(m, p)
        if eu:
            # v^(p^N - 1) has key (p^N - 1) * p^(cap+1-k)
            step = (mod - 1) * p ** (cap + 1 - ring.lowest_terms(eu, p, cap)[1])
            bound = min_prec(bound, m[0] + step)
        if et:
            step = mod * p ** (cap + 1 - ring.lowest_terms(et, p, cap)[1])
            bound = min_prec(bound, m[0] + step)
    return bound


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
        # w = (1+v)^a - 1: every term of the expansion but j = 0
        terms = _eps_terms(a, k, p, cap, target)
        w = _v_series([(j, cj) for j, cj in terms if j], k, p, cap, target)
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
    where gamma inverts a series for a negative u exponent, and for an
    element known mod p^N where two of its representatives could act
    differently; an exact input with only finite expansions yields an
    exact output.
    """
    return _act(g, x, ring.key_bound(prec, x.p, x.cap))


def _act(g: GroupElem, x: PerfSeries, bound) -> PerfSeries:
    """`act` below the key bound of prec, converted once by the caller."""
    eff = min_prec(x.bound, bound)
    _check_accuracy(g, x, eff)
    y = x.cut(eff)
    if g.a % x.p == 0:
        raise ValueError("gamma component must be a unit")
    c, a = g.c, g.a
    agree = None
    if g.nacc is not None:
        # act through the least representative of (c, a) mod p^nacc (a > 0,
        # so a = 1 when nacc = 0), and keep only what every one of them
        # agrees on: a conjugate gamma_a tau gamma_a^-1 skips gamma as
        # tau^a does, and keeps tau^a's cap below p^nacc's reach
        mod = x.p**g.nacc
        c, a = c % mod, (a - 1) % mod + 1
        agree = _agreement_bound(y, mod, eff)
    if a != 1:
        y = _apply_gamma(a, y, eff)
    if c != 0:
        # gamma's images may be known to less than eff, and tau is an
        # isometry: its images are known exactly as far as y is
        y = _apply_tau(c, y, y.bound)
    return y.cut(agree)
