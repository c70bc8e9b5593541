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
tau^a does: gamma moves no term, and the terms are the same, with
tau^a's cap wherever that lies below what a change of a by p^24 could
move.

The action, and `eps_pow`, read the Lucas expansion of (1+v)^m,
v = u^(1/p^k), as one row of monomial terms from `_eps_terms`.  A row
depends on (m mod p^N, k, p, cap, jmax) alone, so each is expanded once
per process and kept in a memo of at most `ROW_BUDGET` terms in all.
The memo, like a module's, is not thread-safe.  Every tau^c gamma_a
acts in one pass over the terms, `_apply`.  gamma raises no series to
a power: with w = (1+v)^a - 1, it forms w^n digit by digit in base p,
each digit factor a signed sum of rows (`_w_power`), and for a
negative exponent -n inverts w^n once, known to the cap that n copies
of w multiplied together carry.  tau adds one row per t-column to the
terms that gamma fixes.  Below a finite cap, on the image w^n t^B,
tau's unit (1+u)^(cB) = (1+v)^(cB p^k) only shifts the exponents of
the last digit factor's rows, each still one row; it meets an inverse
of w^n, or an exact image, term by term.  Every row is added through
one kernel, `_add_row`, which also multiplies gamma's digit factors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import ring
from .errors import InsufficientGroupAccuracy, PrecisionRequired
from .ring import MONO_ONE, PerfSeries, min_prec

# (1 + x)^m has at most m+1 terms; refuse to expand huge exact powers.
EXACT_POWER_LIMIT = 100_000
# The most terms that the memo of Lucas rows keeps in all
ROW_BUDGET = 1 << 16
# The rows of (1+v)^m by (m mod p^N, k, p, cap, jmax), jmax None when
# exact, and the number of terms they hold together
_ROWS: dict[tuple, tuple] = {}
_row_terms = 0


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
    a positive one.  The nonzero binomials come from Lucas' theorem, and
    the terms are the memoized row of `_eps_terms` as it is.
    """
    m, k = ring.split_exponent(r, p, cap)
    bound = ring.key_bound(prec, p, cap)
    return PerfSeries(p, cap, bound, _eps_terms(m, k, p, cap, bound))


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


def _eps_terms(m: int, k: int, p: int, cap: int, bound: int | None) -> tuple:
    """The nonzero terms of (1+v)^m, v = u^(1/p^k), whose key lies below
    the key bound (None: all of them), with m reduced mod p^N as in
    `eps_pow`: a tuple of canonical ((key, A), C(m, j) mod p) terms, one
    per v^j = u^(j/p^k), ascending in j and so in key.

    The row depends on (m mod p^N, k, p, cap, jmax) alone, jmax the least
    j past the bound, so it is kept in `_ROWS` and expanded once per
    process.  `check_exact_power` runs before any lookup.  A row that
    would take the memo past `ROW_BUDGET` terms empties it first; a row
    longer than the budget is returned and not kept.
    """
    global _row_terms
    if bound is None:
        check_exact_power(m)
        jmax = None
    else:
        # v^j = u^(j/p^k) has key j * p^(cap-k) * p, below the bound
        # exactly when j < ceil(bound / p^(cap-k+1))
        jmax = max(0, -(-bound // p ** (cap - k + 1)))
        modulus = 1
        while modulus < jmax:
            modulus *= p
        m %= modulus
    key = (m, k, p, cap, jmax)
    row = _ROWS.get(key)
    if row is None:
        row = _lucas_row(m, k, p, cap, jmax)
        if len(row) <= ROW_BUDGET:
            if _row_terms + len(row) > ROW_BUDGET:
                _ROWS.clear()
                _row_terms = 0
            _ROWS[key] = row
            _row_terms += len(row)
    return row


def _lucas_row(m: int, k: int, p: int, cap: int, jmax: int | None) -> tuple:
    """The row of `_eps_terms`, expanded afresh for an m >= 0 already
    reduced, with the terms v^j for j < jmax (None: all of them).

    By Lucas' theorem these are the j whose base-p digits are each at
    most the matching digit of m, and C(m, j) is the product of the
    digit binomials.  Digits are added from the least significant up, so
    a partial j at or above jmax is final and can be dropped; each new
    digit i at place p^n puts j + i*p^n after every j < p^n, which keeps
    the j ascending.
    """
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
    # v^j = u^(j/p^k) has u units j * unit and key j * unit * p; each c
    # is a unit mod p, so the terms are already in canonical form
    unit = p ** (cap - k)
    return tuple(((j * unit * p, j * unit), c) for j, c in terms)


def _add_row(acc: dict, row, mono, coeff: int, bound: int | None) -> None:
    """Add coeff times each term of a row, shifted by the monomial mono =
    (key, A), into the accumulator acc, up to the first shifted key at or
    above the key bound (None: every term).  A row is an iterable of
    ((key, A), c) terms, ascending in key where a bound is given, as
    `_eps_terms` returns them or as a series holds them; acc's
    coefficients are left unreduced."""
    key, units = mono
    get = acc.get
    for (dkey, dunits), c in row:
        jkey = key + dkey
        if bound is not None and jkey >= bound:
            # the keys ascend: every later term lies at or above it too
            break
        m = (jkey, units + dunits)
        acc[m] = get(m, 0) + c * coeff


def eps_val_formula(m: int, p: int) -> Fraction:
    """Valuation of eps^m - 1: p^{v_p(m)} * p/(p-1), for m != 0."""
    return Fraction(p, p - 1) * p ** ring.vp(m, p)


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


def _apply(a: int, c: int, x: PerfSeries, eff) -> PerfSeries:
    """tau^c gamma_a on x below the key bound eff (None: exact), in one
    pass for every a and c.

    A term u^(m/p^k) t^B goes to w^m t^B (1+u)^(cB), with
    w = (1+v)^a - 1 and v = u^(1/p^k).  Below a cap, a term that gamma
    fixes (m = 0, or any term when a = 1) meets tau's row (1+u)^(cB) at
    once: the terms come sorted by key, so the row is looked up once per
    t-column, at the column's first term, which needs the most of it.
    For m > 0 below a cap, tau's unit rides in the last digit factor of
    w^m (`_w_power`), and no product of w^m is formed apart.  For
    m = -n < 0, w^n is inverted once, known to the cap that n copies of
    w multiplied together carry.  The inverses set the image's cap, so
    they are formed first, and every image is then kept only below that
    cap; each meets tau's row term by term once every term has been
    read.  On an exact x so does every term that tau moves: an exact w^m
    cannot take tau's unit, since on the finer root of u that a folded
    row would need its exponent could pass `EXACT_POWER_LIMIT` where
    neither factor's does, and gamma's refusals then all come before
    tau's, and tau's in the order of the columns' first keys, as they
    would with gamma's images formed first.  When no term moves, x
    itself is returned.
    """
    p, cap = x.p, x.cap
    bound = eff
    acc = {}
    # tau's row of each t-column, by cB; (t factor's key, coefficient,
    # cB, n, k) of each w^n; (shift, coefficient, cB, terms) of each
    # image that meets tau's row term by term; and the terms left alone
    columns, powers, moved = {}, [], []
    still = 0
    for m, co in x.terms:
        eu, et = ring.mono_units(m, p)
        cb = c * et
        if eu == 0 or a == 1:
            if not cb:
                acc[m] = acc.get(m, 0) + co
                still += 1
            elif eff is None:
                moved.append((m, co, cb, ((MONO_ONE, 1),)))
            else:
                row = columns.get(cb)
                if row is None:
                    mm, k = ring.lowest_terms(cb, p, cap)
                    row = columns[cb] = _eps_terms(mm, k, p, cap, eff - m[0])
                # v^j lands on the monomial shifted by its key and u units
                _add_row(acc, row, m, co, eff)
            continue
        mm, k = ring.lowest_terms(eu, p, cap)
        n = abs(mm)
        # the t^et factor, of key et * (p-1), is fixed
        t_key = et * (p - 1)
        target = None if eff is None else eff - t_key
        # w = (1+v)^a - 1 is known below target and leads with v, of key
        # kv, when kv < target; n copies of w multiplied together are
        # known below target + (n-1) * key0(w)
        kv = p ** (cap - k + 1)
        known = None if target is None else target + (n - 1) * min(kv, target)
        if target is None:
            # w^n has degree a*n in v; w has a tail (a != 1), so w^n has
            # one too, and its inverse has no finite expansion
            check_exact_power(a * n)
            if mm < 0:
                raise PrecisionRequired("inverting a unit with a tail needs a finite cap")
        if mm > 0 and (target is not None or not cb):
            powers.append((t_key, co, cb, n, k))
        else:
            # an exact image is added from its unreduced accumulator; a
            # negative exponent inverts w^n, which needs it below known
            wn = {}
            _w_power(wn, MONO_ONE, 1, a, n, k, p, cap, known)
            terms = wn.items()
            if mm < 0:
                f = ring.invert(ring.make_series(p, cap, wn, known), ring.bound_prec(target, p, cap))
                terms, known = f.terms, f.bound
            if not cb:
                _add_row(acc, terms, (t_key, 0), co, None)
            elif terms:
                moved.append(((t_key, 0), co, cb, terms))
        if known is not None:
            bound = min_prec(bound, known + t_key)
    if still == len(x.terms):
        # no term moves, and x is already cut at eff
        return x
    for t_key, co, cb, n, k in powers:
        # the image keeps w^n (1+u)^(cB) below the cap
        target = None if bound is None else bound - t_key
        _w_power(acc, (t_key, 0), co, a, n, k, p, cap, target, cb)
    for (key, units), co, cb, terms in moved:
        row = columns.get(cb)
        if row is None:
            # the images come in the order of their least keys, and the
            # column's first needs the most of the row.  A fixed term's
            # row, cut at target = eff - t_key, serves an inverse of w^n
            # in its column: that inverse is known at most to
            # target - (n+1) * kv, so it needs at most target - kv of it
            mm, k = ring.lowest_terms(cb, p, cap)
            top = None if bound is None else bound - key - terms[0][0][0]
            row = columns[cb] = _eps_terms(mm, k, p, cap, top)
        for (tkey, tunits), tco in terms:
            _add_row(acc, row, (key + tkey, units + tunits), co * tco, bound)
    return ring.make_series(p, cap, acc, bound)


def _w_power(
    acc: dict, mono, coeff: int, a: int, n: int, k: int, p: int, cap: int, bound, cb: int = 0
) -> None:
    """Add coeff times the terms of w^n (1+u)^(cb/p^cap), w = (1+v)^a - 1
    and v = u^(1/p^k), shifted by the monomial mono, into the accumulator
    acc, for an n > 0: the terms whose unshifted key lies below the key
    bound (None: all of them).  acc's coefficients are left unreduced.

    In characteristic p, w^n is the product over the base-p digits d of
    n, at place p^L, of w^(d p^L) = sum over i <= d of
    C(d, i) (-1)^(d-i) (1+v)^(a i p^L), a signed sum of rows each.  The
    last factor also absorbs tau's unit: (1+v)^(a i p^L) (1+u)^(cb/p^cap)
    is the one row of (1+u)^((a i p^L p^(cap-k) + cb) / p^cap), so
    nothing is multiplied by tau's row.  w^n leads with v^n, of key
    n * kv, and each factor with v^(d p^L), so a factor's terms, and
    each partial product's, are needed only up to the slack
    bound - n * kv above its own lead.  A factor whose next step
    v^((d+1) p^L) lies past that slack is the single term a^d v^(d p^L):
    below a cap only n's low digits give factors of more than one term.
    The last product goes straight into acc, and so do the rows of the
    one factor when n has a single nonzero digit.
    """
    kv = p ** (cap - k + 1)
    slack = None if bound is None else bound - n * kv
    if slack is not None and slack <= 0:
        return
    unit = p ** (cap - k)
    digits = []
    place = 1
    while n:
        n, d = divmod(n, p)
        if d:
            digits.append((d, place))
        place *= p
    part, lead = None, 0
    for d, place in digits:
        last = place == digits[-1][1]
        lead += d * place * kv
        rows_bound = None if slack is None else d * place * kv + slack
        # the last factor absorbs tau's unit, and its products, or its
        # rows when it is the only factor, go straight into acc
        out, shift, scale = (acc, mono, coeff) if last else ({}, MONO_ONE, 1)
        # the first factor is the product so far
        factor, fshift, fscale = (out, shift, scale) if part is None else ({}, MONO_ONE, 1)
        for i in range(d + 1):
            mi, ki = ring.lowest_terms(a * i * place * unit + (cb if last else 0), p, cap)
            row = _eps_terms(mi, ki, p, cap, rows_bound)
            _add_row(factor, row, fshift, fscale * math.comb(d, i) * (-1) ** (d - i), None)
        if part is not None:
            # the kernel stops at the bound only on a row ascending in key
            row = sorted((m, co % p) for m, co in factor.items() if co % p)
            key, units = shift
            top = None if slack is None else key + lead + slack
            for (mkey, munits), co in part.items():
                if co % p:
                    _add_row(out, row, (key + mkey, units + munits), scale * (co % p), top)
        part = out


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
    """`act` below the key bound of prec, converted once by the caller.

    A non-unit a is refused first, on any x, as a bad argument rather
    than a want of accuracy; every element then acts in one pass,
    `_apply`."""
    if g.a % x.p == 0:
        raise ValueError("gamma component must be a unit")
    eff = min_prec(x.bound, bound)
    _check_accuracy(g, x, eff)
    y = x.cut(eff)
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
    return _apply(a, c, y, eff).cut(agree)
