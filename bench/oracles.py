"""Precision-independent reference values for the benchmark's oracles.

Everything here works on plain dictionaries ``{(eu, et): coeff}`` of
``Fraction`` exponents, never on the library's series type, so that a
reference cannot share a defect with the code it checks.  Results of the
library are compared against these references only below a fixed floor,
so a change that sharpens the library's O(.) caps still
passes, while a result known to less than the floor fails as vacuous.
"""

from __future__ import annotations

from fractions import Fraction


def cp(p):
    """val(u) = p/(p-1)."""
    return Fraction(p, p - 1)


def mono_val(eu, et, p):
    return eu * cp(p) + et


def vp(q, p):
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    num, den, v = abs(q.numerator), q.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def denominator_exponent(q, p):
    """k with denominator(q) = p^k."""
    den, k = Fraction(q).denominator, 0
    while den % p == 0:
        den //= p
        k += 1
    return k


def _fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def to_text(terms, prec=None):
    """The series literal of a term dictionary, in the library's grammar."""
    parts = []
    for (eu, et), c in terms.items():
        atoms = [f"{name}^{{{_fmt(e)}}}" for name, e in (("u", eu), ("t", et)) if e != 0]
        parts.append("*".join([str(c)] + atoms))
    if prec is not None:
        parts.append(f"O({_fmt(prec)})")
    return " + ".join(parts) if parts else "0"


def from_text(text):
    """(terms, prec) of a canonical series literal such as
    "2*u^{1/3}*t^{-1} + t + O(20)"; prec is None for an exact series."""
    terms, prec = {}, None
    if text == "0":
        return terms, prec
    for part in text.split(" + "):
        if part.startswith("O("):
            prec = Fraction(part[2:-1])
            continue
        coeff, eu, et = 1, Fraction(0), Fraction(0)
        for atom in part.split("*"):
            if atom[0] == "u":
                eu = Fraction(atom[3:-1]) if "^" in atom else Fraction(1)
            elif atom[0] == "t":
                et = Fraction(atom[3:-1]) if "^" in atom else Fraction(1)
            else:
                coeff = int(atom)
        terms[(eu, et)] = coeff
    return terms, prec


def add_term(acc, key, c, p):
    c = (acc.get(key, 0) + c) % p
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def poly_mul(a, b, p, below):
    """Product of two dictionaries {u-exponent: coeff}, keeping the terms
    with u-valuation < below."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if (ea + eb) * cp(p) < below:
                add_term(out, ea + eb, ca * cb, p)
    return out


# -- the tau action in closed form -------------------------------------


def binom_mod(m, j, p):
    """C(m, j) mod p by Lucas' theorem, for m, j >= 0."""
    result = 1
    while j:
        mi, ji = m % p, j % p
        if ji > mi:
            return 0
        num = den = 1
        for s in range(ji):
            num = num * (mi - s) % p
            den = den * (s + 1) % p
        result = result * num * pow(den, -1, p) % p
        m, j = m // p, j // p
    return result


def eps_terms(r, p, below):
    """Terms u^e -> coeff of (1+u)^r with valuation < below, r in Z[1/p].

    With v = u^(1/p^k) and r = m/p^k, (1+v)^(p^N) = 1 + v^(p^N) in
    characteristic p, so a negative m may be replaced by m mod p^N once
    v^(p^N) lies beyond ``below``.
    """
    r = Fraction(r)
    k = denominator_exponent(r, p)
    m = r.numerator
    step = cp(p) / p**k
    if m < 0:
        n = 0
        while p**n * step < below:
            n += 1
        m %= p**n
    out = {}
    j = 0
    while j <= m and j * step < below:
        c = binom_mod(m, j, p)
        if c:
            out[Fraction(j, p**k)] = c
        j += 1
    return out


def gamma_image(terms, a, p, below):
    """gamma_a applied to sum coeff u^e t^b with e >= 0: u^(m/p^k) becomes
    ((1 + u^(1/p^k))^a - 1)^m, t is fixed; terms of valuation < below."""
    out = {}
    for (eu, et), coeff in terms.items():
        if eu == 0:
            if et < below:
                add_term(out, (eu, et), coeff, p)
            continue
        k = denominator_exponent(eu, p)
        m = int(eu * p**k)
        room = below - et
        w = {e: c for e, c in eps_terms(Fraction(a, p**k), p, room).items() if e != 0}
        power = {Fraction(0): 1}
        for _ in range(m):
            power = poly_mul(power, w, p, room)
        for e, c in power.items():
            add_term(out, (e, et), coeff * c, p)
    return out


def tau_image(terms, c, p, below):
    """tau^c applied to sum coeff u^a t^b, i.e. sum coeff u^a t^b (1+u)^(c b),
    keeping the terms of valuation < below."""
    out = {}
    for (eu, et), coeff in terms.items():
        v0 = mono_val(eu, et, p)
        if v0 >= below:
            continue
        if et == 0 or c == 0:
            add_term(out, (eu, et), coeff, p)
            continue
        for e, b in eps_terms(c * et, p, below - v0).items():
            add_term(out, (eu + e, et), coeff * b, p)
    return out


# -- continuity margins of pure-t polynomials ---------------------------


def tpoly_levels(terms, k, i_max, p):
    """val((g-1)x) for g = tau^(m p^(k+i)), p coprime to m, and x a pure-t
    polynomial: min over moving terms t^r of p/(p-1) p^(k+i+v_p(r)) + r.
    Distinct r give distinct leading monomials, so nothing cancels."""
    moving = [et for (_, et) in terms if et != 0]
    return [
        min(cp(p) * Fraction(p) ** (k + i + vp(r, p)) + r for r in moving)
        for i in range(i_max + 1)
    ]


def fit(levels, p):
    """(p^lambda, mu, consistent) from v_{i+1} - v_i = p^lambda p^i (p-1)."""
    cands = [
        Fraction(levels[i + 1] - levels[i], p**i * (p - 1)) for i in range(len(levels) - 1)
    ]
    return cands[0], levels[0] - cands[0], all(c == cands[0] for c in cands)


def ppow_sign(q, s, v, p):
    """Sign of q p^s - v for rationals q > 0, s and v."""
    v = Fraction(v)
    if v <= 0:
        return 1
    a, b = Fraction(s).numerator, Fraction(s).denominator
    lhs = Fraction(q) ** b * Fraction(p) ** a
    rhs = v**b
    return (lhs > rhs) - (lhs < rhs)


def sound_verdicts(levels, prec, plam, mu, p, k, cap):
    """The statuses of the level test on x = (known part) + O(prec) that
    are not wrong, given the true margins ``levels`` of the known part.

    An unknown tail term of valuation >= prec, with exponent denominators
    dividing p^cap, moves by at least p/(p-1) p^(k+i-cap) under a level-i
    element, so at level i every completion has margin >= min(v_i, T_i)
    with T_i = prec + p/(p-1) p^(k+i-cap), and margins v_i < T_i are
    certain.  INCONCLUSIVE is always honest.
    """
    fail = undecided = False
    for i, v in enumerate(levels):
        bound = plam * p**i + mu
        tail = None if prec is None else prec + cp(p) * Fraction(p) ** (k + i - cap)
        if tail is None or v < tail:
            fail = fail or bound > v
        elif bound > tail:
            undecided = True
    if fail:
        return {"fail", "inconclusive"}
    if undecided:
        return {"inconclusive"}
    return {"pass", "inconclusive"}


def refutation(levels, q, s, p):
    """(refuted, first_decrease) for exponent q p^s: margins decrease
    strictly from level 0 on and at a worsening rate."""
    n = len(levels) - 1
    first = None
    strict = True
    for i in range(n):
        if ppow_sign(q * (p - 1), s + i, levels[i + 1] - levels[i], p) > 0:
            first = i if first is None else first
        else:
            strict = False
    worsening = all(
        ppow_sign(q * (p - 1) ** 2, s + i, levels[i + 2] - 2 * levels[i + 1] + levels[i], p) >= 0
        for i in range(n - 1)
    )
    return strict and worsening and first == 0, first


# -- Newton polygons of Kummer steps -------------------------------------


def kummer_slope(p, e_k, n):
    """-i_n / p^n with i_n = e_K p^n/(p-1) + 1/p."""
    return -(Fraction(e_k * p**n, p - 1) + Fraction(1, p)) / p**n
