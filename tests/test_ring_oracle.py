"""The integer-exponent ring core against a slow Fraction oracle.

The oracle keeps a series as a {(eu, et): coeff} dict with `Fraction`
exponents, computes every valuation as a `Fraction`, and sorts by
(val, eu, et): the representation the ring used before exponents became
ints scaled by p^cap.  Each operation compares the canonical text and
the precision cap.
"""

import math
import random
from fractions import Fraction

import pytest

from tilted import ring
from tilted.errors import CapExceeded, NonDominantLeading, PrecisionRequired, ZeroDivisor


def _val(m, p):
    eu, et = m
    return eu * Fraction(p, p - 1) + et


def _min_prec(a, b):
    return b if a is None else a if b is None else min(a, b)


class O:
    """An oracle series over F_p with Fraction exponents."""

    def __init__(self, p, cap, terms, prec=None):
        self.p, self.cap = p, cap
        self.prec = None if prec is None else Fraction(prec)
        self.terms = {}
        for m, c in terms.items():
            for e in m:
                if e.denominator > p**cap:
                    raise CapExceeded(f"{e} beyond p^{cap}")
            if c % p and (self.prec is None or _val(m, p) < self.prec):
                self.terms[m] = c % p

    def order(self):
        return sorted(self.terms, key=lambda m: (_val(m, self.p), m[0], m[1]))

    def floor(self):
        if self.terms:
            return _val(self.order()[0], self.p)
        return self.prec

    def __str__(self):
        parts = []
        for eu, et in self.order():
            c = self.terms[(eu, et)]
            atoms = [
                name if e == 1 else f"{name}^{{{e}}}"
                for name, e in (("u", eu), ("t", et))
                if e != 0
            ]
            if not atoms:
                parts.append(str(c))
            else:
                parts.append(("" if c == 1 else f"{c}*") + "*".join(atoms))
        if self.prec is not None:
            parts.append(f"O({self.prec})")
        return " + ".join(parts) or "0"

    def like(self, terms, prec):
        return O(self.p, self.cap, terms, prec)

    def __add__(self, other):
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return self.like(acc, _min_prec(self.prec, other.prec))

    def __neg__(self):
        return self.like({m: -c for m, c in self.terms.items()}, self.prec)

    def __mul__(self, other):
        def contrib(x, prec):
            v = x.floor()
            return None if prec is None or v is None else v + prec

        acc = {}
        for (u1, t1), c1 in self.terms.items():
            for (u2, t2), c2 in other.terms.items():
                m = (u1 + u2, t1 + t2)
                acc[m] = acc.get(m, 0) + c1 * c2
        prec = _min_prec(contrib(self, other.prec), contrib(other, self.prec))
        return self.like(acc, prec)

    def shift(self, m, c):
        prec = None if self.prec is None else self.prec + _val(m, self.p)
        terms = {(eu + m[0], et + m[1]): a * c for (eu, et), a in self.terms.items()}
        return self.like(terms, prec)

    def truncate(self, prec):
        return self.like(self.terms, _min_prec(self.prec, prec))

    def frobenius(self):
        p = self.p
        terms = {(eu * p, et * p): c for (eu, et), c in self.terms.items()}
        return self.like(terms, None if self.prec is None else self.prec * p)

    def frobenius_inv(self):
        p = self.p
        terms = {(eu / p, et / p): c for (eu, et), c in self.terms.items()}
        return self.like(terms, None if self.prec is None else self.prec / p)

    def invert(self, prec=None):
        if not self.terms:
            if self.prec is None:
                raise ZeroDivisor("the exact zero")
            raise PrecisionRequired("no term known below the cap")
        order = self.order()
        lead = order[0]
        lead_v = _val(lead, self.p)
        if len(order) > 1 and _val(order[1], self.p) == lead_v:
            raise NonDominantLeading("tied leading terms")
        inv_m = (-lead[0], -lead[1])
        inv_c = pow(self.terms[lead], -1, self.p)
        determined = None if self.prec is None else self.prec - 2 * lead_v
        target = _min_prec(determined, None if prec is None else Fraction(prec))
        tail = self.like({m: c for m, c in self.terms.items() if m != lead}, self.prec)
        if not tail.terms and tail.prec is None:
            return self.like({inv_m: inv_c}, target)
        if target is None:
            raise PrecisionRequired("needs a cap")
        top = target + lead_v
        y = tail.shift(inv_m, inv_c).truncate(top)
        one = self.like({(Fraction(0), Fraction(0)): 1}, top)
        acc, power = one, one
        if y.floor() is not None:
            j_v = Fraction(0)
            while j_v < top:
                power = (power * -y).truncate(top)
                if not power.terms:
                    break
                acc = acc + power
                j_v += y.floor()
        return acc.shift(inv_m, inv_c).truncate(target)


def _random(rng, p, cap, deep=False):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        ku = rng.randint(0, cap if deep else min(cap, 2))
        kt = rng.randint(0, cap if deep else min(cap, 2))
        m = (Fraction(rng.randint(-2, 6), p**ku), Fraction(rng.randint(-3, 6), p**kt))
        terms[m] = terms.get(m, 0) + rng.randrange(1, p)
    prec = Fraction(rng.randint(1, 16), rng.choice([1, 2, p])) if rng.random() < 0.5 else None
    return O(p, cap, terms, prec)


def _lib(x: O):
    """The library series with the oracle's terms, through the parser."""
    y = ring.parse_series(str(x), x.p, x.cap)
    assert str(y) == str(x) and y.prec == x.prec
    return y


def _same(got, want):
    assert str(got) == str(want)
    assert got.prec == want.prec


def _outcome(fn):
    try:
        return fn()
    except (CapExceeded, NonDominantLeading, PrecisionRequired, ZeroDivisor) as exc:
        return type(exc)


CASES = [(p, cap) for p in (2, 3, 5, 7) for cap in (2, 6)]


@pytest.mark.parametrize("p,cap", CASES)
def test_against_fraction_oracle(p, cap):
    rng = random.Random(f"oracle-{p}-{cap}")
    for _ in range(30):
        x, y = _random(rng, p, cap), _random(rng, p, cap)
        lx, ly = _lib(x), _lib(y)
        _same(lx * ly, x * y)
        _same(lx + ly, x + y)
        _same(lx - ly, x + -y)
        _same(ring.frobenius(lx), x.frobenius())
        prec = Fraction(rng.randint(-4, 12), rng.choice([1, 2]))
        _same(lx.truncate(prec), x.truncate(prec))
        # a small gap between the two lowest valuations makes the
        # geometric series long, so the inversion target stays low
        inv_prec = Fraction(rng.randint(-4, 8), 2) if rng.random() < 0.8 else None
        got = _outcome(lambda: ring.invert(lx, inv_prec))
        want = _outcome(lambda: x.invert(inv_prec))
        if isinstance(want, O):
            _same(got, want)
        else:
            assert got is want


@pytest.mark.parametrize("p,cap", CASES)
def test_frobenius_inv_against_oracle(p, cap):
    rng = random.Random(f"frobinv-{p}-{cap}")
    raised = 0
    for _ in range(30):
        x = _random(rng, p, cap, deep=True)
        got = _outcome(lambda: ring.frobenius_inv(_lib(x)))
        want = _outcome(x.frobenius_inv)
        if isinstance(want, O):
            _same(got, want)
        else:
            assert got is want is CapExceeded
            raised += 1
    assert raised  # the cap check is exercised


# caps off the key lattice at some of the primes
OFF_LATTICE = (Fraction(1, 7), Fraction(2, 5), Fraction(3, 11))


def _random_off(rng, p, cap):
    x = _random(rng, p, cap)
    if x.prec is None:
        return x
    return x.like(x.terms, rng.randint(0, 8) + rng.choice(OFF_LATTICE))


def _sharpened(got, want, bound=None):
    """got has want's terms, and its cap is want's rounded up to the key
    lattice, bound = ceil(prec * (p-1) * p^cap), or the given bound when
    that is sharper."""
    p, cap = want.p, want.cap
    scale = p**cap
    units = {ring.mono_units(m, p): c for m, c in got.terms}
    assert {(Fraction(a, scale), Fraction(b, scale)): c for (a, b), c in units.items()} == want.terms
    if want.prec is None:
        assert got.bound is None
    else:
        ceil = math.ceil(want.prec * (p - 1) * scale)
        assert got.bound == (ceil if bound is None else bound)
        assert got.bound >= ceil and got.prec >= want.prec


@pytest.mark.parametrize("p,cap", CASES)
def test_off_lattice_caps_against_oracle(p, cap):
    rng = random.Random(f"off-lattice-{p}-{cap}")
    for _ in range(30):
        x, y = _random_off(rng, p, cap), _random_off(rng, p, cap)
        lx, ly = ring.parse_series(str(x), p, cap), ring.parse_series(str(y), p, cap)
        _sharpened(lx, x)
        # O(a) * O(b) is known below K_a + K_b >= ceil(a + b)
        both = None if lx.terms or ly.terms or None in (lx.bound, ly.bound) else lx.bound + ly.bound
        _sharpened(lx * ly, x * y, both)
        _sharpened(lx + ly, x + y)
        _sharpened(lx - ly, x + -y)
        m = (Fraction(rng.randint(-3, 3), p), Fraction(rng.randint(-3, 3), p**2))
        _sharpened(lx.mono_shift(ring.mono_of(m[0] * p**cap, m[1] * p**cap, p)), x.shift(m, 1))
        prec = rng.randint(-2, 8) + rng.choice(OFF_LATTICE)
        _sharpened(lx.truncate(prec), x.truncate(prec))
        _sharpened(ring.zero(p, cap, prec), x.like({}, prec))
        # Frobenius multiplies the bound by p, at least ceil(p*prec*...)
        _sharpened(ring.frobenius(lx), x.frobenius(), None if lx.bound is None else p * lx.bound)
        got = _outcome(lambda: ring.frobenius_inv(lx))
        want = _outcome(x.frobenius_inv)
        if isinstance(want, O):
            _sharpened(got, want)
        else:
            assert got is want is CapExceeded
        inv_prec = rng.randint(-4, 8) + rng.choice(OFF_LATTICE) if rng.random() < 0.8 else None
        got = _outcome(lambda: ring.invert(lx, inv_prec))
        want = _outcome(lambda: x.invert(inv_prec))
        if isinstance(want, O):
            _sharpened(got, want)
        else:
            assert got is want


def test_sort_key_matches_valuation_order():
    # four monomials of valuation 1, ordered by their u exponent
    p = 3
    f = Fraction
    x = O(p, 6, {(f(2, 3), f(0)): 1, (f(0), f(1)): 2, (f(4, 9), f(1, 3)): 1, (f(-2, 3), f(2)): 1})
    _same(_lib(x), x)
    assert str(_lib(x)) == "u^{-2/3}*t^{2} + 2*t + u^{4/9}*t^{1/3} + u^{2/3}"


def test_precision_threshold_is_exact():
    # a term exactly at the cap is dropped, one just below is kept
    p, cap = 5, 2
    x = ring.monomial(p, cap, 1, Fraction(4, 25), 0)  # val 1/5
    assert x.truncate(Fraction(1, 5)).is_zero()
    assert not x.truncate(Fraction(1, 5) + Fraction(1, 10**9)).is_zero()


def test_mono_val_reads_ints():
    assert ring.mono_of(3, -9, 3) == (-9, 3)
    assert ring.mono_units((-9, 3), 3) == (3, -9)
    assert ring.mono_val((-9, 3), 3, 2) == Fraction(1, 2) - 1
    assert ring.lowest_terms(18, 3, 4) == (2, 2)
    assert ring.exponent_units(Fraction(2, 9), 3, 4) == 18
