import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from tilted import galois, ring
from tilted.errors import InsufficientGroupAccuracy, PrecisionRequired, TiltedError

from conftest import series_strategy

P = 3
CAP = 6


def s(text):
    return ring.parse_series(text, P, CAP)


class TestGroupLaw:
    def test_semidirect_product(self):
        g = galois.compose(galois.tau(2), galois.gamma(4))
        h = galois.compose(galois.tau(5), galois.gamma(7))
        gh = galois.compose(g, h)
        assert (gh.c, gh.a) == (2 + 4 * 5, 28)

    def test_identity(self):
        g = galois.GroupElem(3, 4)
        assert galois.compose(g, galois.IDENTITY) == g
        assert galois.compose(galois.IDENTITY, g) == g

    def test_exact_inverse_for_unit_gamma(self):
        g = galois.tau(5)
        inv = galois.inverse(g, P)
        assert inv == galois.GroupElem(-5, 1)
        assert galois.compose(g, inv) == galois.IDENTITY

    def test_modular_inverse(self):
        g = galois.gamma(4)
        inv = galois.inverse(g, P, nacc=10)
        assert inv.nacc == 10
        assert (4 * inv.a) % P**10 == 1

    def test_conjugation_identity(self):
        a = 7
        conj = galois.compose(
            galois.compose(galois.gamma(a), galois.tau(1)),
            galois.inverse(galois.gamma(a), P),
        )
        assert conj.c % P**conj.nacc == a
        assert conj.a % P**conj.nacc == 1


class TestEpsPow:
    def test_integer_exponent(self):
        assert galois.eps_pow(3, P) == s("1+u^{3}")
        assert galois.eps_pow(4, P) == s("1+u+u^{3}+u^{4}")

    def test_fractional_exponent(self):
        assert galois.eps_pow(Fraction(1, 3), P) == s("1+u^{1/3}")

    def test_negative_needs_cap(self):
        with pytest.raises(PrecisionRequired):
            galois.eps_pow(-1, P)
        x = galois.eps_pow(-1, P, prec=4)
        assert ring.eq_to_prec(x * s("1+u"), ring.one(P))

    def test_valuation_formula(self):
        one = ring.one(P)
        for m in (1, 2, 3, 6, 9, 12, 27):
            got = (galois.eps_pow(m, P) - one).val()
            assert got == galois.eps_val_formula(m, P)

    def test_group_hom(self):
        lhs = galois.eps_pow(Fraction(4, 3), P)
        rhs = galois.eps_pow(1, P) * galois.eps_pow(Fraction(1, 3), P)
        assert lhs == rhs


class TestAction:
    def test_gamma_on_u(self):
        got = galois.act(galois.gamma(4), ring.u_var(P))
        assert got == galois.eps_pow(4, P) - ring.one(P)

    def test_gamma_fixes_t(self):
        t = ring.t_var(P)
        assert galois.act(galois.gamma(7), t) == t

    def test_tau_on_t(self):
        got = galois.act(galois.tau(1), ring.t_var(P))
        assert got == galois.eps_pow(1, P) * ring.t_var(P)

    def test_tau_fixes_u(self):
        u = ring.u_var(P)
        assert galois.act(galois.tau(2), u) == u

    def test_tau_orbit_valuation(self):
        t13 = ring.monomial(P, CAP, 1, 0, Fraction(1, 3))
        d = galois.act(galois.tau(9), t13) - t13
        assert d.val() == Fraction(27, 2) / 3 + Fraction(1, 3)

    def test_accuracy_guard(self):
        g = galois.inverse(galois.gamma(4), P, nacc=2)
        x = ring.monomial(P, CAP, 1, Fraction(1, 9), 0, 20)
        with pytest.raises(InsufficientGroupAccuracy):
            galois.act(g, x, 20)

    @pytest.mark.parametrize("text", ["u*t", "u*t + O(5)"])
    def test_non_unit_gamma_is_refused_first(self, text):
        # a non-unit a is a bad argument (exit 3) on any x: it is refused
        # before the element's accuracy is weighed, which would make an
        # approximate element on an exact x inconclusive (exit 2)
        x = s(text)
        for g in (galois.GroupElem(0, 3, 2), galois.GroupElem(1, 6), galois.GroupElem(2, -9, 0)):
            with pytest.raises(ValueError, match="gamma component must be a unit"):
                galois.act(g, x)
            with pytest.raises(ValueError, match="gamma component must be a unit"):
                galois.act(g, x, 20)

    def test_accurate_enough(self):
        deep = galois.inverse(galois.gamma(4), P, nacc=24)
        x = ring.monomial(P, CAP, 1, Fraction(1, 9), 0, 20)
        y = galois.act(deep, x, 20)
        restored = galois.act(galois.gamma(4), y, 20)
        assert ring.eq_to_prec(restored, x)


@settings(max_examples=30, deadline=None)
@given(series_strategy(prec=Fraction(15)))
def test_action_is_isometric(x):
    for g in (galois.tau(2), galois.gamma(4), galois.GroupElem(1, 7)):
        y = galois.act(g, x, 15)
        assert y.val_floor() == x.val_floor()


@settings(max_examples=25, deadline=None)
@given(series_strategy(prec=Fraction(12)), series_strategy(prec=Fraction(12)))
def test_action_is_ring_hom(x, y):
    g = galois.GroupElem(2, 4)
    lhs = galois.act(g, x * y, 12)
    rhs = (galois.act(g, x, 12) * galois.act(g, y, 12)).truncate(12)
    assert ring.eq_to_prec(lhs, rhs)


def _eps_pow_reference(m, k, p, prec):
    """(1 + u^(1/p^k))^m to O(prec) the slow way: every binomial of a
    positive power, and a geometric-series inversion for a negative one."""
    if m < 0:
        return ring.invert(_eps_pow_reference(-m, k, p, prec), prec)
    v_val = Fraction(p, p - 1) / p**k
    acc = ring.zero(p, CAP, prec)
    for j in range(m + 1):
        if j * v_val >= prec:
            break
        acc = acc + ring.monomial(p, CAP, math.comb(m, j) % p, Fraction(j, p**k), 0)
    return acc


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_eps_pow_matches_inversion(p):
    rng = random.Random(p)
    for _ in range(40):
        k = rng.randint(0, 3)
        m = rng.randint(-200, 200)
        # at most ~30 terms below the cap keeps the inversion cheap; the
        # offset puts the cap on and off a term's valuation
        prec = Fraction(rng.randint(1, 30) * p, (p - 1) * p**k) + rng.choice([0, Fraction(1, 7)])
        want = _eps_pow_reference(m, k, p, prec)
        got = galois.eps_pow(Fraction(m, p**k), p, CAP, prec)
        assert (str(got), got.prec) == (str(want), want.prec), (m, k, prec)


def test_eps_pow_exact_matches_binomials():
    for p in (2, 3, 5, 7):
        for m in (0, 1, p - 1, p, p + 1, 2 * p * p - 1, 200):
            want = _eps_pow_reference(m, 1, p, Fraction(10**6))
            got = galois.eps_pow(Fraction(m, p), p, CAP)
            assert got.prec is None
            assert got.terms == want.terms


def _random_series(rng, p, prec, kmax):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        eu = Fraction(rng.randint(-2, 4), p ** rng.randint(0, kmax))
        et = Fraction(rng.randint(-3, 5), p ** rng.randint(0, kmax))
        terms[(eu, et)] = rng.randint(1, p - 1)
    return [ring.monomial(p, CAP, c, eu, et, prec) for (eu, et), c in terms.items()]


@pytest.mark.parametrize("p, kmax", [(2, 2), (3, 2), (5, 1)])
def test_act_is_sum_of_single_term_actions(p, kmax):
    # kmax = 1 at p = 5: gamma on u^(-1/25) inverts a dense 160-term
    # series at these caps, which takes seconds
    rng = random.Random(10 + p)
    for _ in range(25):
        xprec = rng.choice([None, Fraction(rng.randint(4, 14))])
        parts = _random_series(rng, p, xprec, kmax)
        x = ring.zero(p, CAP, xprec)
        for part in parts:
            x = x + part
        a = rng.choice([1, -1, p + 1, 2 * p - 1])
        g = galois.GroupElem(rng.randint(-3, 3), a)
        prec = rng.choice([None, Fraction(rng.randint(3, 12))])
        try:
            got = galois.act(g, x, prec)
        except PrecisionRequired:
            continue
        want = ring.zero(p, CAP, ring.min_prec(xprec, prec))
        for part in parts:
            want = want + galois.act(g, part, prec)
        assert (str(got), got.prec) == (str(want), want.prec), (g, str(x), prec)


def test_composite_action_keeps_gamma_precision_loss():
    # gamma_5 on u^(-1/3) inverts a series and loses precision; tau must
    # not claim more than gamma's image is known to
    x = s("u^{-1/3}*t^{2}")
    g = galois.GroupElem(1, 5)
    got = galois.act(g, x, 6)
    assert got.prec == 5
    assert ring.eq_to_prec(got, galois.act(g, x, 30))


@pytest.mark.parametrize("p", [1, 0])
def test_eps_pow_rejects_p_below_two(p):
    # p = 1 used to spin in the exponent-normalising loop
    with pytest.raises(ValueError):
        galois.eps_pow(1, p, CAP, 5)


def _conjugate(a, p):
    """gamma_a tau gamma_a^-1, known as (a, a * a^-1) mod p^24."""
    return galois.compose(
        galois.compose(galois.gamma(a), galois.tau(1)), galois.inverse(galois.gamma(a), p)
    )


def _act_view(g, x, prec):
    try:
        y = galois.act(g, x, prec)
    except PrecisionRequired as exc:
        return f"PrecisionRequired: {exc}"
    return str(y), y.prec


def test_conjugate_keeps_tau_cap():
    # a gamma pass over u^-1 * t would invert a series and leave O(7)
    x = s("u^{-1}*t + u^{1/3} + O(10)")
    got = galois.act(_conjugate(2, P), x)
    assert got.prec == 10
    assert (str(got), got.prec) == _act_view(galois.tau(2), x, None)


def test_approximate_element_is_cut_where_representatives_part():
    # a = 11 * 2^-1 is known mod 3^2 as 55 = 1 mod 9: the least
    # representative skips gamma, and the true gamma_{11/2} moves u^-2 by
    # 2 * u^6, of valuation 9 below the input's cap
    g = galois.compose(galois.gamma(11), galois.inverse(galois.gamma(2), P, nacc=2))
    assert (g.a, g.nacc) == (55, 2)
    got = galois.act(g, s("u^{-2} + O(10)"))
    true = galois.act(galois.gamma(11 * pow(2, -1, P**24)), s("u^{-2} + O(20)"))
    assert str(true).startswith("u^{-2} + 2*u^{6} + ")
    assert str(got) == "u^{-2} + O(9)"
    assert ring.eq_to_prec(got, true)
    # a negative t exponent: c = 12 and 120, a = 46 and 154 agree mod 3^3,
    # and part at 2 * u^{8/3} * t^{-2/3}, of valuation 10/3
    x = s("u^{-2/9}*t^{-2/3} + t^{3} + O(4)")
    got = galois.act(galois.GroupElem(12, 46, 3), x)
    assert got.prec == Fraction(10, 3)
    for c, a in ((12, 46), (120, 154)):
        assert ring.eq_to_prec(got, galois.act(galois.GroupElem(c, a), x))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_representatives_agree_below_the_cap(p):
    # an element known mod p^N answers what every representative answers,
    # on negative u and t exponents too
    rng = random.Random(7000 + p)
    compared = 0
    for _ in range(120):
        x = ring.zero(p, CAP, Fraction(rng.randint(3, 14)))
        # roots u^(1/p^2) at p >= 5 make gamma invert series of hundreds
        # of terms, as in test_act_is_sum_of_single_term_actions
        for part in _random_series(rng, p, None, 2 if p < 5 else 1):
            x = x + part
        n = rng.randint(0, 4)
        c, a = rng.randint(-5, 30), rng.choice([b for b in range(1, 60) if b % p])
        b = a + p**n * rng.randint(0, 9)
        other = galois.GroupElem(c + p**n * rng.randint(-3, 9), b if b % p else b + p**n)
        try:
            got, want = galois.act(galois.GroupElem(c, a, n), x), galois.act(other, x)
        except TiltedError:
            # N too small for the cap, or a cap too low for gamma's inversion
            continue
        compared += 1
        assert ring.eq_to_prec(got, want), (c, a, n, other, str(x))
    assert compared > 30


def test_gamma_refuses_an_exact_row_past_the_limit(monkeypatch):
    # gamma_a on an exact u^n forms w^n, of degree a * n in v, from the
    # rows (1+v)^(a*j), j up to n, so it is answered exactly when a * n is
    # within the exact-power limit, and the refusal names (1+u)^(a*n)
    monkeypatch.setattr(galois, "EXACT_POWER_LIMIT", 40)
    w = galois.act(galois.gamma(4), ring.u_var(P))
    w10 = math.prod([w] * 10, start=ring.one(P))
    assert galois.act(galois.gamma(4), s("u^{10}")) == w10
    for a, x, power in [
        (4, "u^{11}", 44),
        # the refusal names a * n, not the first row past the limit, 5 * 9
        (5, "u^{10}", 50),
        (4, "u^{11/9}*t", 44),
        (4, "t + u^{-11}", 44),
        (41, "u", 41),
    ]:
        with pytest.raises(PrecisionRequired, match=rf"^exact expansion of \(1\+u\)\^{power} is"):
            galois.act(galois.gamma(a), s(x))
    # a capped u^n obeys no such limit
    got = galois.act(galois.gamma(4), s("u^{11} + O(30)"))
    assert got.prec == 30 and ring.eq_to_prec(got, w10 * w)
    # within the limit a negative exponent is refused as the inversion
    # would refuse it, before any row is looked up or expanded
    monkeypatch.setattr(galois, "_eps_terms", None)
    with pytest.raises(PrecisionRequired, match="^inverting a unit with a tail needs a finite cap$"):
        galois.act(galois.gamma(4), s("u^{-10}"))
