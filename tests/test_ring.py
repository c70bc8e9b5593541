from fractions import Fraction

import pytest
from hypothesis import given, settings

from tilted import galois, ring
from tilted.errors import (
    CapExceeded,
    NonDominantLeading,
    ParseError,
    PrecisionRequired,
    ZeroDivisor,
)

from conftest import series_strategy

P = 3
CAP = 6


def s(text, p=P, cap=CAP):
    return ring.parse_series(text, p, cap)


class TestValuation:
    def test_u_and_t(self):
        assert ring.u_var(P).val() == Fraction(3, 2)
        assert ring.t_var(P).val() == 1

    def test_mixed_monomial(self):
        x = ring.monomial(P, CAP, 1, Fraction(1, 3), Fraction(-2))
        assert x.val() == Fraction(1, 2) - 2

    def test_zero_val(self):
        assert ring.zero(P).val() is None
        assert ring.zero(P, CAP, 5).val_floor() == 5

    def test_min_of_terms(self):
        assert s("t^{3}+u").val() == Fraction(3, 2)


class TestArithmetic:
    def test_char_p(self):
        x = ring.t_var(P)
        assert (x + x + x).is_zero()

    def test_freshman_dream(self):
        x = s("1+u")
        assert x**3 == s("1+u^{3}")

    def test_mul_precision_rule(self):
        x = s("t+O(5)")
        y = s("t^{2}+O(4)")
        z = x * y
        # min(val(x)+prec(y), val(y)+prec(x)) = min(1+4, 2+5) = 5
        assert z.prec == 5
        assert z.val() == 3

    def test_add_precision_rule(self):
        assert (s("t+O(5)") + s("t^{2}+O(3)")).prec == 3

    def test_truncate_drops_terms(self):
        x = s("t+t^{4}").truncate(3)
        assert x == s("t+O(3)")


class TestFrobenius:
    def test_scales_exponents(self):
        assert ring.frobenius(s("t+u")) == s("t^{3}+u^{3}")

    def test_inverse_roundtrip(self):
        x = s("t^{1/3}+u")
        assert ring.frobenius_inv(ring.frobenius(x)) == x

    def test_cap_exceeded(self):
        x = ring.monomial(P, CAP, 1, 0, Fraction(1, P**CAP))
        with pytest.raises(CapExceeded):
            ring.frobenius_inv(x)

    def test_is_ring_map_on_sample(self):
        x, y = s("1+t"), s("u+t^{2}")
        assert ring.frobenius(x * y) == ring.frobenius(x) * ring.frobenius(y)


class TestInvert:
    def test_geometric_series(self):
        inv = ring.invert(s("1+t"), 4)
        assert inv == s("1+2*t+t^{2}+2*t^{3}+O(4)")

    def test_unit_times_inverse_is_one(self):
        x = s("t^{-1}+1+u")
        prod = x * ring.invert(x, 6)
        assert ring.eq_to_prec(prod, ring.one(P))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            ring.invert(ring.zero(P), 5)

    @pytest.mark.parametrize("text", ["O(2)", "O(-1)"])
    def test_vanished_to_precision_is_inconclusive(self, text):
        # nothing is known below the cap, which is not the exact zero
        with pytest.raises(PrecisionRequired, match="no known term below"):
            ring.invert(s(text), 5)

    def test_tied_leading_terms(self):
        # u^3 and t^2 t^{5/2}: craft a tie at valuation 2: t^2 vs u^{4/3}
        x = ring.monomial(P, CAP, 1, 0, 2) + ring.monomial(P, CAP, 1, Fraction(4, 3), 0)
        with pytest.raises(NonDominantLeading):
            ring.invert(x, 5)

    def test_exact_tail_needs_cap(self):
        with pytest.raises(PrecisionRequired):
            ring.invert(s("1+t"))

    def test_determined_precision(self):
        # prec(x) - 2 val(x) for x = t + O(5)
        assert ring.invert(s("t+t^{2}+O(5)")).prec == 3


class TestParseFormat:
    @pytest.mark.parametrize(
        "text",
        ["0", "1", "t", "2*u^{1/3}*t^{-2}", "t+2*t^{2}+O(7/2)", "O(3)", "u^{2/9}"],
    )
    def test_roundtrip(self, text):
        x = s(text)
        assert s(ring.format_series(x)) == x

    def test_braces_optional(self):
        assert s("u^{1/3}*t^2") == s("u^{1/3}*t^{2}")

    def test_canonical_ordering(self):
        assert ring.format_series(s("t^{2}+u+t")) == "t + u + t^{2}"

    @pytest.mark.parametrize("bad", ["", "t^", "t**2", "1+", "u^{1/4}", "q"])
    def test_rejects(self, bad):
        # exponents with a non-p-power denominator surface as ValueError
        with pytest.raises((ParseError, CapExceeded, ValueError)):
            s(bad)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            s("t+%")
        assert exc.value.position == 2

    @pytest.mark.parametrize("bad", ["t^{1/0}", "u^{-3/0}", "t+O(1/0)"])
    def test_zero_denominator(self, bad):
        with pytest.raises(ParseError):
            s(bad)

    def test_cap_enforced_on_exponents(self):
        with pytest.raises(CapExceeded):
            s("t^{1/2187}")  # denominator 3^7 > 3^6


@settings(max_examples=50, deadline=None)
@given(series_strategy(), series_strategy())
def test_add_commutes(x, y):
    assert x + y == y + x


@settings(max_examples=50, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@settings(max_examples=50, deadline=None)
@given(series_strategy(), series_strategy())
def test_val_additive(x, y):
    prod = x * y
    if x.val() is None or y.val() is None:
        assert prod.val() is None
    else:
        # no zero divisors: valuations add exactly
        assert prod.val() == x.val() + y.val()


@settings(max_examples=50, deadline=None)
@given(series_strategy())
def test_frobenius_scales_valuation(x):
    fx = ring.frobenius(x)
    if x.val() is not None:
        assert fx.val() == P * x.val()
    assert ring.frobenius_inv(fx) == x


@settings(max_examples=50, deadline=None)
@given(series_strategy())
def test_format_parse_roundtrip(x):
    assert ring.parse_series(ring.format_series(x), P, CAP) == x


@pytest.mark.parametrize("p", [1, 0, -3])
def test_p_below_two_rejected(p):
    # p = 1 used to spin in the exponent-normalising loop
    with pytest.raises(ValueError):
        ring.parse_series("t^{1/3}", p)
    with pytest.raises(ValueError):
        ring.monomial(p, 2, 1, 0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ring.one(4),
        lambda: ring.zero(9),
        lambda: ring.constant(1, 6),
        lambda: ring.parse_series("t", 4),
        lambda: ring.monomial(4, 6, 1, 0, 1),
        lambda: galois.eps_pow(1, 4),
    ],
    ids=["one", "zero", "constant", "parse_series", "monomial", "eps_pow"],
)
def test_composite_p_rejected(build):
    with pytest.raises(ValueError, match="p="):
        build()


@pytest.mark.parametrize("cap", [-1, ring.MAX_DENOM_CAP + 1])
def test_cap_out_of_range_rejected(cap):
    with pytest.raises(ValueError):
        ring.parse_series("t", 3, cap)


def test_is_prime():
    assert [n for n in range(30) if ring.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert ring.is_prime(2**61 - 1) and not ring.is_prime(3215031751)
    # psi_12, a strong pseudoprime to every prime base up to 37
    assert not ring.is_prime(399165290221 * 798330580441)
    with pytest.raises(ValueError, match="cannot certify"):
        ring.is_prime(ring.PRIME_TEST_LIMIT)


def test_capped_arithmetic_builds_no_fraction(monkeypatch):
    # caps are int key bounds: products, sums, Frobenius, monomial shifts
    # and the tau-action on capped series are int arithmetic throughout
    x = s("2*u^{-1/3}*t^{2/9} + t + u*t^{-1} + O(7)")
    y = s("1 + u^{1/9} + 2*t^{4/3} + O(5)")
    z = s("O(3/2)")
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    w = (x * y + z) * x - y * z
    w = ring.frobenius_inv(ring.frobenius(w)) * x.mono_shift(ring.mono_of(-3**CAP, 2 * 3**CAP, P), 2)
    w = galois.act(galois.tau(5), w) + galois.act(galois.tau(-2), w * y)
    monkeypatch.undo()
    assert built == []
    assert w.terms and w.bound is not None
