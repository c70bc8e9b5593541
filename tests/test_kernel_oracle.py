"""The pruned product kernel and the order-keeping maps against the
loops they replaced.

`ring.dot` reads the least key bound of its pairs first and never forms
a term pair at or above it; `ring.frobenius`, `ring.frobenius_inv` and
`PerfSeries.mono_shift` build their sorted terms directly; `PerfSeries.__sub__` subtracts in one
pass; `MatSeries.mul` cuts inside the kernel and `MatSeries.scale_series`
shifts by an exact monomial.  The oracles are the earlier code kept
verbatim: the double loop over every term pair, normalized by
`make_series` under the least bound, and the maps through `make_series`.
Each comparison is on the terms and the key bound, over p in {2, 3, 5, 7}
and series from every constructor: `make_series`, `galois.eps_pow`
(a memoized Lucas row as it is), `cut`, `scale` and the parser, exact, capped,
capped with no known terms, and the exact zero.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilted import galois, ring
from tilted.phitau import MatSeries
from tilted.ring import make_series

CAP = 2

# -- the oracles ---------------------------------------------------------


def oracle_dot(pairs, signs=None, cut=None):
    pairs = list(pairs)
    signs = [1] * len(pairs) if signs is None else list(signs)
    assert len(signs) == len(pairs)
    acc = {}
    get = acc.get
    bound = cut
    p = cap = None
    for (x, y), sign in zip(pairs, signs):
        if p is None:
            p, cap = x.p, x.cap
        if x.p != p or y.p != p or x.cap != cap or y.cap != cap:
            raise ValueError("series have different p or denominator cap")
        xt, yt = x.terms, y.terms
        bx, by = x.bound, y.bound
        if by is not None:
            kx = xt[0][0][0] if xt else bx
            if kx is not None and (bound is None or kx + by < bound):
                bound = kx + by
        if bx is not None:
            ky = yt[0][0][0] if yt else by
            if ky is not None and (bound is None or ky + bx < bound):
                bound = ky + bx
        if xt and yt:
            for (k1, a1), c1 in xt:
                c1 *= sign
                for (k2, a2), c2 in yt:
                    m = (k1 + k2, a1 + a2)
                    acc[m] = get(m, 0) + c1 * c2
    if p is None:
        raise ValueError("dot needs at least one pair")
    return make_series(p, cap, acc, bound)


def oracle_frobenius(x):
    p = x.p
    acc = {(k * p, a * p): c for (k, a), c in x.terms}
    return make_series(p, x.cap, acc, None if x.bound is None else x.bound * p)


def oracle_frobenius_inv(x):
    p = x.p
    acc = {(k // p, a // p): c for (k, a), c in x.terms}
    return make_series(p, x.cap, acc, None if x.bound is None else -(-x.bound // p))


def oracle_mono_shift(x, mono, coeff=1):
    coeff %= x.p
    dk, da = mono
    acc = {(k + dk, a + da): c * coeff for (k, a), c in x.terms}
    return make_series(x.p, x.cap, acc, None if x.bound is None else dk + x.bound)


def oracle_sub(x, y):
    return x + y.scale(x.p - 1)


def form(x):
    return x.p, x.cap, x.bound, x.terms


# -- the series ----------------------------------------------------------


def precs(p):
    """A precision cap: None (exact) or a rational, possibly off the key
    lattice."""
    return st.one_of(
        st.none(),
        st.builds(Fraction, st.integers(-3, 10), st.sampled_from([1, p, p * p, 7])),
    )


@st.composite
def series(draw, p):
    """A series of p from one of the constructors, then possibly cut or
    scaled."""
    kind = draw(st.sampled_from(["terms", "eps", "parse", "zero"]))
    prec = draw(precs(p))
    if kind == "terms":
        acc = {}
        for _ in range(draw(st.integers(0, 7))):
            a = draw(st.integers(-2, 2 * p * p))
            b = draw(st.integers(-3 * p * p, 6 * p * p))
            acc[ring.mono_of(a, b, p)] = draw(st.integers(0, 2 * p))
        x = make_series(p, CAP, acc, ring.key_bound(prec, p, CAP))
    elif kind == "eps":
        m = draw(st.integers(-p**3, p**3) if prec is not None else st.integers(0, p**3))
        x = galois.eps_pow(Fraction(m, p ** draw(st.integers(0, CAP))), p, CAP, prec)
        x = x.mono_shift(ring.mono_of(0, draw(st.integers(-2, 2)) * p**CAP, p))
    elif kind == "parse":
        parts = [
            f"{draw(st.integers(1, p - 1))}*u^{{{draw(st.integers(0, 3))}/{p}}}"
            f"*t^{{{draw(st.integers(-3, 5))}}}"
            for _ in range(draw(st.integers(1, 4)))
        ]
        if prec is not None:
            parts.append(f"O({prec})")
        x = ring.parse_series(" + ".join(parts), p, CAP)
    else:
        x = ring.zero(p, CAP, prec)
    if draw(st.booleans()):
        x = x.cut(draw(st.one_of(st.none(), st.integers(-4 * p * p, 12 * p * p))))
    if draw(st.booleans()):
        x = x.scale(draw(st.integers(0, p)))
    return x


@st.composite
def dot_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    pairs = [(draw(series(p)), draw(series(p))) for _ in range(n)]
    cut = draw(st.one_of(st.none(), st.integers(-4 * p * p, 16 * p * p)))
    # no signs (all +1), or a random sign per pair
    signs = draw(st.one_of(st.none(), st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    return pairs, signs, cut


# -- ring.dot --------------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(dot_case())
def test_dot_matches_double_loop(case):
    pairs, signs, cut = case
    want = form(oracle_dot(pairs, signs, cut))
    assert form(ring.dot(pairs, signs, cut)) == want
    # a generator of pairs and one of signs are each read once
    xs, ys = zip(*pairs)
    signs = None if signs is None else iter(signs)
    assert form(ring.dot(zip(xs, ys), signs=signs, cut=cut)) == want


class Counted(int):
    """A coefficient that counts the term pairs it enters, as the y side."""

    products = 0

    def __rmul__(self, other):
        Counted.products += 1
        return int(other) * int(self)


class Visited(int):
    """A coefficient that counts the x terms whose inner loop starts: each
    is multiplied by the pair's sign first."""

    visits = 0

    def __mul__(self, other):
        Visited.visits += 1
        return int(self) * int(other)


def test_dot_forms_no_pair_at_the_bound():
    # (1 + t + ... + t^9 + O(10))^2 is known below t^10: of the 100 term
    # pairs t^i * t^j, the 55 with i + j < 10 are formed, the oracle's
    # other 45 are not; without a cap all 100 are
    p = 3
    x = ring.parse_series(" + ".join(f"t^{{{i}}}" for i in range(10)) + " + O(10)", p, CAP)
    y = ring.PerfSeries(p, CAP, x.bound, tuple((m, Counted(c)) for m, c in x.terms))
    for bound, formed in ((x.bound, 55), (None, 100)):
        xb, yb = ring.PerfSeries(p, CAP, bound, x.terms), ring.PerfSeries(p, CAP, bound, y.terms)
        Counted.products = 0
        got = ring.dot([(xb, yb)])
        assert Counted.products == formed
        assert form(got) == form(oracle_dot([(xb, ring.PerfSeries(p, CAP, bound, x.terms))]))
    # the cut is part of the least bound: below t^4, 10 pairs
    cut = x.bound * 4 // 10
    Counted.products = 0
    assert form(ring.dot([(x, y)], cut=cut)) == form(oracle_dot([(x, x)], cut=cut))
    assert Counted.products == 10
    # times t^5 + t^6 + O(10): the x loop stops at t^5, whose pair with
    # y's leading t^5 reaches the bound
    xv = ring.PerfSeries(p, CAP, x.bound, tuple((m, Visited(c)) for m, c in x.terms))
    y = ring.parse_series("t^{5} + t^{6} + O(10)", p, CAP)
    Visited.visits = 0
    assert form(ring.dot([(xv, y)])) == form(oracle_dot([(x, y)]))
    assert Visited.visits == 5


def test_dot_needs_a_pair_and_one_ring():
    with pytest.raises(ValueError, match="at least one pair"):
        ring.dot(iter(()))
    x, y = ring.t_var(3), ring.t_var(5)
    with pytest.raises(ValueError, match="different p"):
        ring.dot([(x, x), (x, y)])
    # one sign per pair, no more and no fewer
    for signs in ((1,), (1, -1, 1)):
        with pytest.raises(ValueError, match="signs than pairs"):
            ring.dot([(x, x), (x, x)], signs)


# -- the maps that keep the order -------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(series(p), series(p))))
def test_maps_match_make_series_forms(xy):
    x, y = xy
    p = x.p
    fx = ring.frobenius(x)
    assert form(fx) == form(oracle_frobenius(x))
    assert form(ring.frobenius_inv(fx)) == form(x)
    # a bound off p Z takes the ceiling
    for z in (fx, fx.cut(None if fx.bound is None else fx.bound - 1)):
        assert form(ring.frobenius_inv(z)) == form(oracle_frobenius_inv(z))
    assert form(x - y) == form(oracle_sub(x, y))
    for mono in (ring.MONO_ONE, ring.mono_of(p**CAP, -(p**CAP), p), ring.mono_of(-1, 3, p)):
        for coeff in (1, p - 1, p, 2 * p + 1, -1):
            assert form(x.mono_shift(mono, coeff)) == form(oracle_mono_shift(x, mono, coeff))


def test_mono_shift_by_zero_coefficient_keeps_no_term():
    x = ring.parse_series("1 + u + t^{2} + O(5)", 3, CAP)
    t = ring.mono_of(0, 3**CAP, 3)
    shifted = x.mono_shift(t, 6)
    assert shifted.terms == () and shifted.bound == x.bound + t[0]
    assert form(shifted) == form(oracle_mono_shift(x, t, 6))


# -- the matrix layer ----------------------------------------------------------


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 3))

    def mat():
        return MatSeries.from_rows([[draw(series(p)) for _ in range(d)] for _ in range(d)])

    return p, mat(), mat(), draw(precs(p))


def matrix_form(m):
    return [form(e) for row in m.rows for e in row]


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_cut_product_matches_product_then_cut(case):
    _, a, b, prec = case
    want = matrix_form((a * b).truncate(prec))
    assert matrix_form(a.mul(b, prec)) == want
    assert matrix_form(a * b) == matrix_form(a.mul(b))


@settings(max_examples=50, deadline=None)
@given(matrices(), st.integers(-20, 20), st.integers(-1, 7), st.booleans())
def test_monomial_scaling_matches_product(case, b, coeff, exact):
    # only an exact monomial is a shift: a capped one caps the product
    p, a, _, prec = case
    s = make_series(p, CAP, {ring.mono_of(0, b, p): coeff})
    if not exact:
        s = s.truncate(Fraction(1) if prec is None else prec)
    assert matrix_form(a.scale_series(s)) == [form(s * e) for row in a.rows for e in row]
