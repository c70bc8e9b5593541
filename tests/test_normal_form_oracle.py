"""`ring.make_series` and `ring.format_series` against the code they replace.

`oracle_make_series` is the earlier normaliser, which sorts whole
(monomial, coeff) items; the library sorts on the monomial alone, the
same order, since the monomials of one mapping are distinct.
`oracle_format` is the earlier formatter, which reads each term's units
through `mono_units` and keeps one atom table keyed by (name, units);
the library keeps one table per variable, keyed by int units.  Each
pair must give the same series, or the same text, on every input.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilted import ring
from tilted.ring import PerfSeries, make_series, mono_of, mono_units

# -- the earlier code ---------------------------------------------------


def oracle_make_series(p, cap, termdict, bound=None) -> PerfSeries:
    if not termdict:
        return PerfSeries(p, cap, bound, ())
    if bound is None:
        items = [(m, r) for m, c in termdict.items() if (r := c % p)]
    else:
        items = [(m, r) for m, c in termdict.items() if m[0] < bound and (r := c % p)]
    items.sort()
    return PerfSeries(p, cap, bound, tuple(items))


def oracle_format(x: PerfSeries) -> str:
    p, cap = x.p, x.cap
    texts = {}  # (name, units) -> atom text, each formatted once
    parts = []
    for m, c in x.terms:
        a, b = mono_units(m, p)
        atoms = []
        for atom in (("u", a), ("t", b)):
            if atom[1]:
                s = texts.get(atom)
                if s is None:
                    s = texts[atom] = ring._format_atom(*atom, p, cap)
                atoms.append(s)
        if not atoms:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(atoms))
        else:
            parts.append(f"{c}*" + "*".join(atoms))
    if x.bound is not None:
        parts.append(f"O({x.prec})")
    if not parts:
        return "0"
    return " + ".join(parts)


# -- inputs -------------------------------------------------------------

RINGS = st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(st.just(p), st.sampled_from([0, 2, 6])))


def exponent_units(p, cap):
    """Exponents in units of p^-cap: zero, whole, fractional, negative."""
    scale = p**cap
    return st.one_of(
        st.just(0),
        st.integers(-3, 3).map(lambda n: n * scale),
        st.integers(-3 * scale, 3 * scale),
    )


def key_span(p, cap):
    """A range of keys that covers every monomial `unit_pairs` makes."""
    reach = (3 * p**cap + 3 * p) * (2 * p - 1)
    return -reach, reach + 1


def unit_pairs(draw, p, cap, max_size):
    """Distinct exponent units (A, B), some sharing a key: (A, B) and
    (A + (p-1)k, B - pk) have the same key A*p + B*(p-1)."""
    units = exponent_units(p, cap)
    pairs = draw(st.lists(st.tuples(units, units), max_size=max_size))
    ties = [(a + (p - 1) * k, b - p * k) for (a, b), k in zip(pairs, draw(st.lists(st.integers(-3, 3))))]
    return list(dict.fromkeys(pairs + ties))


@st.composite
def termdicts(draw):
    """(p, cap, {mono: coeff}, bound): distinct monomials, some of one
    key, inserted in a drawn order, coefficients that may vanish mod p,
    and a bound that may fall on a key or below every key."""
    p, cap = draw(RINGS)
    pairs = unit_pairs(draw, p, cap, 8)
    coeffs = st.one_of(st.integers(-2, 3).map(lambda k: k * p), st.integers(-2 * p, 3 * p))
    items = draw(st.permutations([(mono_of(a, b, p), draw(coeffs)) for a, b in pairs]))
    lo, hi = key_span(p, cap)
    bounds = [st.none(), st.integers(lo, hi)]
    if items:
        bounds.append(st.sampled_from([m[0] for m, _ in items]))
    return p, cap, dict(items), draw(st.one_of(*bounds))


@st.composite
def series(draw):
    """Canonical series: constants, coefficient 1, pure-u and pure-t
    terms, negative and fractional exponents, exact or capped."""
    p, cap = draw(RINGS)
    pairs = unit_pairs(draw, p, cap, 6)
    termdict = {mono_of(a, b, p): draw(st.integers(1, p - 1)) for a, b in pairs}
    lo, hi = key_span(p, cap)
    return make_series(p, cap, termdict, draw(st.one_of(st.none(), st.integers(lo, hi))))


# -- the comparisons ----------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(termdicts())
@example((3, 6, {}, None))
@example((3, 6, {}, 5))
@example((2, 2, {mono_of(4, 0, 2): 2, mono_of(0, 0, 2): 4}, None))
@example((5, 2, {mono_of(-25, 3, 5): 5, mono_of(1, 1, 5): 1, mono_of(-1, 2, 5): 7}, mono_of(1, 1, 5)[0]))
def test_make_series_matches_whole_item_sort(case):
    p, cap, termdict, bound = case
    got = make_series(p, cap, termdict, bound)
    want = oracle_make_series(p, cap, termdict, bound)
    assert got == want
    assert [m for m, _ in got.terms] == sorted(m for m, _ in got.terms)


@settings(max_examples=400, deadline=None)
@given(series())
@example(ring.zero(3))
@example(ring.zero(2, 6, Fraction(-5, 2)))
@example(ring.zero(7, 2, Fraction(4, 3)))
@example(ring.constant(4, 5))
@example(ring.one(2) + ring.zero(2, prec=3))
@example(ring.monomial(3, 6, 1, Fraction(-1, 9), 0))
@example(ring.monomial(5, 6, 3, 0, Fraction(-2, 25), Fraction(1, 7)))
@example(ring.monomial(7, 2, 1, Fraction(3, 49), Fraction(-5, 7)))
def test_format_series_matches_earlier_formatter(x):
    text = ring.format_series(x)
    assert text == oracle_format(x)
    assert ring.parse_series(text, x.p, x.cap) == x
