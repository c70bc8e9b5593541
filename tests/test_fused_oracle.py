"""The fused sum-of-products kernel `ring.dot` and the fused group action
against the chained loops they replace.

The oracles below are the earlier code kept verbatim: each matrix entry
and cofactor minor is a chain of series products `oracle_mul` and sums,
and each term of the tau- and gamma-actions is its own `_eps_pow`
series, shifted by `mono_shift` and added in by `_accumulate`.  The
fused code must give the same text and the same key bound on every
input, exact, capped, capped with no known terms, or the exact zero.
"""

import math
import random
from fractions import Fraction

import pytest

from tilted import galois, phitau, ring
from tilted.errors import PrecisionRequired, TiltedError
from tilted.phitau import MatSeries
from tilted.ring import make_series, min_prec

# -- the chained oracles ---------------------------------------------


def _plus(k, bound):
    if k is None or bound is None:
        return None
    return k + bound


def oracle_make(p, cap, termdict, bound=None):
    """`make_series` without its shortcut for an empty mapping."""
    items = [(m, c % p) for m, c in termdict.items() if c % p and (bound is None or m[0] < bound)]
    items.sort()
    return ring.PerfSeries(p, cap, bound, tuple(items))


def oracle_add(x, y):
    """A sum through one dict, whether or not a side has terms."""
    acc = dict(x.terms)
    for m, c in y.terms:
        acc[m] = acc.get(m, 0) + c
    return oracle_make(x.p, x.cap, acc, min_prec(x.bound, y.bound))


def oracle_mul(x, y):
    """One series product, normalized on its own."""
    bound = min_prec(_plus(x.key_floor(), y.bound), _plus(y.key_floor(), x.bound))
    acc = {}
    for (k1, a1), c1 in x.terms:
        for (k2, a2), c2 in y.terms:
            m = (k1 + k2, a1 + a2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return oracle_make(x.p, x.cap, acc, bound)


def oracle_cut(x, bound):
    newbound = min_prec(x.bound, bound)
    if newbound == x.bound:
        return x
    return oracle_make(x.p, x.cap, dict(x.terms), newbound)


def oracle_matmul(a, b):
    d = a.d
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = None
            for l in range(d):
                term = oracle_mul(a.rows[i][l], b.rows[l][j])
                acc = term if acc is None else oracle_add(acc, term)
            row.append(acc)
        out.append(row)
    return MatSeries.from_rows(out)


def oracle_vecmul(a, coords):
    d = a.d
    out = []
    for i in range(d):
        acc = None
        for l in range(d):
            term = oracle_mul(a.rows[i][l], coords[l])
            acc = term if acc is None else oracle_add(acc, term)
        out.append(acc)
    return tuple(out)


def oracle_minors(rows):
    table = {}

    def minor(r, c):
        key = (r, c)
        if key in table:
            return table[key]
        if len(r) == 1:
            val = rows[r[0]][c[0]]
        else:
            top, rest = rows[r[0]], r[1:]
            val = None
            for k, col in enumerate(c):
                term = oracle_mul(top[col], minor(rest, c[:k] + c[k + 1 :]))
                if k % 2 == 1:
                    term = -term
                val = term if val is None else oracle_add(val, term)
        table[key] = val
        return val

    return minor


def _lucas_terms(m, p, bound):
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


def oracle_eps_pow(m, k, p, cap, bound):
    unit = p ** (cap - k)
    if bound is None:
        if m < 0:
            raise PrecisionRequired("eps_pow with negative exponent needs a cap")
        if m > 100_000:
            raise PrecisionRequired(f"exact expansion of (1+u)^{m} is too large")
        jmax = None
    else:
        jmax = -(-bound // (unit * p))
        modulus = 1
        while modulus < jmax:
            modulus *= p
        m %= modulus
    acc = {(j * unit * p, j * unit): c for j, c in _lucas_terms(m, p, jmax)}
    return oracle_make(p, cap, acc, bound)


def _accumulate(acc, image, bound):
    for m, c in image.terms:
        acc[m] = acc.get(m, 0) + c
    return min_prec(bound, image.bound)


def oracle_apply_gamma(a, x, eff):
    p, cap = x.p, x.cap
    acc = {}
    bound = eff
    for m, c in x.terms:
        eu, et = ring.mono_units(m, p)
        if eu == 0:
            acc[m] = acc.get(m, 0) + c
            continue
        mm, k = ring.lowest_terms(eu, p, cap)
        t_key = et * (p - 1)
        target = None if eff is None else eff - t_key
        w = oracle_eps_pow(a, k, p, cap, target) - ring.one(p, cap).cut(target)
        if mm >= 0:
            f = w**mm
        else:
            f = ring.invert(w ** (-mm), ring.bound_prec(target, p, cap))
        bound = _accumulate(acc, f.mono_shift((t_key, 0), c), bound)
    return oracle_make(p, cap, acc, bound)


def oracle_apply_tau(c, x, eff):
    p, cap = x.p, x.cap
    acc = {}
    bound = eff
    for m, co in x.terms:
        et = ring.mono_units(m, p)[1]
        if et == 0:
            acc[m] = acc.get(m, 0) + co
            continue
        target = None if eff is None else eff - m[0]
        factor = oracle_eps_pow(*ring.lowest_terms(c * et, p, cap), p, cap, target)
        bound = _accumulate(acc, factor.mono_shift(m, co), bound)
    return oracle_make(p, cap, acc, bound)


def oracle_act(g, x, prec=None):
    eff = min_prec(x.bound, ring.key_bound(prec, x.p, x.cap))
    y = oracle_cut(x, eff)
    if g.a != 1:
        y = oracle_apply_gamma(g.a, y, eff)
    if g.c != 0:
        y = oracle_apply_tau(g.c, y, y.bound)
    return y


# -- inputs ------------------------------------------------------------

RINGS = [(p, cap) for p in (2, 3, 5, 7) for cap in (2, 6)]
KINDS = ("exact", "capped", "unknown", "zero")


def view(x):
    return str(x), x.bound


def mat_view(m):
    return [[view(e) for e in row] for row in m.rows]


def random_series(rng, p, cap, kind, n_max=4, neg_u=False):
    """A series of the given kind with exponents on the p^-cap lattice,
    at most p^-2 so that cap 2 holds them."""
    if kind == "zero":
        return ring.zero(p, cap)
    prec = None if kind == "exact" else Fraction(rng.randint(1, 12), rng.choice([1, p]))
    x = ring.zero(p, cap, prec)
    if kind == "unknown":
        return x
    for _ in range(rng.randint(1, n_max)):
        eu = Fraction(rng.randint(-2 if neg_u else 0, 4), p ** rng.randint(0, 2))
        et = Fraction(rng.randint(-3, 5), p ** rng.randint(0, 2))
        x = x + ring.monomial(p, cap, rng.randint(1, p - 1), eu, et)
    return x


def random_matrix(rng, d, p, cap):
    return MatSeries.from_rows(
        [[random_series(rng, p, cap, rng.choice(KINDS)) for _ in range(d)] for _ in range(d)]
    )


# -- the kernel --------------------------------------------------------


@pytest.mark.parametrize("p, cap", RINGS)
def test_dot_matches_chained_products(p, cap):
    rng = random.Random(p * 100 + cap)
    for _ in range(60):
        n = rng.randint(1, 5)
        pairs = [
            (random_series(rng, p, cap, rng.choice(KINDS)), random_series(rng, p, cap, rng.choice(KINDS)))
            for _ in range(n)
        ]
        for alternating in (False, True):
            want = None
            for i, (x, y) in enumerate(pairs):
                term = oracle_mul(x, y)
                if alternating and i % 2:
                    term = -term
                want = term if want is None else oracle_add(want, term)
            got = ring.dot(pairs, alternating=alternating)
            assert view(got) == view(want), (p, cap, [(str(x), str(y)) for x, y in pairs])
        x, y = pairs[0]
        assert view(x * y) == view(oracle_mul(x, y))


def test_dot_rejects_mixed_rings_and_no_pairs():
    x = ring.one(3, 6)
    with pytest.raises(ValueError, match="different p"):
        ring.dot([(x, x), (x, ring.one(5, 6))])
    with pytest.raises(ValueError, match="different p"):
        ring.one(3, 4) * x
    with pytest.raises(ValueError, match="at least one pair"):
        ring.dot([])


@pytest.mark.parametrize("p, cap", RINGS)
def test_cut_slices_like_a_rebuild(p, cap):
    rng = random.Random(7 * p + cap)
    for _ in range(80):
        x = random_series(rng, p, cap, rng.choice(KINDS), n_max=6, neg_u=True)
        bound = rng.choice([None, rng.randint(-20 * p**cap, 40 * p**cap)])
        got = x.cut(bound)
        assert view(got) == view(oracle_cut(x, bound))
        assert got.terms == oracle_cut(x, bound).terms


# -- operands with no terms ------------------------------------------
#
# A zero known modulo O(q) has no terms but a cap, which still bounds
# every product and sum it enters; the kernel forms no term for it.


def termless(rng, p, cap):
    """The exact zero, or a zero known modulo O(q) at one of several caps."""
    q = rng.choice([None, Fraction(-2), Fraction(0), Fraction(1, p), Fraction(1), Fraction(3), Fraction(7, p)])
    return ring.zero(p, cap, q)


def maybe_termless(rng, p, cap):
    if rng.random() < 0.5:
        return termless(rng, p, cap)
    return random_series(rng, p, cap, rng.choice(KINDS))


@pytest.mark.parametrize("p, cap", RINGS)
def test_dot_with_termless_operands(p, cap):
    rng = random.Random(8000 + 10 * p + cap)
    for _ in range(60):
        pairs = [(maybe_termless(rng, p, cap), maybe_termless(rng, p, cap)) for _ in range(rng.randint(1, 5))]
        # one pair at least has a side with no terms, on either side
        k = rng.randrange(len(pairs))
        x, y = pairs[k]
        pairs[k] = (termless(rng, p, cap), y) if rng.random() < 0.5 else (x, termless(rng, p, cap))
        for alternating in (False, True):
            want = None
            for i, (x, y) in enumerate(pairs):
                term = oracle_mul(x, y)
                if alternating and i % 2:
                    term = -term
                want = term if want is None else oracle_add(want, term)
            got = ring.dot(pairs, alternating=alternating)
            assert got == want, (p, cap, alternating, [(str(x), str(y)) for x, y in pairs])


@pytest.mark.parametrize("p, cap", RINGS)
def test_sum_and_difference_with_termless_operands(p, cap):
    rng = random.Random(9000 + 10 * p + cap)
    for _ in range(80):
        x, y = termless(rng, p, cap), maybe_termless(rng, p, cap)
        if rng.random() < 0.5:
            x, y = y, x
        assert x + y == oracle_add(x, y), (str(x), str(y))
        assert x - y == oracle_add(x, y.scale(p - 1)), (str(x), str(y))


def t0_only(rng, p, cap):
    """A series whose terms all have t exponent 0, exact or capped."""
    prec = rng.choice([None, Fraction(rng.randint(1, 12), rng.choice([1, p]))])
    x = ring.zero(p, cap, prec)
    for _ in range(rng.randint(1, 4)):
        eu = Fraction(rng.randint(-2, 4), p ** rng.randint(0, 2))
        x = x + ring.monomial(p, cap, rng.randint(1, p - 1), eu, 0)
    return x


@pytest.mark.parametrize("p, cap", RINGS)
def test_act_on_series_no_tau_term_moves(p, cap):
    # tau^c fixes every t^0 term: the action returns its input as cut
    rng = random.Random(10000 + 10 * p + cap)
    units = [a for a in (2, p + 1) if a % p]
    for _ in range(30):
        x = termless(rng, p, cap) if rng.random() < 0.5 else t0_only(rng, p, cap)
        prec = rng.choice([None, Fraction(rng.randint(-1, 8))])
        for c in TAU_POWERS[p]:
            for g in (galois.tau(c), galois.GroupElem(c, rng.choice(units))):
                want = _act_or_error(oracle_act, g, x, prec)
                assert _act_or_error(galois.act, g, x, prec) == want, (g, str(x), prec)


# -- matrices ----------------------------------------------------------


@pytest.mark.parametrize("p, cap", RINGS)
@pytest.mark.parametrize("d", range(1, 7))
def test_matrix_products_match_chained(d, p, cap):
    rng = random.Random(1000 * d + 10 * p + cap)
    a, b = random_matrix(rng, d, p, cap), random_matrix(rng, d, p, cap)
    assert mat_view(a * b) == mat_view(oracle_matmul(a, b))
    coords = tuple(random_series(rng, p, cap, rng.choice(KINDS)) for _ in range(d))
    assert [view(e) for e in a.vecmul(coords)] == [view(e) for e in oracle_vecmul(a, coords)]


@pytest.mark.parametrize("p, cap", RINGS)
@pytest.mark.parametrize("d", range(1, 7))
def test_minors_match_chained(d, p, cap):
    rng = random.Random(2000 * d + 10 * p + cap)
    m = random_matrix(rng, d, p, cap)
    full = tuple(range(d))
    want = oracle_minors(m.rows)
    assert view(m.det()) == view(want(full, full))
    assert mat_view(m.adjugate()) == mat_view(m._adjugate(want))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", range(1, 7))
def test_inverse_matches_chained(d, p):
    # a base-change lattice has a unit determinant, so it inverts
    prec = 8
    mod = phitau.basechange_generate(d, seed=d + p, complexity=2, p=p, prec=prec)
    m = mod.frob.truncate(prec)
    full = tuple(range(d))
    want = oracle_minors(m.rows)
    detinv = ring.invert(want(full, full), prec)
    adj = m._adjugate(want)
    want_inv = [[view(oracle_mul(detinv, e).truncate(prec)) for e in row] for row in adj.rows]
    assert mat_view(m.inverse(prec)) == want_inv


# -- the group action --------------------------------------------------


def _act_or_error(act, g, x, prec):
    try:
        return view(act(g, x, prec))
    except TiltedError as exc:
        # a cap too low for gamma's inversion raises; both must agree
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("p, cap", RINGS)
def test_act_matches_chained(p, cap):
    rng = random.Random(3000 + 10 * p + cap)
    units = [a for a in (-1, 2, p + 1, 2 * p - 1, 3 * p + 2) if a % p]
    for _ in range(40):
        x = random_series(rng, p, cap, rng.choice(KINDS), neg_u=True)
        g = galois.GroupElem(rng.randint(-3, 3), rng.choice(units + [1]))
        prec = rng.choice([None, Fraction(rng.randint(2, 8))])
        want = _act_or_error(oracle_act, g, x, prec)
        assert _act_or_error(galois.act, g, x, prec) == want, (g, str(x), prec)


def test_gamma_on_several_u_terms_is_sum_of_single_term_actions():
    # the gamma images of several terms with u exponents share one
    # accumulator; each must still be taken with gamma's own exponent a
    p, cap = 3, 6
    x = ring.parse_series("u*t + 2*u^{2}*t^{-1} + u^{1/3} + u^{-1/3}*t^{2} + t + O(7)", p, cap)
    for g in (galois.gamma(2), galois.gamma(4), galois.GroupElem(2, 5)):
        got = galois.act(g, x)
        want = ring.zero(p, cap, x.prec)
        for m, c in x.terms:
            want = want + galois.act(g, make_series(p, cap, {m: c}, x.bound))
        assert view(got) == view(want), g
        assert view(got) == view(oracle_act(g, x))


def dense_columns(rng, p, cap, kind):
    """5 to 30 terms u^(j/p^2) * t^B spread over one or two t-columns."""
    prec = None if kind == "exact" else Fraction(rng.randint(2, 12), rng.choice([1, p]))
    columns = [ring.exponent_units(Fraction(rng.randint(-3, 5), p ** rng.randint(0, 2)), p, cap)]
    if rng.random() < 0.5:
        columns.append(columns[0] + p ** (cap - rng.randint(0, 2)))
    unit = p ** (cap - 2)
    acc = {}
    for i, j in enumerate(rng.sample(range(-(p**2), 6 * p**2 + 10), rng.randint(5, 30))):
        acc[ring.mono_of(j * unit, columns[i % len(columns)], p)] = rng.randint(1, p - 1)
    return make_series(p, cap, acc, ring.key_bound(prec, p, cap))


def stops_early(c, x, eff):
    """Whether a t-column's last term keeps fewer terms of the column's
    expansion (1+u)^(c*B) than its first term, whose key is least."""
    if eff is None:
        return False
    p, cap = x.p, x.cap
    keys = {}
    for m, _ in x.terms:
        et = ring.mono_units(m, p)[1]
        if et:
            keys.setdefault(et, []).append(m[0])
    for et, ks in keys.items():
        mm, k = ring.lowest_terms(c * et, p, cap)
        expansion = galois._eps_terms(mm, k, p, cap, eff - ks[0])
        if any(ks[-1] + j * p ** (cap - k + 1) >= eff for j, _ in expansion):
            return True
    return False


TAU_POWERS = {p: sorted({*range(-3, 4), p, 2 * p + 1}) for p in (2, 3, 5, 7)}


@pytest.mark.parametrize("p, cap", RINGS)
def test_tau_on_dense_columns_matches_chained(p, cap):
    rng = random.Random(4000 + 10 * p + cap)
    early = 0
    for _ in range(30):
        x = dense_columns(rng, p, cap, rng.choice(("exact", "capped")))
        prec = rng.choice([None, Fraction(rng.randint(1, 10))])
        for c in TAU_POWERS[p]:
            g = galois.tau(c)
            want = _act_or_error(oracle_act, g, x, prec)
            assert _act_or_error(galois.act, g, x, prec) == want, (c, str(x), prec)
            early += stops_early(c, x, min_prec(x.bound, ring.key_bound(prec, p, cap)))
    # the column's later terms did cut the shared expansion short
    assert early > 0


@pytest.mark.parametrize("p, cap", RINGS)
def test_tau_on_gamma_images_matches_chained(p, cap):
    # gamma_a maps u^e t^B to a series in u times t^B: one dense t-column
    rng = random.Random(5000 + 10 * p + cap)
    units = [a for a in (2, p + 1, 2 * p + 1) if a % p]
    for _ in range(12):
        seed = ring.zero(p, cap)
        for _ in range(rng.randint(1, 2)):
            eu = Fraction(rng.randint(1, 4), p ** rng.randint(0, 2))
            et = Fraction(rng.randint(-2, 4), p ** rng.randint(0, 2))
            seed = seed + ring.monomial(p, cap, 1, eu, et)
        prec = rng.choice([None, Fraction(rng.randint(6, 14))])
        x = galois.act(galois.gamma(rng.choice(units)), seed, prec)
        for c in TAU_POWERS[p]:
            for g in (galois.tau(c), galois.GroupElem(c, rng.choice(units))):
                want = _act_or_error(oracle_act, g, x, prec)
                assert _act_or_error(galois.act, g, x, prec) == want, (g, str(x), prec)


@pytest.mark.parametrize(
    "c, refused", [(-1, "negative exponent"), (3, "(1+u)^150000 "), (4, "(1+u)^200000 ")]
)
def test_tau_refuses_the_first_exact_column(c, refused):
    # u^(-30000)*t^(50000) has the least key, so its column's power is
    # refused, although the t^(40000) column is refused on its own too
    p, cap = 2, 2
    x = ring.parse_series("t^{40000} + u^{5}*t^{40000} + u^{-30000}*t^{50000} + u*t^{50000}", p, cap)
    want = _act_or_error(oracle_act, galois.tau(c), x, None)
    assert want.startswith("PrecisionRequired") and refused in want
    assert _act_or_error(galois.act, galois.tau(c), x, None) == want
    alone = ring.parse_series("t^{40000} + u^{5}*t^{40000}", p, cap)
    want = _act_or_error(oracle_act, galois.tau(c), alone, None)
    assert want.startswith("PrecisionRequired") and (c < 0 or f"(1+u)^{40000 * c} " in want)
    assert _act_or_error(galois.act, galois.tau(c), alone, None) == want


def test_eps_terms_ascend():
    # `_apply_tau` stops a column's later terms at the first j past their
    # own bound, which needs the j in ascending order
    rng = random.Random(11)
    for _ in range(600):
        p = rng.choice((2, 3, 5, 7))
        cap = rng.randint(0, 6)
        k = rng.randint(0, cap)
        if rng.random() < 0.3:
            m, bound = rng.randint(0, 5000), None
        else:
            m, bound = rng.randint(-(10**6), 10**6), rng.randint(-10, 40 * p ** (cap + 1))
        js = [j for j, _ in galois._eps_terms(m, k, p, cap, bound)]
        assert all(a < b for a, b in zip(js, js[1:])), (m, k, p, cap, bound)
        want = oracle_eps_pow(m, k, p, cap, bound)
        assert [j * p ** (cap - k) for j in js] == [a for (_, a), _ in want.terms]


# -- cost --------------------------------------------------------------


@pytest.fixture
def series_count(monkeypatch):
    calls = []
    make = ring.make_series

    def counting(*args, **kwargs):
        calls.append(1)
        return make(*args, **kwargs)

    monkeypatch.setattr(ring, "make_series", counting)
    return calls


def test_matrix_product_normalizes_each_entry_once(series_count):
    rng = random.Random(6)
    a, b = random_matrix(rng, 6, 3, 6), random_matrix(rng, 6, 3, 6)
    series_count.clear()
    a * b
    assert len(series_count) == 36


def test_matrix_act_and_truncate_convert_the_cap_once(monkeypatch):
    calls = []
    inner = ring.key_bound

    def counting(*args):
        calls.append(args)
        return inner(*args)

    rng = random.Random(12)
    p, cap, prec, g = 3, 6, Fraction(5), galois.tau(2)
    m = random_matrix(rng, 4, p, cap)
    monkeypatch.setattr(ring, "key_bound", counting)
    acted = m.act(g, prec)
    assert len(calls) == 1
    calls.clear()
    cut = m.truncate(prec)
    assert len(calls) == 1
    assert mat_view(acted) == [[view(oracle_act(g, e, prec)) for e in row] for row in m.rows]
    bound = inner(prec, p, cap)
    assert mat_view(cut) == [[view(oracle_cut(e, bound)) for e in row] for row in m.rows]


def test_tau_action_normalizes_once(series_count):
    p, cap = 3, 6
    x = ring.parse_series("u*t + 2*t^{2} + u^{1/3}*t^{-1/9} + t^{5/3} + 1 + O(8)", p, cap)
    series_count.clear()
    y = galois.act(galois.tau(5), x)
    assert len(series_count) == 1
    # cutting x to a lower cap slices its terms and builds no series
    series_count.clear()
    z = galois.act(galois.tau(-2), x, 6)
    assert len(series_count) == 1
    assert view(y) == view(oracle_act(galois.tau(5), x))
    assert view(z) == view(oracle_act(galois.tau(-2), x, 6))


def test_tau_action_expands_once_per_column(monkeypatch):
    calls = []
    inner = galois._eps_terms

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(galois, "_eps_terms", counting)
    p, cap = 3, 6
    # three moving t-columns (t^1: 3 terms, t^{2}: 2, t^{-1/9}: 1) and the fixed u^{1/3}
    text = "t + u*t + u^{4/3}*t + 2*t^{2} + u^{2}*t^{2} + u^{1/3}*t^{-1/9} + u^{1/3} + O(12)"
    x = ring.parse_series(text, p, cap)
    for prec in (None, 6):
        calls.clear()
        y = galois.act(galois.tau(5), x, prec)
        assert len(calls) == 3
        assert view(y) == view(oracle_act(galois.tau(5), x, prec))
