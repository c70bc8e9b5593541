"""The fused sum-of-products kernel `ring.dot` and the fused group action
against the chained loops they replace.

The oracles below are the earlier code kept verbatim: each matrix entry
and cofactor minor is a chain of series products `oracle_mul` and sums,
every minor formed, exact-zero entries included, and each term of the
tau- and gamma-actions is its own `oracle_eps_pow` series, shifted by
`mono_shift` and added in by `_accumulate`.  The fused code must give
the same text and the same key bound on every input, exact, capped,
capped with no known terms, or the exact zero.  `basechange_generate`
is checked against its earlier product loop, which builds each factor
as a d x d matrix.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilted import galois, holder, phitau, ring
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


def oracle_adjugate(m, minor):
    """The transposed cofactor matrix from the minors, every odd cofactor
    negated."""
    d, full = m.d, tuple(range(m.d))
    if d == 1:
        return MatSeries.from_rows([[ring.one(m.p, m.cap).cut(m.rows[0][0].bound)]])
    cof = [[minor(full[:i] + full[i + 1 :], full[:j] + full[j + 1 :]) for j in full] for i in full]
    cof = [[-c if (i + j) % 2 else c for j, c in enumerate(row)] for i, row in enumerate(cof)]
    return MatSeries.from_rows([[cof[j][i] for j in full] for i in full])


def oracle_inverse(m, prec):
    """det^{-1} adj, each entry one chained product cut at prec."""
    want = oracle_minors(m.rows)
    detinv = ring.invert(want(tuple(range(m.d)), tuple(range(m.d))), prec)
    return oracle_adjugate(m, want).map(lambda e: oracle_mul(detinv, e).truncate(prec))


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
        for signs in (None, [rng.choice((1, -1)) for _ in pairs]):
            want = None
            for i, (x, y) in enumerate(pairs):
                term = oracle_mul(x, y)
                if signs and signs[i] < 0:
                    term = -term
                want = term if want is None else oracle_add(want, term)
            got = ring.dot(pairs, signs)
            assert view(got) == view(want), (p, cap, signs, [(str(x), str(y)) for x, y in pairs])
        x, y = pairs[0]
        assert view(x * y) == view(oracle_mul(x, y))


@pytest.mark.parametrize("p, cap", RINGS)
def test_dot_cut_is_dot_then_cut(p, cap):
    rng = random.Random(p * 300 + cap)
    for _ in range(60):
        pairs = [
            tuple(random_series(rng, p, cap, rng.choice(KINDS), neg_u=True) for _ in range(2))
            for _ in range(rng.randint(1, 4))
        ]
        bound = rng.choice([None, rng.randint(-10 * p**cap, 30 * p**cap)])
        for signs in (None, [rng.choice((1, -1)) for _ in pairs]):
            want = oracle_cut(ring.dot(pairs, signs), bound)
            assert view(ring.dot(pairs, signs, cut=bound)) == view(want)


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
        for signs in (None, [rng.choice((1, -1)) for _ in pairs]):
            want = None
            for i, (x, y) in enumerate(pairs):
                term = oracle_mul(x, y)
                if signs and signs[i] < 0:
                    term = -term
                want = term if want is None else oracle_add(want, term)
            got = ring.dot(pairs, signs)
            assert got == want, (p, cap, signs, [(str(x), str(y)) for x, y in pairs])


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
    assert mat_view(m.adjugate()) == mat_view(oracle_adjugate(m, want))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", range(1, 7))
def test_inverse_matches_chained(d, p):
    # a base-change lattice has a unit determinant, and so has P: the
    # exact lattice and P have exact-zero entries, P cut at prec has none
    prec = 8
    mod = phitau.basechange_generate(d, seed=d + p, complexity=2, p=p, prec=prec)
    for m in (mod.lattice, mod.frob, mod.frob.truncate(prec)):
        assert mat_view(m.inverse(prec)) == mat_view(oracle_inverse(m, prec))


def _outcome(fn, *args):
    try:
        return mat_view(fn(*args))
    except TiltedError as exc:
        return f"{type(exc).__name__}: {exc}"


def live_series(rng, p, cap):
    return random_series(rng, p, cap, rng.choice(("exact", "capped")))


def sparse_matrix(rng, d, p, cap, pattern):
    """A d x d matrix whose exact zeros follow the pattern."""
    zero = ring.zero(p, cap)
    if pattern == "permutation":
        perm = rng.sample(range(d), d)
        rows = [[live_series(rng, p, cap) if j == perm[i] else zero for j in range(d)] for i in range(d)]
    elif pattern == "blocks":
        cuts = sorted(rng.sample(range(1, d), rng.randint(0, d - 1))) if d > 1 else []
        block = [sum(i >= c for c in cuts) for i in range(d)]
        rows = [
            [random_series(rng, p, cap, rng.choice(KINDS)) if block[i] == block[j] else zero for j in range(d)]
            for i in range(d)
        ]
    elif pattern == "zero row":
        rows = [[random_series(rng, p, cap, rng.choice(KINDS)) for _ in range(d)] for _ in range(d)]
        rows[rng.randrange(d)] = [zero] * d
    else:  # mostly zeros, exact or known modulo O(q)
        rows = [
            [
                rng.choice([zero, zero, termless(rng, p, cap), live_series(rng, p, cap)])
                for _ in range(d)
            ]
            for _ in range(d)
        ]
    return MatSeries.from_rows(rows)


@pytest.mark.parametrize("pattern", ["permutation", "blocks", "zero row", "zeros"])
@pytest.mark.parametrize("p, cap", [(2, 2), (3, 6), (5, 2), (7, 6)])
def test_sparse_minors_match_chained(pattern, p, cap):
    # exact-zero entries and minors are never formed; the determinant,
    # adjugate and inverse (or its refusal) are those of the recursion
    rng = random.Random(f"{pattern} {p} {cap}")
    prec = 6
    for d in range(1, 7):
        for _ in range(3):
            m = sparse_matrix(rng, d, p, cap, pattern)
            full = tuple(range(d))
            want = oracle_minors(m.rows)
            assert view(m.det()) == view(want(full, full)), (pattern, d)
            assert mat_view(m.adjugate()) == mat_view(oracle_adjugate(m, want)), (pattern, d)
            got = _outcome(m.inverse, prec)
            assert got == _outcome(oracle_inverse, m, prec), (pattern, d)
            if pattern == "zero row":
                assert got.startswith("ZeroDivisor"), got


def test_sparse_lattice_inverse_forms_only_live_minors(monkeypatch):
    # the d = 6 lattice below has 26 exact-zero entries of 36: its inverse
    # makes 71 `ring.dot` calls (minors, det^{-1} and the live entries of
    # det^{-1} adj), where a minor for every mask makes 273; P cut at the
    # precision has no exact zero and makes all of them
    mod = phitau.basechange_generate(6, seed=3, prec=24)
    assert sum(e.key_floor() is None for row in mod.lattice.rows for e in row) == 26
    calls = 0
    dot = ring.dot

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return dot(*args, **kwargs)

    monkeypatch.setattr(ring, "dot", counting)
    for m, count in ((mod.lattice, 71), (mod.frob.truncate(24), 274)):
        calls = 0
        m.inverse(24)
        assert calls == count


def _with_entry(m, i, j, x):
    rows = [list(row) for row in m.rows]
    rows[i][j] = x
    return MatSeries.from_rows(rows)


def oracle_basechange_generate(d, seed, complexity, p, prec=24):
    """`basechange_generate` as a product loop: each factor is built as
    a d x d matrix, then B = B * factor and B^{-1} = factor^{-1} * B^{-1}."""
    cap = ring.DEFAULT_DENOM_CAP
    rng = random.Random(seed)
    ident = MatSeries.identity(d, p, cap)
    b = binv = ident
    for _ in range(max(1, complexity + d - 1)):
        kind = rng.choice(["elem", "diag"] if d > 1 else ["diag"])
        if kind == "elem":
            i = rng.randrange(d)
            j = rng.randrange(d - 1)
            if j >= i:
                j += 1
            c = rng.randrange(1, p)
            e = rng.randint(0, complexity)
            f = ring.monomial(p, cap, c, 0, e)
            fac, inv = _with_entry(ident, i, j, f), _with_entry(ident, i, j, -f)
        else:
            i = rng.randrange(d)
            c = rng.randrange(1, p)
            e = rng.choice([-1, 0, 0, 1])
            fac = _with_entry(ident, i, i, ring.monomial(p, cap, c, 0, e))
            inv = _with_entry(ident, i, i, ring.monomial(p, cap, pow(c, -1, p), 0, -e))
        b = b * fac
        binv = inv * binv
    return phitau.basechange_from_matrix(b, binv, prec)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_generate_by_row_operations_matches_products(p):
    for d in range(1, phitau.MAX_DIM + 1):
        for complexity in range(4):
            seed = 100 * d + 10 * complexity + p
            got = phitau.basechange_generate(d, seed, complexity=complexity, p=p)
            want = oracle_basechange_generate(d, seed, complexity, p)
            assert phitau.module_to_text(got) == phitau.module_to_text(want), (d, complexity)
            assert mat_view(got.lattice_inv) == mat_view(want.lattice_inv), (d, complexity)


def oracle_val_floor(m):
    """The least entry `val_floor` as a Fraction, exact zeros skipped."""
    return holder.min_known(e.val_floor() for row in m.rows for e in row)


@pytest.mark.parametrize("p, cap", RINGS)
def test_matrix_val_floor_matches_entry_floors(p, cap):
    rng = random.Random(3000 * p + cap)

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return termless(rng, p, cap)
        return random_series(rng, p, cap, rng.choice(KINDS), neg_u=True)

    for d in (1, 2, 3):
        for _ in range(40):
            m = MatSeries.from_rows([[entry() for _ in range(d)] for _ in range(d)])
            got, want = m.val_floor(), oracle_val_floor(m)
            assert got == want and type(got) is type(want), (got, want)
        zeros = MatSeries.from_rows([[ring.zero(p, cap)] * d] * d)
        assert zeros.val_floor() is None and oracle_val_floor(zeros) is None
    # a negative leading key, and a termless cap below every known term
    m = MatSeries.from_rows(
        [
            [ring.monomial(p, cap, 1, Fraction(-1, p), 0), ring.zero(p, cap)],
            [ring.zero(p, cap, -3), ring.one(p, cap)],
        ]
    )
    assert m.val_floor() == oracle_val_floor(m) == -3


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


@st.composite
def gamma_inputs(draw):
    """(g, x, prec): an exact element tau^c gamma_a and a sum x of up to
    three terms c * u^(m/p^k) * t^B with |m| up to 300, of either sign.

    A capped x is known below a key drawn near its least key or near 0,
    up to 40 of the finest v's steps above it, so the powers of w that
    gamma needs reach far past p^L v on a short window, and no inversion
    needs more than those 40 steps.  The unit a may be negative, and for
    a capped x it runs up to p^12, past the p^N that reduces a row.  An
    exact x has |a * m| <= 1000: within the exact-power limit, and small
    enough for the oracle's exact powers."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    cap = 4
    # roots u^(1/p^2) at p >= 5 make gamma invert series of hundreds of terms
    kmax = 2 if p < 5 else 1
    acc = {}
    for _ in range(draw(st.integers(1, 3))):
        eu = Fraction(draw(st.integers(-300, 300)), p ** draw(st.integers(0, kmax)))
        et = Fraction(draw(st.integers(-3, 5)), p ** draw(st.integers(0, 1)))
        mono = ring.mono_of(ring.exponent_units(eu, p, cap), ring.exponent_units(et, p, cap), p)
        acc[mono] = acc.get(mono, 0) + draw(st.integers(1, p - 1))
    if draw(st.booleans()):
        bound, most = None, 1000 // max(1, *(abs(m[1]) * p**kmax // p**cap for m in acc))
    else:
        near = draw(st.sampled_from((0, min(m[0] for m in acc))))
        bound, most = near + draw(st.integers(-3, 40)) * p ** (cap + 1 - kmax), p**12
    d = draw(st.integers(1, p - 1))
    a = draw(st.sampled_from((1, -1))) * (d + p * draw(st.integers(0, max(0, most - d) // p)))
    g = galois.GroupElem(draw(st.integers(-3, 3)), a)
    prec = draw(st.sampled_from((None, Fraction(draw(st.integers(-2, 20)), draw(st.sampled_from((1, p)))))))
    return g, make_series(p, cap, acc, bound), prec


@settings(max_examples=200, deadline=None)
@given(gamma_inputs())
def test_gamma_on_long_exponents_matches_the_oracle(inputs):
    # w^n as a product of digit factors, each a signed sum of kept rows,
    # and its inverse for a negative n, against square-and-multiply and
    # its inverse
    g, x, prec = inputs
    want = _act_or_error(oracle_act, g, x, prec)
    assert _act_or_error(galois.act, g, x, prec) == want, (g, str(x), prec)


@pytest.mark.parametrize("p, a, n", [(3, 2, 2 * 3**9 - 1), (5, 2, 5**6 - 1), (2, 3, 2**15 - 1)])
def test_gamma_on_an_exact_power_of_dense_digits_matches_the_oracle(p, a, n):
    # every base-p digit of n is high, so Lucas(n) holds tens of
    # thousands of j; w^n is formed digit by digit, as the oracle's
    # square-and-multiply forms it by squares, in under a second each
    x = make_series(p, 4, {ring.mono_of(ring.exponent_units(Fraction(n), p, 4), 0, p): 1})
    g = galois.gamma(a)
    assert view(galois.act(g, x)) == view(oracle_act(g, x))


def low_target_terms(x, eff):
    """How many of x's terms with a u exponent leave gamma a target
    eff - (key of their t factor) <= 0, where w = 0 + O(target)."""
    p = x.p
    count = 0
    for m, _ in x.terms:
        eu, et = ring.mono_units(m, p)
        count += eu != 0 and eff is not None and eff - et * (p - 1) <= 0
    return count


def least_representative(g, p):
    """The exact element (c mod p^nacc, a mod p^nacc) of an approximate g."""
    mod = p**g.nacc
    return galois.GroupElem(g.c % mod, g.a % mod)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gamma_matches_eps_minus_one(p):
    # the action forms w = (1+v)^a - 1 from the expansion's terms j >= 1;
    # the oracle keeps eps - one.cut(target), on exact elements
    # (a, a * a^-1) with a * a^-1 = 1 mod p^24 but not 1, which take the
    # gamma path, on terms u^e t^B with e < 0 whose t factor alone reaches
    # the cap, and on exact inputs.  The approximate conjugates
    # gamma_a tau gamma_a^-1, known as (a, a * a^-1) mod p^24, act through
    # their least representative, tau^a
    cap = 6
    rng = random.Random(6000 + p)
    units = [a for a in range(2, 4 * p + 3) if a % p][:4]
    conjugates, near_one = [], []
    for a in units:
        g = galois.compose(galois.compose(galois.gamma(a), galois.tau(1)), galois.inverse(galois.gamma(a), p))
        assert g.a != 1 and (g.a - 1) % p**24 == 0 and g.nacc == 24
        assert least_representative(g, p) == galois.tau(a)
        conjugates.append(g)
        near_one.append(galois.GroupElem(g.c, g.a))
    exact = [galois.gamma(a) for a in units] + [galois.GroupElem(-2, units[-1])]
    low = 0
    for _ in range(12):
        x = random_series(rng, p, cap, "capped", n_max=5, neg_u=True)
        if rng.random() < 0.7:
            # u^A t^B (in units) below the cap, with A < 0 and B * (p-1),
            # the key of its t factor alone, at or past the cap
            b = -(-x.bound // (p - 1))
            a = (x.bound - 1 - b * (p - 1)) // p - rng.randint(0, p**cap)
            x = x + make_series(p, cap, {ring.mono_of(a, b, p): 1}, x.bound)
        prec = rng.choice([None, x.prec + 1, x.prec - 1])
        eff = min_prec(x.bound, ring.key_bound(prec, p, cap))
        low += low_target_terms(x.cut(eff), eff)
        for g in near_one + exact:
            want = _act_or_error(oracle_act, g, x, prec)
            assert _act_or_error(galois.act, g, x, prec) == want, (g, str(x), prec)
        for g in conjugates:
            want = _act_or_error(oracle_act, least_representative(g, p), x, prec)
            assert _act_or_error(galois.act, g, x, prec) == want, (g, str(x), prec)
        exact_x = random_series(rng, p, cap, "exact", neg_u=rng.random() < 0.3)
        for g in exact:
            want = _act_or_error(oracle_act, g, exact_x, None)
            assert _act_or_error(galois.act, g, exact_x, None) == want, (g, str(exact_x))
    assert low > 0


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
        row = galois._eps_terms(mm, k, p, cap, eff - ks[0])
        if any(ks[-1] + dkey >= eff for (dkey, _), _ in row):
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
    # `_apply_tau` stops a column's later terms at the first key past
    # their own bound, which needs the keys in ascending order
    rng = random.Random(11)
    for _ in range(600):
        p = rng.choice((2, 3, 5, 7))
        cap = rng.randint(0, 6)
        k = rng.randint(0, cap)
        if rng.random() < 0.3:
            m, bound = rng.randint(0, 5000), None
        else:
            m, bound = rng.randint(-(10**6), 10**6), rng.randint(-10, 40 * p ** (cap + 1))
        row = galois._eps_terms(m, k, p, cap, bound)
        keys = [key for (key, _), _ in row]
        assert all(a < b for a, b in zip(keys, keys[1:])), (m, k, p, cap, bound)
        assert row == oracle_eps_pow(m, k, p, cap, bound).terms, (m, k, p, cap, bound)


# -- the memo of Lucas rows --------------------------------------------


def _row_or_error(fn, *args):
    try:
        return fn(*args)
    except TiltedError as exc:
        return f"{type(exc).__name__}: {exc}"


def _empty_memo(monkeypatch):
    # the memo's rows and its running count of their terms go together
    monkeypatch.setattr(galois, "_ROWS", {})
    monkeypatch.setattr(galois, "_row_terms", 0)


def _memo_terms():
    held = sum(map(len, galois._ROWS.values()))
    assert held == galois._row_terms
    return held


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_eps_terms_match_the_oracle_through_the_memo(monkeypatch, data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    cap = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, cap))
    if data.draw(st.booleans()):
        m, bound = data.draw(st.integers(-50, 5000)), None
    else:
        m = data.draw(st.integers(-(10**6), 10**6))
        bound = data.draw(st.integers(-10, 40 * p ** (cap + 1)))
    args = (m, k, p, cap, bound)
    want = _row_or_error(lambda *a: oracle_eps_pow(*a).terms, *args)
    monkeypatch.setattr(galois, "ROW_BUDGET", 1 << 12)
    _empty_memo(monkeypatch)
    cold = _row_or_error(galois._eps_terms, *args)
    assert cold == want, args
    warm = _row_or_error(galois._eps_terms, *args)
    assert warm == want, args
    if isinstance(cold, tuple) and len(cold) <= 1 << 12:
        # the warm lookup read the row that the cold one kept
        assert warm is cold
    # (1+u)^4095 over F_2 has 2^12 terms, the whole budget: a memo that
    # held any term is emptied first (cap 7 lies outside the draws), and
    # only a termless row, which costs nothing, may stay
    filler = galois._eps_terms(4095, 0, 2, 7, None)
    assert _memo_terms() == 1 << 12
    assert [row for row in galois._ROWS.values() if row] == [filler]
    assert _row_or_error(galois._eps_terms, *args) == want, args


def test_memo_keeps_to_its_budget(monkeypatch):
    monkeypatch.setattr(galois, "ROW_BUDGET", 8)
    _empty_memo(monkeypatch)
    rng = random.Random(21)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        cap = rng.randint(0, 6)
        k = rng.randint(0, cap)
        m, bound = rng.randint(-200, 200), rng.randint(-10, 8 * p ** (cap + 1))
        row = galois._eps_terms(m, k, p, cap, bound)
        assert row == oracle_eps_pow(m, k, p, cap, bound).terms
        assert _memo_terms() <= 8
    # (1+u)^15 over F_2 has 16 terms: it is right, and it is not kept,
    # nor does it empty the memo
    held = dict(galois._ROWS)
    assert held
    long_row = galois._eps_terms(15, 0, 2, 6, None)
    assert long_row == oracle_eps_pow(15, 0, 2, 6, None).terms and len(long_row) == 16
    assert galois._ROWS == held


def test_passes_leave_the_kept_rows_as_they_are(monkeypatch):
    _empty_memo(monkeypatch)
    p, cap = 3, 6
    x = ring.parse_series("u*t + 2*u^{1/3}*t^{2} + u^{-1}*t^{-1/9} + u^{2} + O(14)", p, cap)
    for g in (galois.gamma(2), galois.tau(5), galois.GroupElem(-2, 4), galois.gamma(2)):
        kept = {key: (row, list(row)) for key, row in galois._ROWS.items()}
        want = _act_or_error(oracle_act, g, x, None)
        assert _act_or_error(galois.act, g, x, None) == want, g
        assert all(type(row) is tuple for row in galois._ROWS.values())
        for key, (row, items) in kept.items():
            assert galois._ROWS[key] is row and list(row) == items
        # and every kept row is what an expansion afresh gives
        assert all(row == galois._lucas_row(*key) for key, row in galois._ROWS.items())
    assert len(galois._ROWS) > 0


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
