"""`phitau.mat_of`'s base-p chain against the square-and-multiply chain
it replaced, kept here as the oracle: every Mat(tau^c) must have the same
repr, terms and O(.) caps alike, and the chain may take no more matrix
products where the sweeps ask for Mat(g), at g = tau^(m p^j).  The
chain's `mat` builds the level generators in one loop and stops at a
generator that is its own product; the recursive chain is kept here too,
and every level matrix must match it, also past that generator.  `mat`
reads c only below that generator and folds the digits above it into one
composition; the oracle is the chain whose `unit` built the generators,
with one composition per nonzero divmod digit of c.

The chain inverts Mat(tau^n) before it applies tau^(-n); the oracle
applies tau^(-n) first, as the chain once did, and the equivariance
oracle below checks the two orders on random matrices cut at the
precision.  `phitau.cocycle_check` forms each residual entry as one cut
`ring.dot`; its oracle is the two-product residual
(P phi(M) - M g(P)).truncate(prec).  It also reads the g.P that the
module keeps per g; its oracle there is the check as it was before,
with a fresh action on P and a negated copy of it on every call."""

import dataclasses
import operator
import random
from fractions import Fraction

import pytest

from tilted import galois, holder, phitau, ring
from tilted.phitau import MatSeries

# -- the oracle ---------------------------------------------------------


def oracle_mat_of(module, g):
    prec = module.prec
    c = g.c
    d, p, cap = module.d, module.p, module.cap
    if c == 0:
        return MatSeries.identity(d, p, cap, prec)
    if c < 0:
        pos = oracle_mat_of(module, galois.tau(-c))
        return pos.act(galois.tau(c), prec).inverse(prec)
    base = module.mat_tau.truncate(prec)
    bits = bin(c)[2:]
    acc = base
    n = 1
    for bit in bits[1:]:
        acc = acc * acc.act(galois.tau(n), prec)
        n *= 2
        if bit == "1":
            acc = acc * base.act(galois.tau(n), prec)
            n += 1
        acc = acc.truncate(prec)
    return acc


class RecursiveChain(phitau._TauChain):
    """The chain as it was before its levels were built in a loop: a
    level's generator unit(i, 1) = unit(i - 1, p) recurses through every
    level below it."""

    def unit(self, i, e):
        """Mat(tau^(e p^i)) for 1 <= e <= p, by square-and-multiply."""
        key = (i, e)
        if key not in self.units:
            p = self.p
            if e == 1:
                val = self.unit(i - 1, p)
            elif e % 2:
                val = self._compose(self.unit(i, e - 1), (e - 1) * p**i, self.unit(i, 1))
            else:
                half = self.unit(i, e // 2)
                val = self._compose(half, e // 2 * p**i, half)
            self.units[key] = val
        return self.units[key]


class LoopChain(phitau._TauChain):
    """The chain as it was before `mat` built the generators: unit(i, e)
    builds the missing generators Mat(tau^(p^(j+1))) = unit(j, p) in a
    loop, up from the highest level built, and stops at a fixed generator,
    which it returns for every level above it."""

    def unit(self, i, e):
        while self.top < i:
            top = self.units[self.top, 1]
            if phitau._is_fixed(top):
                return top
            self.units[self.top + 1, 1] = self.unit(self.top, self.p)
            self.top += 1
        return super().unit(i, e)


def oracle_digits(c, p):
    """c's base-p digits, lowest first, by one divmod per digit."""
    digits = []
    while c:
        c, e = divmod(c, p)
        digits.append(e)
    return digits


class DigitChain(LoopChain):
    """The chain as it was before the digits above a fixed generator were
    folded: one composition per nonzero digit of c."""

    def mat(self, c):
        if c <= 0:
            return super().mat(c)
        acc = None
        for i, e in enumerate(oracle_digits(c, self.p)):
            if e:
                high = self.unit(i, e)
                acc = high if acc is None else self._compose(high, e * self.p**i, acc)
        return acc


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def caps(mat):
    return [e.prec for row in mat.rows for e in row]


def _vp(c, p):
    """The exponent of p in c != 0."""
    k = 0
    while c % p == 0:
        c //= p
        k += 1
    return k


# -- the modules --------------------------------------------------------

PREC = 12
EXPONENTS = list(range(-3, 41)) + [81, 243]


def negative_module(p, full=False):
    """B = diag(t^-1, t) (I + t^-k E_01), k = 3 at p = 2 and 2 above, so
    that Mat(tau) has an entry of negative valuation and caps below the
    module's, and products take the lowered key bounds.  ``full`` adds
    the factor (I + E_10) on the right, which fills the matrix.  Returns
    the module, B and B^-1."""

    def mat(*rows):
        return MatSeries.from_rows([[ring.parse_series(x, p) for x in row] for row in rows])

    k = 3 if p == 2 else 2
    e, minus_e = ("1", str(p - 1)) if full else ("0", "0")
    b = mat(("t^{-1}", "0"), ("0", "t")) * mat(("1", f"t^{{-{k}}}"), ("0", "1"))
    b = b * mat(("1", "0"), (e, "1"))
    binv = mat(("1", "0"), (minus_e, "1")) * mat(("1", f"{p - 1}*t^{{-{k}}}"), ("0", "1"))
    binv = binv * mat(("t", "0"), ("0", "t^{-1}"))
    return phitau.basechange_from_matrix(b, binv, PREC), b, binv


def modules(p):
    mods = {f"d={d}": phitau.basechange_generate(d, seed=d + p, p=p, prec=PREC) for d in (1, 2, 3)}
    text = phitau.module_to_text(mods["d=2"]).split("[lattice]")[0]
    mods["file"] = phitau.module_from_text(text)
    mods["negative"] = negative_module(p)[0]
    return mods


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_negative_module_lowers_caps(p, full):
    mod = negative_module(p, full)[0]
    assert mod.mat_tau.val_floor() < 0
    assert min(caps(mod.mat_tau)) < mod.prec
    assert min(caps(phitau.mat_of(mod, galois.tau(p + 1)))) < min(caps(mod.mat_tau))


# -- the comparisons ----------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_matches_binary_chain(p):
    for name, mod in modules(p).items():
        for c in EXPONENTS:
            g = galois.tau(c)
            assert outcome(phitau.mat_of, mod, g) == outcome(oracle_mat_of, mod, g), (name, c)
    # the inverse-first order of a negative c, where the minors are many
    for d in (4, 5):
        mod = phitau.basechange_generate(d, seed=d + p, p=p, prec=PREC)
        for c in (-1, -2, -3):
            g = galois.tau(c)
            assert outcome(phitau.mat_of, mod, g) == outcome(oracle_mat_of, mod, g), (d, c)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_order_independent(p):
    # a module's chain asked in a shuffled order gives what a fresh copy
    # of the module gives
    order = EXPONENTS[:]
    random.Random(p).shuffle(order)
    mods = modules(p)
    for name in ("d=2", "negative"):
        mod = mods[name]
        for c in order:
            g = galois.tau(c)
            want = phitau.mat_of(dataclasses.replace(mod), g)
            assert repr(phitau.mat_of(mod, g)) == repr(want), (name, c)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_level_loop_matches_recursive_chain(p):
    # every level matrix, asked in a shuffled order of one chain, is the
    # recursive chain's: the loop keeps each composition and its order.
    # Products are associative, so only the caps can tell a bracketing
    # apart, and they do on the full negative module.
    keys = [(i, e) for i in range(41) for e in range(1, p + 1)]
    random.Random(p).shuffle(keys)
    mods = modules(p)
    mods["full negative"] = negative_module(p, full=True)[0]
    for name, mod in mods.items():
        chain = phitau._TauChain(mod.mat_tau, mod.prec)
        oracle = RecursiveChain(mod.mat_tau, mod.prec)
        for i, e in keys:
            assert repr(chain.mat(e * p**i)) == repr(oracle.unit(i, e)), (name, i, e)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_chain_stops_at_a_fixed_generator(p):
    # every module here reaches a generator that `_is_fixed` accepts; the
    # chain builds no level above it, and each level there, up to 10 past
    # it, is still the recursive chain's
    mods = modules(p)
    mods["full negative"] = negative_module(p, full=True)[0]
    for name, mod in mods.items():
        chain = phitau._TauChain(mod.mat_tau, mod.prec)
        oracle = RecursiveChain(mod.mat_tau, mod.prec)
        top = next(i for i in range(20) if phitau._is_fixed(oracle.unit(i, 1)))
        for i in range(top + 11):
            for e in range(1, p + 1):
                assert repr(chain.mat(e * p**i)) == repr(oracle.unit(i, e)), (name, i, e)
        assert chain.mat(p ** 10**6) is chain.mat(p**top)
        assert chain.top == top, name


def above_the_fixed_level(rng, p):
    """c > 0 of 30 to 60 base-p digits, its lowest digits often zero, and
    p^60 with one digit below it."""
    cases = [p**60, p**60 + 1]
    for _ in range(6):
        c = rng.randrange(p**30, p**60)
        cases.append(c - c % p ** rng.randrange(3))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_folded_digits_match_digit_by_digit(p):
    # the digits above the fixed generator make one composition, with the
    # series and caps of one composition per digit, also where the caps
    # depend on the chain; a negative c inverts the same matrix
    rng = random.Random(p)
    mods = modules(p)
    mods["full negative"] = negative_module(p, full=True)[0]
    for name, mod in mods.items():
        oracle = DigitChain(mod.mat_tau, mod.prec)
        for c in above_the_fixed_level(rng, p) + [-(p**40) - 1]:
            got = outcome(phitau.mat_of, mod, galois.tau(c))
            assert got == outcome(oracle.mat, c), (name, c)
        assert oracle.top == mod._tau_chain.top < 30, name


def test_one_composition_above_the_fixed_level(monkeypatch):
    # c of 8,500 base-3 digits: with every level up to the fixed one
    # built, Mat(tau^c) takes one composition per nonzero digit up to that
    # level, after the lowest, and one for all the digits above it
    mod = phitau.basechange_generate(2, seed=4, p=3, prec=PREC)
    chain = mod._tau_chain
    rng = random.Random(8500)
    cs = [rng.randrange(3**8499, 3**8500) for _ in range(3)]
    phitau.mat_of(mod, galois.tau(cs[0]))
    for i in range(chain.top + 1):
        for e in range(1, 4):
            chain.unit(i, e)
    composes = []
    compose = phitau._TauChain._compose

    def counting(self, *args):
        composes.append(args)
        return compose(self, *args)

    monkeypatch.setattr(phitau._TauChain, "_compose", counting)
    for c in cs:
        composes.clear()
        phitau.mat_of(mod, galois.tau(c))
        below = sum(1 for e in oracle_digits(c, 3)[: chain.top + 1] if e)
        assert len(composes) == below <= chain.top + 1, c


def _capped_identity(rng, p, d):
    """Id with a random cap on every entry: 1 + O(q) on the diagonal,
    O(q) off it, each q at most PREC and off the diagonal maybe <= 0."""
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            q = Fraction(rng.randint(1 if i == j else -3, 2 * PREC), 2)
            row.append(ring.one(p).truncate(q) if i == j else ring.zero(p, prec=q))
        rows.append(row)
    return MatSeries.from_rows(rows)


def test_fixed_matrices_are_their_own_products():
    # `_is_fixed(M)` exactly when the chain's product M tau^a(M), cut at
    # the precision, is M again, caps included
    rng = random.Random(3)
    seen = set()
    for _ in range(400):
        p, d = rng.choice([2, 3, 5]), rng.randint(1, 4)
        mat = _capped_identity(rng, p, d)
        a = rng.choice([1, 2, p, p**3 + 1])
        fixed = repr((mat * mat.act(galois.tau(a), PREC)).truncate(PREC)) == repr(mat)
        assert phitau._is_fixed(mat) == fixed, mat
        seen.add(fixed)
    assert seen == {True, False}
    # terms other than Id's are never fixed
    assert not phitau._is_fixed(phitau.basechange_generate(2, seed=1).mat_tau)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_full_negative_module_caps(p):
    # Where Mat(tau) has entries of negative valuation off a triangle, each
    # product lowers the caps by its own factors, so the caps depend on the
    # chain: the binary chain's Mat(tau^8) at p = 7 is three squares, the
    # base-p chain's goes through Mat(tau^7).  Both are right below their
    # caps, and at the sweep elements tau^(m p^j) the base-p caps are
    # never lower.
    mod, b, binv = negative_module(p, full=True)
    lower = []
    for c in EXPONENTS:
        g = galois.tau(c)
        got, old = phitau.mat_of(mod, g), oracle_mat_of(mod, g)
        exact = binv * b.act(g, 3 * PREC)
        assert all(x >= y for x, y in zip(caps(exact), caps(got)))
        for want, mat in ((exact, got), (got, old)):
            for row_a, row_b in zip(want.rows, mat.rows):
                assert all(ring.eq_to_prec(x, y) for x, y in zip(row_a, row_b)), c
        if any(x < y for x, y in zip(caps(got), caps(old))):
            lower.append(c)
    assert not [c for c in lower if c > 0 and c // p ** _vp(c, p) < p]


def count_products(monkeypatch, fn, *args):
    calls = []
    mul = MatSeries.mul

    def counting(a, b, prec=None):
        calls.append(a)
        return mul(a, b, prec)

    with monkeypatch.context() as m:
        m.setattr(MatSeries, "mul", counting)
        fn(*args)
    return len(calls)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_no_more_products_at_sweep_elements(p, monkeypatch):
    mod = phitau.basechange_generate(1, seed=p, p=p, prec=PREC)
    for j in range(6):
        for m in range(1, p):
            g = galois.tau(m * p**j)
            new = count_products(monkeypatch, phitau.mat_of, mod, g)
            old = count_products(monkeypatch, oracle_mat_of, mod, g)
            assert new <= old, (m, j)


def test_large_p_digit_by_square_and_multiply(monkeypatch):
    # one digit e = 100 < p takes a binary chain, not 99 products
    mod = phitau.basechange_generate(1, seed=0, p=101, prec=PREC)
    g = galois.tau(100)
    assert count_products(monkeypatch, oracle_mat_of, mod, g) == 8
    assert count_products(monkeypatch, phitau.mat_of, mod, g) <= 8
    assert repr(phitau.mat_of(mod, g)) == repr(oracle_mat_of(mod, g))


# -- tau commutes with the inverse of a cut matrix ----------------------


def random_entry(rng, p, cap):
    """The exact zero, a zero known mod O(q), or a few monomials with
    integer t-exponents of either sign and u-exponents >= 0 (exponents
    in p^-1 Z make inverses of many thousand terms at p = 7)."""
    kind = rng.random()
    if kind < 0.15:
        return ring.zero(p, cap)
    if kind < 0.25:
        return ring.zero(p, cap, rng.randint(0, 6))
    x = ring.zero(p, cap)
    for _ in range(rng.randint(1, 3)):
        x = x + ring.monomial(p, cap, rng.randint(1, p - 1), rng.randint(0, 2), rng.randint(-1, 3))
    return x


def random_cut_matrix(rng, d, p, prec):
    """A random matrix cut at prec; one in two is Id plus entries of
    positive valuation, so that it inverts."""
    cap = ring.DEFAULT_DENOM_CAP
    rows = [[random_entry(rng, p, cap) for _ in range(d)] for _ in range(d)]
    m = MatSeries.from_rows(rows)
    if rng.random() < 0.5:
        m = m.scale_series(ring.t_var(p, cap)) + MatSeries.identity(d, p, cap)
    return m.truncate(prec)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_tau_commutes_with_inverse_of_cut_matrices(d, p):
    # tau keeps every leading monomial and every cap, so on a matrix cut
    # at prec both orders give the same repr, or the same exception
    prec = 6
    rng = random.Random(100 * d + p)
    inverted = 0
    for _ in range(36):
        m = random_cut_matrix(rng, d, p, prec)
        for c in (1, -1, 2, -2, p, -p, 3 * p + 1):
            g = galois.tau(c)
            first_act = outcome(lambda: m.act(g, prec).inverse(prec))
            first_inv = outcome(lambda: m.inverse(prec).act(g, prec))
            assert first_act == first_inv, (d, p, c, repr(m))
            inverted += first_act.startswith("MatSeries")
    assert inverted >= 36 * 7 // 3


def test_uncut_exact_zero_breaks_the_reorder():
    # why the chain alone inverts first: on an uncut matrix the action
    # turns an exact zero into O(prec), so the orders raise differently
    m = MatSeries.from_rows([[ring.zero(3)]])
    g = galois.tau(-1)
    assert outcome(lambda: m.act(g, PREC).inverse(PREC)).startswith("PrecisionRequired")
    assert outcome(lambda: m.inverse(PREC).act(g, PREC)).startswith("ZeroDivisor")
    cut = m.truncate(PREC)
    assert outcome(lambda: cut.act(g, PREC).inverse(PREC)) == outcome(
        lambda: cut.inverse(PREC).act(g, PREC)
    )


# -- the cocycle residual -----------------------------------------------


def oracle_cocycle(module, g):
    """(ok, floor) of the two-product residual, its floor the least entry
    `val_floor` as a Fraction."""
    prec = module.prec
    mat_g = phitau.mat_of(module, g)
    lhs = module.frob.truncate(prec) * mat_g.frobenius()
    rhs = mat_g * module.frob.act(g, prec)
    resid = (lhs - rhs).truncate(prec)
    floor = holder.min_known(e.val_floor() for row in resid.rows for e in row)
    return resid.is_zero(), floor


def perturbed(mod):
    """mod with t added to Mat(tau)[0][0], so that the cocycle fails."""
    rows = [list(row) for row in mod.mat_tau.rows]
    rows[0][0] = (rows[0][0] + ring.t_var(mod.p, mod.cap)).truncate(mod.prec)
    return dataclasses.replace(mod, mat_tau=MatSeries.from_rows(rows))


def scaled(mod):
    """mod with P scaled by t^6 and Mat(tau) by t^7: every product's cap
    lies above the precision, so only the cut at it sets the residual's
    cap, and terms above it must go."""
    def t_pow(e):
        return ring.monomial(mod.p, mod.cap, 1, 0, e)

    return dataclasses.replace(
        mod,
        frob=mod.frob.scale_series(t_pow(6)),
        mat_tau=mod.mat_tau.scale_series(t_pow(7)).truncate(mod.prec),
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cocycle_residual_matches_two_products(p):
    mods = modules(p)
    mods["d=4"] = phitau.basechange_generate(4, seed=4 + p, p=p, prec=PREC)
    broken = {"perturbed": perturbed(mods["d=2"]), "scaled": scaled(mods["d=2"])}
    for name, mod in {**mods, **broken}.items():
        verdicts = []
        for g in (*map(galois.tau, (1, 2, p, -1)), galois.GroupElem(1, 2)):
            got = outcome(phitau.cocycle_check, mod, g)
            assert got == outcome(oracle_cocycle, mod, g), (name, g)
            verdicts.append(got.split(",")[0])
        # gamma_2 is no unit at p = 2
        assert ("(False" in verdicts) == (name in broken), (name, verdicts)


def oracle_cocycle_check(module, g):
    """`cocycle_check` as it was before the module kept g.P: a fresh
    action on P, a negated copy of it, and per entry one `ring.dot` over
    the d pairs of each product in two blocks."""
    prec = module.prec
    mat_g = phitau.mat_of(module, g)
    bound = ring.key_bound(prec, module.p, module.cap)
    phi_cols = tuple(zip(*mat_g.frobenius().rows))
    neg_cols = tuple(zip(*module.frob.act(g, prec).map(operator.neg).rows))
    resid = MatSeries.from_rows(
        [
            [
                ring.dot([*zip(frob_row, phi_col), *zip(mat_row, neg_col)], cut=bound)
                for phi_col, neg_col in zip(phi_cols, neg_cols)
            ]
            for frob_row, mat_row in zip(module.frob.truncate(prec).rows, mat_g.rows)
        ]
    )
    return resid.is_zero(), resid.val_floor()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kept_image_cocycle_matches_fresh_action(p):
    # each call twice on one module: the second reads the kept g.P.  The
    # approximate elements act where they are known well enough (nacc = 2
    # at p > 2) and raise on both calls where not, so no refusal is kept
    approx = [galois.inverse(galois.gamma(p + 1), p, nacc=n) for n in (2, 1)]
    elems = [galois.GroupElem(c, a) for c in (-p, -1, 0, 1, 2, p + 1) for a in (1, p + 1)]
    refused = 0
    for d in (1, 2, 3):
        mod = phitau.basechange_generate(d, seed=d + p, p=p, prec=PREC)
        for name, m in (("generated", mod), ("perturbed", perturbed(mod))):
            for g in (*elems, *approx):
                want = outcome(oracle_cocycle_check, m, g)
                for _ in range(2):
                    assert outcome(phitau.cocycle_check, m, g) == want, (d, name, g)
                if want.startswith("InsufficientGroupAccuracy"):
                    refused += 1
                    assert g not in m._frob_images, (d, name)
    assert refused
