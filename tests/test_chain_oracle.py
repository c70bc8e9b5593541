"""`phitau.mat_of`'s base-p chain against the square-and-multiply chain
it replaced, kept here as the oracle: every Mat(tau^c) must have the same
repr, terms and O(.) caps alike, and the chain may take no more matrix
products where the sweeps ask for Mat(g), at g = tau^(m p^j)."""

import random

import pytest

from tilted import galois, phitau, ring
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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_order_independent(p):
    # one chain asked in a shuffled order gives what a fresh one gives
    order = EXPONENTS[:]
    random.Random(p).shuffle(order)
    mods = modules(p)
    for name in ("d=2", "negative"):
        mod = mods[name]
        chain = phitau._TauChain(mod)
        for c in order:
            want = phitau.mat_of(mod, galois.tau(c))
            assert repr(chain.mat(c)) == repr(want), (name, c)


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
    mul = MatSeries.__mul__

    def counting(a, b):
        calls.append(a)
        return mul(a, b)

    with monkeypatch.context() as m:
        m.setattr(MatSeries, "__mul__", counting)
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
