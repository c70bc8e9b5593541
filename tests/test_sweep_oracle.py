"""The level sweeps of `holder.sh_test`, `phitau.matrix_sh_test` and
`phitau.module_sh_test` against the hand-written loops they replaced,
kept here as the oracle: every report must have the same repr, and every
failure the same exception type and message."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilted import galois, holder, phitau, ring
from tilted.errors import DegenerateOrbit
from tilted.holder import FamilyKind, LevelMargin, PPow, ShVerdict, Status, SubgroupFamily

from conftest import series_strategy

# -- the oracle loops -------------------------------------------------


def oracle_orbit_floor(x, g):
    d = galois.act(g, x) - x.truncate(x.prec)
    return d.val(), d.val_floor()


def oracle_sh_test(x, fam, plam, mu, i_max):
    if not isinstance(plam, PPow):
        plam = PPow.rational(plam)
    mu = Fraction(mu)
    p = x.p
    m_samples = holder.default_samples(p)
    margins = []
    witness = None
    inconclusive = False
    for i in range(i_max + 1):
        bound_i = plam.shift(i)
        level_min = None
        level_floor = None
        for m in m_samples:
            g = fam.element(i, m, p)
            v, floor = oracle_orbit_floor(x, g)
            if v is None:
                if floor is not None and bound_i.cmp(floor - mu, p) >= 0:
                    inconclusive = True
                level_floor = floor if level_floor is None else min(level_floor, floor)
                continue
            level_min = v if level_min is None else min(level_min, v)
            if bound_i.cmp(v - mu, p) > 0 and witness is None:
                witness = (i, g)
        if level_min is not None:
            margins.append(LevelMargin(i, level_min, level_min, bound_i, mu))
        else:
            margins.append(LevelMargin(i, None, level_floor, bound_i, mu))
    margins = tuple(margins)
    if witness is not None:
        return ShVerdict(Status.FAIL, margins, witness)
    if inconclusive:
        return ShVerdict(Status.INCONCLUSIVE, margins)
    return ShVerdict(Status.PASS, margins)


def oracle_matrix_sh_test(module, k, plam=None, i_max=2):
    p, d = module.p, module.d
    ident = phitau.MatSeries.identity(d, p, module.cap, module.prec)
    levels = []
    for i in range(i_max + 1):
        vmin = None
        for m in holder.default_samples(p):
            g = galois.tau(m * p ** (k + i))
            diff = phitau.mat_of(module, g) - ident
            floor = diff.val_floor()
            known = [e.val() for row in diff.rows for e in row if e.terms]
            if floor is None or floor not in known:
                continue
            vmin = floor if vmin is None else min(vmin, floor)
        if vmin is None:
            raise DegenerateOrbit("orbit differences vanish to precision")
        levels.append(vmin)
    plam_hat, mu_hat, consistent = holder.fit_exponent(levels, p)
    if plam is None:
        status = Status.PASS if consistent else Status.INCONCLUSIVE
    else:
        plam = plam.q * Fraction(p) ** plam.s if isinstance(plam, PPow) else Fraction(plam)
        status = Status.PASS if consistent and plam_hat == plam else Status.FAIL
    return phitau.MatrixShReport(tuple(levels), plam_hat, mu_hat, consistent, status)


def oracle_module_sh_test(module, k, n=0, i_max=2):
    """One `module_act` (so one `mat_of`) per basis vector and sample."""
    p, d, cap = module.p, module.d, module.cap
    scalar = ring.one(p, cap) if n == 0 else ring.monomial(p, cap, 1, 0, Fraction(1, p**n))
    w_inv = module.lattice_inverse()
    reports = []
    for j in range(d):
        coords = tuple(scalar if l == j else ring.zero(p, cap) for l in range(d))
        tau_levels = []
        tilde_levels = []
        for i in range(i_max + 1):
            vt_min = None
            vtd_min = None
            for m in holder.default_samples(p):
                g = galois.tau(m * p ** (k + i))
                moved = phitau.module_act(module, g, coords)
                diff = tuple(a - b.truncate(module.prec) for a, b in zip(moved, coords))
                vt = phitau.v_tau(diff)
                vtd = phitau.v_tau(w_inv.vecmul(diff))
                if vt is not None:
                    vt_min = vt if vt_min is None else min(vt_min, vt)
                if vtd is not None:
                    vtd_min = vtd if vtd_min is None else min(vtd_min, vtd)
            if vt_min is None or vtd_min is None:
                raise DegenerateOrbit("orbit differences vanish to precision")
            tau_levels.append(vt_min)
            tilde_levels.append(vtd_min)
        reports.append(
            phitau.ModuleShBasisReport(
                j,
                tuple(tau_levels),
                tuple(tilde_levels),
                holder.fit_exponent(tau_levels, p),
                holder.fit_exponent(tilde_levels, p),
            )
        )
    return tuple(reports)


def outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# -- the comparisons ----------------------------------------------------

SERIES = [
    "t",
    "u",
    "t^{1/{p}}+u*t^{2}",
    "u^{1/{p}}*t^{-1}+t^{3}+O(9)",
    "1+u^{3}*t+O(5)",
    "t^{-1/{pp}}+O(3)",
]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", list(FamilyKind))
def test_sh_test_matches_loops(p, kind):
    plams = [Fraction(3, 2), Fraction(p, p - 1), PPow(Fraction(p, p - 1), Fraction(1, 2))]
    for n, text in enumerate(SERIES):
        x = ring.parse_series(text.replace("{pp}", str(p * p)).replace("{p}", str(p)), p, 6)
        fam = SubgroupFamily(kind, 1 + n % 2 if kind is FamilyKind.GAMMA else n % 3)
        plam, mu, i_max = plams[n % 3], n % 3 - 1, 1 + n % 3
        assert outcome(holder.sh_test, x, fam, plam, mu, i_max) == outcome(
            oracle_sh_test, x, fam, plam, mu, i_max
        )


@st.composite
def tau_orbit_cases(draw):
    """(x, tau^c): x exact or capped on the key lattice, so that a
    term's shifted key can land exactly on the bound, and c = +-m p^j
    with j below, near and far beyond the denominator cap."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cap = draw(st.sampled_from([0, 1, 2, 4, 6]))
    prec = draw(
        st.none()
        | st.builds(
            lambda n, e: Fraction(n, (p - 1) * p**e), st.integers(-3, 40 * p), st.integers(0, 2)
        )
    )
    x = draw(series_strategy(p=p, cap=cap, prec=prec))
    m = draw(st.integers(1, 3 * p))
    j = draw(st.sampled_from([0, 1, 2, cap, cap + 1, cap + 3, 20, 45]))
    sign = draw(st.sampled_from([1, -1]))
    return x, galois.tau(sign * m * p**j)


@settings(max_examples=400, deadline=None)
@given(tau_orbit_cases())
# t + O(3) at p = 2: (tau - 1)t leads with u*t, of key 192, exactly the bound
@example((ring.parse_series("t + O(3)", 2, 6), galois.tau(1)))
@example((ring.parse_series("u*t^{-1} + t^{2}", 3, 2), galois.tau(-1)))
@example((ring.parse_series("u + t", 5, 2), galois.tau(5**20)))
@example((ring.parse_series("u^{2} + O(4)", 7, 1), galois.tau(3)))
def test_tau_orbit_floor_matches_act(case):
    x, g = case
    assert outcome(holder._orbit_floor, x, g) == outcome(oracle_orbit_floor, x, g)


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("text", ["t", "u*t^{1/3} + t^{2} + O(12)", "u^{2}*t^{-1} + O(9)"])
def test_tau_sweeps_do_not_act(text, monkeypatch):
    x = ring.parse_series(text, 3, 6)
    acts = _counting(monkeypatch, galois, "act")
    expansions = _counting(monkeypatch, galois, "_eps_terms")
    for i_max in (1, 3):
        holder.sh_test(x, SubgroupFamily(FamilyKind.TAU, 1), Fraction(3, 2), 0, i_max)
    assert (len(acts), len(expansions)) == (0, 0)
    holder.sh_test(x, SubgroupFamily(FamilyKind.GAMMA, 1), Fraction(3, 2), 0, 1)
    assert len(acts) == 2 * 2


def _modules(p):
    for d, seed in ((1, 0), (2, 1)):
        mod = phitau.basechange_generate(d, seed=seed, p=p, prec=18)
        yield mod  # lattice_inv known exactly
        yield phitau.module_from_text(phitau.module_to_text(mod))  # lattice_inv None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_module_sweeps_match_loops(p):
    seen = set()
    for mod in _modules(p):
        for k, i_max, n in ((0, 2, 0), (1, 2, 2), (3, 2, 0)):
            plam = PPow(Fraction(3, 2), Fraction(k)) if k else None
            got = outcome(phitau.matrix_sh_test, mod, k, plam=plam, i_max=i_max)
            assert got == outcome(oracle_matrix_sh_test, mod, k, plam=plam, i_max=i_max)
            got = outcome(phitau.module_sh_test, mod, k, n=n, i_max=i_max)
            assert got == outcome(oracle_module_sh_test, mod, k, n=n, i_max=i_max)
            seen.add(got.startswith("DegenerateOrbit"))
    # both reports and vanishing levels were compared
    assert seen == {True, False}
