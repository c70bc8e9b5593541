"""The level sweeps of `holder.sh_test`, `sh_estimate`,
`nonmembership_witness`, `phitau.matrix_sh_test` and
`phitau.module_sh_test` against the hand-written loops they replaced,
kept here as the oracle: every report must have the same repr, and every
failure the same exception type and message.  The fit oracles measure
every level and then apply the vanished-level rule: the first level at
which some difference vanished to precision raises DegenerateOrbit when
it is level 0 and PrecisionRequired otherwise."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilted import galois, holder, phitau, ring
from tilted.errors import DegenerateOrbit, PrecisionRequired
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


def oracle_vanished(tracks, i_max):
    """The error for the first level at which some track is None, or
    None when every track has a value at every level."""
    dead = [i for i in range(i_max + 1) if any(track[i] is None for track in tracks)]
    if not dead:
        return None
    error = PrecisionRequired if dead[0] else DegenerateOrbit
    return error(f"orbit differences vanish to precision at level {dead[0]} of 0..{i_max}")


def oracle_series_levels(x, fam, i_max):
    """Least exact val((g-1)x) per level 0..i_max, None where every
    sampled difference vanished."""
    p = x.p
    levels = []
    for i in range(i_max + 1):
        vals = [oracle_orbit_floor(x, fam.element(i, m, p))[0] for m in holder.default_samples(p)]
        known = [v for v in vals if v is not None]
        levels.append(min(known) if known else None)
    return levels


def oracle_sh_estimate(x, fam, i_max):
    levels = oracle_series_levels(x, fam, i_max)
    error = oracle_vanished([levels], i_max)
    if error is not None:
        raise error
    return holder.ShEstimate(*holder.fit_exponent(levels, x.p), tuple(levels))


def oracle_witness(x, fam, plam, i_max):
    """Refuted when every margin v_i - p^lambda p^i falls below the one
    before, each fall at least as deep as the last; an exact x that no
    sample moves is certified not refutable."""
    plam = plam if isinstance(plam, PPow) else PPow.rational(plam)
    p = x.p
    levels = oracle_series_levels(x, fam, i_max)
    error = oracle_vanished([levels], i_max)
    if error is not None:
        if x.bound is None and isinstance(error, DegenerateOrbit):
            return holder.WitnessReport(False, (), plam, None)
        raise error
    first_decrease = None
    strictly_decreasing = True
    for i in range(i_max):
        growth = levels[i + 1] - levels[i]
        if PPow(plam.q * (p - 1), plam.s + i).cmp(growth, p) > 0:
            if first_decrease is None:
                first_decrease = i
        else:
            strictly_decreasing = False
    worsening = True
    for i in range(i_max - 1):
        second = levels[i + 2] - 2 * levels[i + 1] + levels[i]
        if PPow(plam.q * (p - 1) ** 2, plam.s + i).cmp(second, p) < 0:
            worsening = False
    refuted = strictly_decreasing and worsening and first_decrease == 0
    return holder.WitnessReport(refuted, tuple(levels), plam, first_decrease)


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
        levels.append(vmin)
    error = oracle_vanished([levels], i_max)
    if error is not None:
        raise error
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
    tracks = []
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
            tau_levels.append(vt_min)
            tilde_levels.append(vtd_min)
        tracks += [tau_levels, tilde_levels]
    error = oracle_vanished(tracks, i_max)
    if error is not None:
        raise error
    return tuple(
        phitau.ModuleShBasisReport(
            j,
            tuple(tau_levels),
            tuple(tilde_levels),
            holder.fit_exponent(tau_levels, p),
            holder.fit_exponent(tilde_levels, p),
        )
        for j, (tau_levels, tilde_levels) in enumerate(zip(tracks[::2], tracks[1::2]))
    )


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
            seen.add(got.startswith(("DegenerateOrbit", "PrecisionRequired")))
    # both reports and vanishing levels were compared
    assert seen == {True, False}


@st.composite
def fit_cases(draw):
    """(x, family, p^lambda, i_max): x exact or capped, so that levels
    vanish at level 0, partway or never."""
    p = draw(st.sampled_from([2, 3, 5]))
    cap = draw(st.sampled_from([1, 2, 4]))
    prec = draw(st.none() | st.integers(0, 12).map(Fraction))
    x = draw(series_strategy(p=p, cap=cap, max_terms=3, prec=prec))
    kind = draw(st.sampled_from(list(FamilyKind)))
    fam = SubgroupFamily(kind, draw(st.integers(kind is FamilyKind.GAMMA, 2)))
    plam = draw(st.sampled_from([Fraction(3, 2), Fraction(p, p - 1), PPow(Fraction(p, p - 1), Fraction(1, 2))]))
    return x, fam, plam, draw(st.integers(2, 3))


@settings(max_examples=150, deadline=None)
@given(fit_cases())
# level 0 moves and level 1 vanishes; u is fixed, exactly and to precision
@example((ring.parse_series("t+O(5)", 3, 6), SubgroupFamily(FamilyKind.TAU, 0), Fraction(2), 2))
@example((ring.parse_series("u", 3, 6), SubgroupFamily(FamilyKind.TAU, 0), Fraction(3), 3))
@example((ring.parse_series("u+O(5)", 3, 6), SubgroupFamily(FamilyKind.TAU, 0), Fraction(3), 2))
@example((ring.parse_series("t", 3, 6), SubgroupFamily(FamilyKind.TAU, 0), PPow(Fraction(3, 2), Fraction(1, 2)), 3))
def test_series_fits_match_loops(case):
    x, fam, plam, i_max = case
    assert outcome(holder.sh_estimate, x, fam, i_max) == outcome(oracle_sh_estimate, x, fam, i_max)
    assert outcome(holder.nonmembership_witness, x, fam, plam, i_max) == outcome(
        oracle_witness, x, fam, plam, i_max
    )


def _dead_level_cases():
    """Each fitting entry point on an input whose first vanished level,
    with i_max = 4, is the one given."""
    tau0 = SubgroupFamily(FamilyKind.TAU, 0)
    x = ring.parse_series("t+O(5)", 3, 6)
    mod = phitau.basechange_generate(1, seed=0, p=5, prec=18)
    return [
        pytest.param(lambda: holder.sh_estimate(x, tau0, 4), 1, id="sh_estimate"),
        pytest.param(lambda: holder.nonmembership_witness(x, tau0, 2, 4), 1, id="witness"),
        pytest.param(lambda: phitau.matrix_sh_test(mod, 0, i_max=4), 2, id="matrix_sh_test"),
        pytest.param(lambda: phitau.module_sh_test(mod, 0, i_max=4), 2, id="module_sh_test"),
    ]


@pytest.mark.parametrize("call, dead", _dead_level_cases())
def test_no_level_after_the_first_vanished_is_measured(call, dead, monkeypatch):
    levels = []
    element = SubgroupFamily.element

    def counted(fam, i, m, p):
        levels.append(i)
        return element(fam, i, m, p)

    monkeypatch.setattr(SubgroupFamily, "element", counted)
    with pytest.raises(PrecisionRequired, match=f"at level {dead} of 0..4"):
        call()
    assert max(levels) == dead
