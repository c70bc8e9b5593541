"""The level sweeps of `holder.sh_test`, `sh_estimate`,
`nonmembership_witness`, `phitau.matrix_sh_test` and
`phitau.module_sh_test` against the hand-written loops they replaced,
kept here as the oracle: every report must have the same repr, and every
failure the same exception type and message.  The fit oracles measure
every level and then apply the vanished-level rule: the first level at
which some difference vanished to precision raises DegenerateOrbit when
it is level 0 and PrecisionRequired otherwise.

The series sweeps read each level's generator m = 1 alone, whose value
is the least over the whole level; the series oracles act with every
sample, skipping a sample m >= 2 whose exact expansion the action
refuses.

The sweeps decide and fit on the key lattice and build each reported
Fraction and bound once.  The oracles fit in Fraction arithmetic
(`oracle_fit_exponent`), and the `fraction_*` sweeps read the same
levels as the library but decide and report in Fraction arithmetic: a
validated `PPow(q, s + i)` per level, and margins and levels converted
by `ring.bound_prec`."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilted import galois, holder, phitau, ring
from tilted.errors import DegenerateOrbit, PrecisionRequired
from tilted.holder import FamilyKind, LevelMargin, PPow, ShVerdict, Status, SubgroupFamily

from conftest import series_strategy

# -- the oracle loops -------------------------------------------------


def oracle_fit_exponent(levels, p):
    """Fit (p^lambda, mu) to level minima v_0, v_1, ..., using
    v_{i+1} - v_i = p^lambda p^i (p-1); returns (p^lambda, mu, consistent)
    where consistent says every consecutive pair gives the same p^lambda."""
    cands = [Fraction(levels[i + 1] - levels[i], p**i * (p - 1)) for i in range(len(levels) - 1)]
    plam_hat = cands[0]
    consistent = all(c == plam_hat for c in cands)
    mu_hat = levels[0] - plam_hat
    return plam_hat, mu_hat, consistent


def oracle_orbit_floor(x, g):
    d = galois.act(g, x) - x.truncate(x.prec)
    return d.val(), d.val_floor()


def sampled_orbit_floors(x, fam, i):
    """(m, value, floor) of (g-1)x for each sample g = fam.element(i, m, p),
    skipping a sample m >= 2 whose exact expansion the action refuses: the
    generator m = 1 stands for the whole level, and its own refusal is
    raised."""
    rows = []
    for m in holder.default_samples(x.p):
        try:
            rows.append((m, *oracle_orbit_floor(x, fam.element(i, m, x.p))))
        except PrecisionRequired:
            if m == 1:
                raise
    return rows


def oracle_sh_test(x, fam, plam, mu, i_max):
    if not isinstance(plam, PPow):
        plam = PPow(plam)
    mu = Fraction(mu)
    p = x.p
    margins = []
    witness = None
    inconclusive = False
    for i in range(i_max + 1):
        bound_i = PPow(plam.q, plam.s + i)
        level_min = None
        level_floor = None
        for m, v, floor in sampled_orbit_floors(x, fam, i):
            if v is None:
                if floor is not None and bound_i.cmp(floor - mu, p) >= 0:
                    inconclusive = True
                level_floor = floor if level_floor is None else min(level_floor, floor)
                continue
            level_min = v if level_min is None else min(level_min, v)
            if bound_i.cmp(v - mu, p) > 0 and witness is None:
                witness = (i, fam.element(i, m, p))
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
    levels = []
    for i in range(i_max + 1):
        known = [v for _, v, _ in sampled_orbit_floors(x, fam, i) if v is not None]
        levels.append(min(known) if known else None)
    return levels


def oracle_sh_estimate(x, fam, i_max):
    levels = oracle_series_levels(x, fam, i_max)
    error = oracle_vanished([levels], i_max)
    if error is not None:
        raise error
    return holder.ShEstimate(*oracle_fit_exponent(levels, x.p), tuple(levels))


def oracle_witness(x, fam, plam, i_max):
    """Refuted when every margin v_i - p^lambda p^i falls below the one
    before, each fall at least as deep as the last; an exact x that no
    sample moves is certified not refutable."""
    plam = plam if isinstance(plam, PPow) else PPow(plam)
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
    plam_hat, mu_hat, consistent = oracle_fit_exponent(levels, p)
    if plam is None:
        status = Status.PASS if consistent else Status.INCONCLUSIVE
    else:
        plam = plam.q * Fraction(p) ** plam.s if isinstance(plam, PPow) else Fraction(plam)
        status = Status.PASS if consistent and plam_hat == plam else Status.FAIL
    return phitau.MatrixShReport(tuple(levels), plam_hat, mu_hat, consistent, status)


def oracle_certified(vec):
    """The least valuation of vec when a known term attains vec's floor,
    the least `val_floor` of its entries; else None (vanished to
    precision)."""
    floors = [e.val_floor() for e in vec if e.val_floor() is not None]
    known = [e.val() for e in vec if e.terms]
    floor = min(floors, default=None)
    return floor if floor is not None and floor in known else None


def oracle_module_sh_test(module, k, n=0, i_max=2):
    """One `module_act` (so one `mat_of`) per basis vector and sample;
    without a lattice the lattice levels and fit are None.  A sample
    counts only when `oracle_certified` gives it a value."""
    p, d, cap = module.p, module.d, module.cap
    scalar = ring.one(p, cap) if n == 0 else ring.monomial(p, cap, 1, 0, Fraction(1, p**n))
    w_inv = module.lattice_inverse() if module.lattice is not None else None
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
                vt = oracle_certified(diff)
                vtd = oracle_certified(w_inv.vecmul(diff)) if w_inv is not None else None
                if vt is not None:
                    vt_min = vt if vt_min is None else min(vt_min, vt)
                if vtd is not None:
                    vtd_min = vtd if vtd_min is None else min(vtd_min, vtd)
            tau_levels.append(vt_min)
            tilde_levels.append(vtd_min)
        tracks += [tau_levels, tilde_levels if w_inv is not None else None]
    error = oracle_vanished([t for t in tracks if t is not None], i_max)
    if error is not None:
        raise error
    return tuple(
        phitau.ModuleShBasisReport(
            j,
            tuple(tau_levels),
            tilde_levels and tuple(tilde_levels),
            oracle_fit_exponent(tau_levels, p),
            tilde_levels and oracle_fit_exponent(tilde_levels, p),
        )
        for j, (tau_levels, tilde_levels) in enumerate(zip(tracks[::2], tracks[1::2]))
    )


# -- the sweeps as they read on Fraction levels ---------------------------


def fraction_sh_test(x, fam, plam, mu, i_max):
    """`holder.sh_test` with a validated `PPow(q, s + i)` per level and its
    margins converted by `ring.bound_prec`, once each for the observed
    value and its floor."""
    plam = PPow.of(plam)
    mu = Fraction(mu)
    p, cap = x.p, x.cap
    if i_max < 0:
        raise ValueError("need i_max >= 0 to test any level")
    margins = []
    witness = None
    inconclusive = False
    for i, (v, floor) in enumerate(holder._series_levels(x, fam, i_max)):
        bound_i = PPow(plam.q, plam.s + i)
        observed_floor = ring.bound_prec(floor, p, cap)
        observed = None if v is None else ring.bound_prec(v, p, cap)
        if observed is None:
            if not inconclusive and floor is not None and bound_i.cmp(observed_floor - mu, p) >= 0:
                inconclusive = True
        elif witness is None and bound_i.cmp(observed - mu, p) > 0:
            witness = (i, fam.element(i, 1, p))
        margins.append(LevelMargin(i, observed, observed_floor, bound_i, mu))
    margins = tuple(margins)
    if witness is not None:
        return ShVerdict(Status.FAIL, margins, witness)
    if inconclusive:
        return ShVerdict(Status.INCONCLUSIVE, margins)
    return ShVerdict(Status.PASS, margins)


def fraction_levels(x, fam, i_max):
    return tuple(ring.bound_prec(k, x.p, x.cap) for k in holder._series_fit_keys(x, fam, i_max))


def fraction_sh_estimate(x, fam, i_max):
    levels = fraction_levels(x, fam, i_max)
    return holder.ShEstimate(*oracle_fit_exponent(levels, x.p), levels)


def fraction_witness(x, fam, plam, i_max):
    """`holder.nonmembership_witness` on Fraction levels: m_{i+1} < m_i is
    v_{i+1} - v_i < p^lambda p^i (p-1), and the falls worsen when each
    second difference lies at or below p^lambda p^i (p-1)^2."""
    plam = PPow.of(plam)
    p = x.p
    try:
        levels = fraction_levels(x, fam, i_max)
    except DegenerateOrbit:
        if x.bound is not None:
            raise
        return holder.WitnessReport(False, (), plam, None)
    steps = [b - a for a, b in zip(levels, levels[1:])]
    falls = [PPow(plam.q * (p - 1), plam.s + i).cmp(steps[i], p) > 0 for i in range(i_max)]
    worsening = all(
        PPow(plam.q * (p - 1) ** 2, plam.s + i).cmp(steps[i + 1] - steps[i], p) >= 0
        for i in range(i_max - 1)
    )
    first_decrease = falls.index(True) if True in falls else None
    return holder.WitnessReport(all(falls) and worsening, levels, plam, first_decrease)


def fraction_matrix_sh_test(module, k, plam=None, i_max=2):
    """`phitau.matrix_sh_test` measured by the Fraction `v_tau`."""
    if plam is not None:
        plam = PPow.of(plam)
    fam = SubgroupFamily(FamilyKind.TAU, k)
    p = module.p
    ident = module._tau_chain.mat(0)

    def measure(g):
        return (phitau.v_tau(e for row in (phitau.mat_of(module, g) - ident).rows for e in row),)

    (levels,) = holder.fit_levels(measure, fam, p, i_max)
    plam_hat, mu_hat, consistent = oracle_fit_exponent(levels, p)
    if plam is None:
        status = Status.PASS if consistent else Status.INCONCLUSIVE
    elif consistent and plam.cmp(plam_hat, p) == 0:
        status = Status.PASS
    else:
        status = Status.FAIL
    return phitau.MatrixShReport(levels, plam_hat, mu_hat, consistent, status)


def fraction_module_sh_test(module, k, n=0, i_max=2):
    """`phitau.module_sh_test` measured by the Fraction `v_tau`."""
    p, d, cap, prec = module.p, module.d, module.cap, module.prec
    if n < 0:
        raise ValueError(f"need n >= 0 to scale by t^(1/p^n), got n={n}")
    fam = SubgroupFamily(FamilyKind.TAU, k)
    scalar = ring.one(p, cap) if n == 0 else ring.monomial(p, cap, 1, 0, Fraction(1, p**n))
    scaled = module._tau_chain.mat(0).scale_series(scalar).truncate(prec)
    w_inv = module.lattice_inverse() if module.lattice is not None else None

    def measure(g):
        diff = phitau.mat_of(module, g).scale_series(galois.act(g, scalar, prec)) - scaled
        mats = (diff,) if w_inv is None else (diff, w_inv * diff)
        return [phitau.v_tau(col) for mat in mats for col in zip(*mat.rows)]

    levels = holder.fit_levels(measure, fam, p, i_max)
    return tuple(
        phitau.ModuleShBasisReport(
            j, vt, vtd, oracle_fit_exponent(vt, p), vtd and oracle_fit_exponent(vtd, p)
        )
        for j, (vt, vtd) in enumerate(zip(levels[:d], levels[d:] or (None,) * d))
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
# n = cB at the exact expansion limit 100000, on either side of it
@example((ring.parse_series("t", 2, 0), galois.tau(2**16)))
@example((ring.parse_series("t", 2, 0), galois.tau(3 * 2**17)))
# v_p(c) far past anything a term can use: c is stripped only so far
@example((ring.parse_series("t + O(20)", 3, 6), galois.tau(3**100000)))
@example((ring.parse_series("t", 3, 6), galois.tau(3**100000)))
def test_tau_orbit_floor_matches_act(case):
    # the table's level k = v_p(c) is the generator tau^(p^k)'s, outcome
    # for outcome; every other element of the level has the same value
    # wherever both actions answer
    x, g = case
    k = split_p(g.c, x.p)[0]
    keyed = outcome(keyed_orbit_floor, x, k)
    assert keyed == outcome(oracle_orbit_floor, x, galois.tau(x.p**k))
    acted = outcome(oracle_orbit_floor, x, g)
    if not any(o.startswith("PrecisionRequired") for o in (keyed, acted)):
        assert keyed == acted


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("text", ["t", "t + u*t^{2}", "t^{-1}"])
def test_refusal_by_the_level_alone_matches_act(p, text):
    # at 640 printable digits, a level 4*640 or more above the cap refuses
    # before p^(k+i) is built; on either side of that line, and of the
    # level where n first has more than 640 digits (2126 above the cap at
    # p = 2), the refusal is the action's own
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        x = ring.parse_series(text, p, 2)
        for above in (640, 1000, 2126, 2127, 2559, 2560, 2561):
            k = x.cap + above
            assert outcome(keyed_orbit_floor, x, k) == outcome(oracle_orbit_floor, x, galois.tau(p**k))
    finally:
        sys.set_int_max_str_digits(limit)


def split_p(c, p):
    """(v_p(c), c / p^v_p(c)) for c != 0, in O(log v_p(c)) divisions:
    c / p is split at p^2, whose unit part may keep one factor p."""
    if c % p:
        return 0, c
    v, u = split_p(c // p, p * p)
    if u % p:
        return 1 + 2 * v, u
    return 2 + 2 * v, u // p


def keyed_orbit_floor(x, k):
    """The first level of `holder._tau_levels` at base level k, as the
    (value, floor) valuations it stands for."""
    key = next(holder._tau_levels(x, k))
    keys = (None, x.bound) if key is None else (key, key)
    return tuple(None if k is None else Fraction(k, (x.p - 1) * x.p**x.cap) for k in keys)


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
    # a gamma sweep acts once per level, up to its first vanished level
    verdict = holder.sh_test(x, SubgroupFamily(FamilyKind.GAMMA, 1), Fraction(3, 2), 0, 3)
    observed = [m.observed for m in verdict.margins]
    assert len(acts) == (observed.index(None) + 1 if None in observed else len(observed))


@pytest.mark.parametrize("text", ["t", "u*t^{1/3} + t^{2} + O(12)", "u^{2}*t^{-1} + u + O(9)"])
def test_tau_sweeps_read_each_term_once(text, monkeypatch):
    # one table of x's terms per sweep, not one read per sample and level
    x = ring.parse_series(text, 3, 6)
    fam = SubgroupFamily(FamilyKind.TAU, 1)
    units = _counting(monkeypatch, ring, "mono_units")
    sweeps = [
        (holder.sh_test, x, fam, Fraction(3, 2), 0, 3),
        (holder.sh_estimate, x, fam, 3),
        (holder.nonmembership_witness, x, fam, Fraction(3, 2), 3),
    ]
    for sweep in sweeps:
        units.clear()
        outcome(*sweep)
        assert len(units) == len(x.terms), sweep[0].__name__


def _modules(p):
    for d, seed in ((1, 0), (2, 1), (3, 2)):
        mod = phitau.basechange_generate(d, seed=seed, p=p, prec=18)
        yield mod  # lattice_inv known exactly
        yield phitau.module_from_text(phitau.module_to_text(mod))  # lattice_inv None
    yield phitau.make_module(mod.frob, mod.mat_tau, mod.prec)  # no lattice


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


def test_module_sweep_certifies_each_column():
    # at level 2 the lattice column of j = 1 is (O(5), u^{3}*t^{4/3} + O(19/3)):
    # its least known valuation 35/6 lies above the cap 5, so only >= 5 is
    # certified and the sample vanished to precision
    mod = phitau.basechange_generate(2, seed=5, p=3, prec=6)
    got = outcome(phitau.module_sh_test, mod, 0, n=1, i_max=2)
    assert got == outcome(oracle_module_sh_test, mod, 0, n=1, i_max=2)
    assert got == "PrecisionRequired: orbit differences vanish to precision at level 2 of 0..2"


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


@st.composite
def keyed_series_cases(draw):
    """(x, family, p^lambda, mu, i_max): x exact or capped on the key
    lattice, a family of either kind and any base level, and an i_max
    below, at and above the fit horizon."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cap = draw(st.sampled_from([1, 2, 4]))
    prec = draw(st.none() | st.builds(lambda n: Fraction(n, p - 1), st.integers(0, 40 * p)))
    x = draw(series_strategy(p=p, cap=cap, max_terms=3, prec=prec))
    kind = draw(st.sampled_from(list(FamilyKind)))
    fam = SubgroupFamily(kind, draw(st.integers(kind is FamilyKind.GAMMA, 3)))
    plam = draw(
        st.sampled_from([Fraction(3, 2), Fraction(p, p - 1), PPow(Fraction(p, p - 1), Fraction(-1, 2))])
    )
    mu = draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)]))
    return x, fam, plam, mu, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(keyed_series_cases())
@example((ring.parse_series("t", 3, 6), SubgroupFamily(FamilyKind.TAU, 0), Fraction(3, 2), 0, 3))
@example(
    (ring.parse_series("u+t^{2}+O(7)", 7, 2), SubgroupFamily(FamilyKind.GAMMA, 1), Fraction(7, 6), Fraction(1, 2), 2)
)
def test_series_sweeps_match_fraction_sweeps(case):
    x, fam, plam, mu, i_max = case
    assert outcome(holder.sh_test, x, fam, plam, mu, i_max) == outcome(
        fraction_sh_test, x, fam, plam, mu, i_max
    )
    assert outcome(holder.sh_estimate, x, fam, i_max) == outcome(fraction_sh_estimate, x, fam, i_max)
    assert outcome(holder.nonmembership_witness, x, fam, plam, i_max) == outcome(
        fraction_witness, x, fam, plam, i_max
    )


@st.composite
def keyed_module_cases(draw):
    """(module, k, n, p^lambda, i_max): a base-change module with its
    lattice inverse known, read back from text, or without a lattice."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 2))
    mod = phitau.basechange_generate(
        d, seed=draw(st.integers(0, 3)), p=p, prec=draw(st.sampled_from([12, 24]))
    )
    form = draw(st.sampled_from(["lattice", "text", "bare"]))
    if form == "text":
        mod = phitau.module_from_text(phitau.module_to_text(mod))
    elif form == "bare":
        mod = phitau.make_module(mod.frob, mod.mat_tau, mod.prec)
    plam = draw(st.sampled_from([None, Fraction(3, 2), PPow(Fraction(3, 2), Fraction(2))]))
    return mod, draw(st.integers(0, 2)), draw(st.integers(0, 2)), plam, draw(st.integers(2, 3))


@settings(max_examples=40, deadline=None)
@given(keyed_module_cases())
def test_module_sweeps_match_fraction_sweeps(case):
    mod, k, n, plam, i_max = case
    assert outcome(phitau.matrix_sh_test, mod, k, plam=plam, i_max=i_max) == outcome(
        fraction_matrix_sh_test, mod, k, plam=plam, i_max=i_max
    )
    assert outcome(phitau.module_sh_test, mod, k, n=n, i_max=i_max) == outcome(
        fraction_module_sh_test, mod, k, n=n, i_max=i_max
    )


def _dead_level_cases():
    """Each fitting entry point on an input whose first vanished level,
    with i_max = 4, is the one given, and what reads its levels: the tau
    level table for a series, `SubgroupFamily.levels` for a module."""
    tau0 = SubgroupFamily(FamilyKind.TAU, 0)
    x = ring.parse_series("t+O(5)", 3, 6)
    mod = phitau.basechange_generate(1, seed=0, p=5, prec=18)
    return [
        pytest.param(lambda: holder.sh_estimate(x, tau0, 4), 1, "table", id="sh_estimate"),
        pytest.param(lambda: holder.nonmembership_witness(x, tau0, 2, 4), 1, "table", id="witness"),
        pytest.param(lambda: phitau.matrix_sh_test(mod, 0, i_max=4), 2, "levels", id="matrix_sh_test"),
        pytest.param(lambda: phitau.module_sh_test(mod, 0, i_max=4), 2, "levels", id="module_sh_test"),
    ]


@pytest.mark.parametrize("call, dead, reader", _dead_level_cases())
def test_no_level_after_the_first_vanished_is_measured(call, dead, reader, monkeypatch):
    levels = []
    if reader == "table":
        table = holder._tau_levels

        def counted_table(*args):
            for i, key in enumerate(table(*args)):
                levels.append(i)
                yield key

        monkeypatch.setattr(holder, "_tau_levels", counted_table)
    else:
        family_levels = SubgroupFamily.levels

        def counted(fam, p):
            for i, level in enumerate(family_levels(fam, p)):
                levels.append(i)
                yield level

        monkeypatch.setattr(SubgroupFamily, "levels", counted)
    with pytest.raises(PrecisionRequired, match=f"at level {dead} of 0..4"):
        call()
    assert max(levels) == dead


# -- the tau level table against the sampled sweep ----------------------


@st.composite
def tau_sweep_cases(draw):
    """(x, tau family, p^lambda, mu, i_max): x exact or capped on the key
    lattice, so that levels vanish at level 0, partway or never, and an
    exact x meets the expansion limit within a few levels at p = 7."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cap = draw(st.sampled_from([1, 2, 4]))
    prec = draw(st.none() | st.builds(lambda n: Fraction(n, p - 1), st.integers(0, 12 * p)))
    x = draw(series_strategy(p=p, cap=cap, max_terms=3, prec=prec))
    fam = SubgroupFamily(FamilyKind.TAU, draw(st.integers(0, 2)))
    plam = draw(
        st.sampled_from([Fraction(3, 2), Fraction(p, p - 1), PPow(Fraction(p, p - 1), Fraction(1, 2))])
    )
    mu = draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)]))
    return x, fam, plam, mu, draw(st.integers(2, 5))


TAU0 = SubgroupFamily(FamilyKind.TAU, 0)


@settings(max_examples=200, deadline=None)
@given(tau_sweep_cases())
# level 10: m = 1 expands (1+u)^59049, and m = 2's (1+u)^118098 is refused;
# level 11's generator is refused
@example((ring.parse_series("t", 3, 6), TAU0, Fraction(3, 2), Fraction(0), 12))
# level 1: the generator expands t^(3^9+1)'s (1+u)^59052 and refuses
# t^(2*3^9+1)'s (1+u)^118101, the later term
@example((ring.parse_series("t^{19684}+t^{39367}", 3, 6), TAU0, Fraction(3, 2), Fraction(0), 3))
@example((ring.parse_series("t+O(5)", 3, 6), TAU0, Fraction(2), Fraction(1), 4))
@example((ring.parse_series("u+t^{-1}", 7, 2), SubgroupFamily(FamilyKind.TAU, 1), Fraction(3, 2), Fraction(0), 3))
def test_tau_sweeps_match_sampled_sweep(case):
    """The oracles act with every sample m of every level through
    `galois.act`, skipping a sample m >= 2 whose exact expansion is
    refused; the tau sweeps read one value per level off x's terms."""
    x, fam, plam, mu, i_max = case
    assert outcome(holder.sh_test, x, fam, plam, mu, i_max) == outcome(
        oracle_sh_test, x, fam, plam, mu, i_max
    )
    assert outcome(holder.sh_estimate, x, fam, i_max) == outcome(oracle_sh_estimate, x, fam, i_max)
    assert outcome(holder.nonmembership_witness, x, fam, plam, i_max) == outcome(
        oracle_witness, x, fam, plam, i_max
    )


def test_exact_refusal_is_the_generators_own():
    # level 10's generator expands (1+u)^59049, and sample m = 2's
    # (1+u)^118098 is refused; the level certifies with the value that a
    # capped x gives m = 2, and the sweeps refuse at level 11's generator
    x, fam = ring.parse_series("t", 3, 6), TAU0
    with pytest.raises(PrecisionRequired, match=re.escape("(1+u)^118098 is too large")):
        galois.act(fam.element(10, 2, 3), x)
    capped = ring.parse_series("t + O(100000)", 3, 6)
    v, _ = oracle_orbit_floor(capped, fam.element(10, 2, 3))
    verdict = holder.sh_test(x, SubgroupFamily(FamilyKind.TAU, 10), Fraction(3, 2), 1, 0)
    assert verdict.status is Status.PASS and verdict.margins[0].observed == v
    refused = re.escape("exact expansion of (1+u)^177147 is too large")
    for sweep in (
        lambda: holder.sh_test(x, fam, Fraction(3, 2), 0, 12),
        lambda: holder.sh_estimate(x, fam, 12),
        lambda: holder.nonmembership_witness(x, fam, Fraction(3, 2), 12),
    ):
        with pytest.raises(PrecisionRequired, match=refused):
            sweep()
    holder.sh_test(x, fam, Fraction(3, 2), 0, 10)


@pytest.mark.parametrize("text", ["t^{2}+u*t^{1/7}", "u*t^{-1}+t^{3}+O(9)"])
def test_tau_sweeps_build_no_sample(text, monkeypatch):
    # at p = 7 a level has 6 samples; a tau sweep builds none of them, and
    # sh_test builds one element, its witness, only at the level that fails
    x, fam = ring.parse_series(text, 7, 6), TAU0
    built = []
    init = galois.GroupElem.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(galois.GroupElem, "__init__", counted)
    outcome(holder.sh_estimate, x, fam, 4)
    outcome(holder.nonmembership_witness, x, fam, Fraction(3, 2), 4)
    assert holder.sh_test(x, fam, Fraction(1, 100), 0, 4).status is not Status.FAIL
    assert built == []
    verdict = holder.sh_test(x, fam, Fraction(100), 0, 4)
    assert verdict.status is Status.FAIL and built == [(verdict.witness[1].c, 1)]


# -- each level's generator against its samples ---------------------------


@st.composite
def level_cases(draw):
    """(x, family): x capped on the key lattice, so that levels vanish at
    level 0, partway or never, and a family of either kind."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cap = draw(st.sampled_from([1, 2, 4]))
    prec = draw(st.builds(lambda n: Fraction(n, p - 1), st.integers(0, 12 * p)))
    x = draw(series_strategy(p=p, cap=cap, max_terms=3, prec=prec))
    kind = draw(st.sampled_from(list(FamilyKind)))
    return x, SubgroupFamily(kind, draw(st.integers(kind is FamilyKind.GAMMA, 2)))


@settings(max_examples=100, deadline=None)
@given(level_cases())
# gamma at p = 2, k = 1: level 0 has no known term, but 3 does not
# generate 1 + 2Z_2, so the sweep acts at level 1 too
@example((ring.parse_series("u + O(3)", 2, 2), SubgroupFamily(FamilyKind.GAMMA, 1)))
def test_generator_stands_for_its_level(case):
    # on levels 0..5 every sample's (least key, key floor) of (g-1)x is the
    # generator's; a gamma level whose generator left no known term repeats
    # at every later level, except at p = 2 and k + i = 1; and the sweeps'
    # rows are the generators'
    x, fam = case
    p = x.p

    def row(g):
        d = galois.act(g, x) - x
        return d.terms[0][0][0] if d.terms else None, d.key_floor()

    rows = [[row(fam.element(i, m, p)) for m in holder.default_samples(p)] for i in range(6)]
    assert all(set(level) == {level[0]} for level in rows)
    generators = [level[0] for level in rows]
    for i, (key, _) in enumerate(generators):
        if fam.kind is FamilyKind.GAMMA and key is None and (p, fam.k + i) != (2, 1):
            assert set(generators[i:]) == {generators[i]}
    assert list(holder._series_levels(x, fam, 5)) == generators
