"""Super-Hölder membership certification and exponent estimation.

A vector x passes at level family (k) with parameters (p^lambda, mu) when
val((g-1)x) >= p^lambda * p^i + mu for every tested g in the i-th level
subgroup.  Exponents p^lambda are carried as exact values q * p^s with
rational q and s, so that even irrational targets like p^(c_p + 1/2)
compare exactly against rational valuations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from . import galois, ring
from .errors import DegenerateOrbit, PrecisionRequired
from .galois import GroupElem
from .ring import PerfSeries


@dataclass(frozen=True)
class PPow:
    """The exact positive real q * p^s with q, s rational, q > 0."""

    q: Fraction
    s: Fraction = Fraction(0)

    def __post_init__(self):
        # store int or float fields as Fraction (the class is frozen)
        for name in ("q", "s"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
        if self.q <= 0:
            raise ValueError(f"p^lambda = q * p^s needs q > 0, got q = {self.q}")

    @staticmethod
    def rational(q) -> "PPow":
        return PPow(Fraction(q), Fraction(0))

    @staticmethod
    def of(value) -> "PPow":
        return value if isinstance(value, PPow) else PPow(value)

    def shift(self, i) -> "PPow":
        """Multiply by p^i."""
        return PPow(self.q, self.s + i)

    def cmp(self, v, p: int) -> int:
        """Sign of (q * p^s) - v for a rational v: `cmp_ratio` on v's
        numerator and denominator."""
        v = Fraction(v)
        return self.cmp_ratio(v.numerator, v.denominator, p)

    def cmp_ratio(self, num: int, den: int, p: int) -> int:
        """Sign of (q * p^s) - num/den for ints num and den > 0, not
        necessarily in lowest terms.

        With q = qn/qd and s = e + r/b, 0 <= r < b, this is the sign of
        (qn * den * p^e)^b * p^r - (num * qd)^b, compared on integers,
        with p^|e| moved to the right-hand side when e < 0.  Both sides
        were scaled by den^b > 0, which keeps the sign whatever factors
        num and den share.
        """
        if num <= 0:
            return 1
        b = self.s.denominator
        e, r = divmod(self.s.numerator, b)
        lhs = self.q.numerator * den
        rhs = num * self.q.denominator
        if e >= 0:
            lhs *= p**e
        else:
            rhs *= p**-e
        lhs = lhs**b * p**r
        rhs = rhs**b
        return (lhs > rhs) - (lhs < rhs)


class FamilyKind(enum.Enum):
    TAU = "tau"
    GAMMA = "gamma"


@dataclass(frozen=True)
class SubgroupFamily:
    """Test-element family at base level k: level-i elements are
    tau^(m p^(k+i)) resp. gamma_(1 + m p^(k+i)) with p coprime to m."""

    kind: FamilyKind
    k: int = 0
    # [(p, n, p^n)] for the latest level asked, replaced whole: a level's
    # p - 1 samples share one power, and the next level's is one
    # multiplication away
    _last: list = field(default_factory=lambda: [(0, 0, 1)], init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind is FamilyKind.GAMMA and self.k < 1:
            # the gamma subgroup is 1 + p Z_p: 1 + m p^0 need not be a unit
            raise ValueError("gamma families start at base level k >= 1")
        if self.k < 0:
            raise ValueError("base level must be >= 0")

    def element(self, i: int, m: int, p: int) -> GroupElem:
        if m % p == 0:
            raise ValueError("sample multiplier must be coprime to p")
        n = self.k + i
        last_p, last_n, power = self._last[0]
        if last_p != p or last_n != n:
            power = power * p if last_p == p and last_n == n - 1 else p**n
            self._last[0] = (p, n, power)
        step = m * power
        if self.kind is FamilyKind.TAU:
            return galois.tau(step)
        return galois.gamma(1 + step)


def default_samples(p: int):
    return tuple(range(1, p))


def level_samples(measure, fam: SubgroupFamily, p: int, i_max: int):
    """For each level i = 0..i_max in turn, the list of (g, measure(g))
    over the level elements g = fam.element(i, m, p), m = 1..p-1.  Lazy:
    a caller that stops at a level measures no later one."""
    samples = default_samples(p)
    for i in range(i_max + 1):
        yield [(g, measure(g)) for g in (fam.element(i, m, p) for m in samples)]


def min_known(values):
    """The least value that is not None; None when there is none."""
    return min((v for v in values if v is not None), default=None)


class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LevelMargin:
    i: int
    observed: Fraction | None  # None: difference vanished to precision
    observed_floor: Fraction | None  # certified lower bound when observed is None
    bound: PPow  # p^lambda * p^i
    mu: Fraction


@dataclass(frozen=True)
class ShVerdict:
    status: Status
    margins: tuple[LevelMargin, ...]
    witness: tuple[int, GroupElem] | None = None

    def __bool__(self):
        return self.status is Status.PASS


def _orbit_measure(x: PerfSeries):
    """The measure g -> (least key, key floor) of (g-1)x, on x's key
    lattice: a key k is the valuation k / ((p-1)*p^cap).  The least key
    is None when no term of (g-1)x is known; the floor is then the key
    bound, or None for the exact zero.

    For an exact tau^c, c != 0, the answer is read off x's terms.  tau^c
    fixes u and sends t^B to eps^(cB) t^B, eps = 1+u, so
    (tau^c - 1)x = sum over B of t^B f_B (eps^(cB) - 1), with f_B the
    column of x's terms in t^B.  Columns of distinct B share no
    monomial, so nothing cancels between them; the valuation is
    multiplicative, so a column's valuation is that of its leading term
    plus val(eps^(cB) - 1) = p^(v_p(cB)) p/(p-1) (`eps_val_formula`, v_p
    taken on Z[1/p]), which is the key shift p^(v_p(c) + v_p(b) + 1) for
    b = B p^cap, B's units.  So val((tau^c - 1)x) is the least
    key + shift over the terms with B != 0, known when it lies below x's
    key bound; otherwise (None, bound), as for an x with no term that
    moves.

    x's moving terms are read once, as (key, b / p^v_p(b), p^v_p(b));
    a sample then strips p from c only while the shift can still matter:
    below bound - (least moving key) for a capped x, and for an exact x
    until the expansion (1+v)^n, n = cB / p^min(v_p(cB), cap), would be
    refused anyway.  An exact x refuses the same expansions as the
    action, in the same term order.  Every other g acts and subtracts.
    """
    p, cap, bound = x.p, x.cap, x.bound
    moving = []
    for m, _ in x.terms:
        b = ring.mono_units(m, p)[1]
        if b:
            pv = 1
            while b % p == 0:
                b //= p
                pv *= p
            moving.append((m[0], b, pv))
    top = p ** (cap + 1)
    if bound is None:
        # p^(v_p(c)+1) >= limit makes |n| >= p^(v_p(c)-cap) too large
        limit = (galois.EXACT_POWER_LIMIT + 1) * top
    elif moving:
        limit = bound - moving[0][0]

    def measure(g: GroupElem):
        if g.a != 1 or g.nacc is not None or not g.c:
            d = galois.act(g, x) - x
            return (d.terms[0][0][0] if d.terms else None), d.key_floor()
        if not moving:
            return None, bound
        c, shift = g.c, p
        while shift < limit and c % p == 0:
            c //= p
            shift *= p
        least = None
        for key, b, pv in moving:
            s = shift * pv
            if bound is None:
                n = c * b if s <= top else c * b * s // top
                if not 0 <= n <= galois.EXACT_POWER_LIMIT:
                    # refused: the action's own check, on its own n
                    galois.check_exact_power(ring.lowest_terms(g.c * b * pv, p, cap)[0])
            elif key + s >= bound:
                continue
            if least is None or key + s < least:
                least = key + s
        if least is None:
            return None, bound
        return least, least

    return measure


def sh_test(
    x: PerfSeries, fam: SubgroupFamily, plam: PPow | Fraction, mu, i_max: int
) -> ShVerdict:
    """Check val((g-1)x) >= p^lambda p^i + mu on sampled level elements.

    Pass requires every bound to hold with the bound strictly below the
    available precision; a bound at or beyond precision yields
    Inconclusive rather than an unsound Pass.
    """
    plam = PPow.of(plam)
    mu = Fraction(mu)
    p, cap = x.p, x.cap
    if i_max < 0:
        raise ValueError("need i_max >= 0 to test any level")
    # a key k is the valuation k/den: k/den - mu = (k*mu_d - mu_n*den) / (mu_d*den)
    den = (p - 1) * p**cap
    mu_d, mu_key, mu_den = mu.denominator, mu.numerator * den, mu.denominator * den

    def excess(bound_i, key):
        """Sign of bound_i - (key/den - mu)."""
        return bound_i.cmp_ratio(key * mu_d - mu_key, mu_den, p)

    margins = []
    witness = None
    inconclusive = False
    for i, level in enumerate(level_samples(_orbit_measure(x), fam, p, i_max)):
        bound_i = plam.shift(i)
        for g, (v, floor) in level:
            if v is None:
                # difference vanished; is the bound inside certified range?
                if floor is not None and excess(bound_i, floor) >= 0:
                    inconclusive = True
            elif witness is None and excess(bound_i, v) > 0:
                witness = (i, g)
        level_min = min_known(v for _, (v, _) in level)
        if level_min is not None:
            observed = ring.bound_prec(level_min, p, cap)
            margins.append(LevelMargin(i, observed, observed, bound_i, mu))
        else:
            level_floor = min_known(floor for _, (_, floor) in level)
            margins.append(LevelMargin(i, None, ring.bound_prec(level_floor, p, cap), bound_i, mu))
    margins = tuple(margins)
    if witness is not None:
        return ShVerdict(Status.FAIL, margins, witness)
    if inconclusive:
        return ShVerdict(Status.INCONCLUSIVE, margins)
    return ShVerdict(Status.PASS, margins)


@dataclass(frozen=True)
class ShEstimate:
    plam_hat: Fraction
    mu_hat: Fraction
    consistent: bool
    levels: tuple[Fraction, ...]


def check_fit_horizon(i_max: int) -> None:
    """A fit compares consecutive level differences v_{i+1} - v_i, so
    claiming it consistent, or worsening, needs two of them: the levels
    0..i_max with i_max >= 2.  `fit_levels` runs this before measuring
    anything."""
    if i_max < 2:
        raise ValueError(f"need i_max >= 2 to compare level differences, got i_max={i_max}")


def fit_levels(measure, fam: SubgroupFamily, p: int, i_max: int):
    """The level minima behind every fit: one tuple of levels 0..i_max per
    track, each level a track's least value over the level's samples, where
    measure(g) gives one value per track, None when it vanished to precision.
    The sweep ends at the first level where some track has no value: at
    level 0 nothing moved above precision (DegenerateOrbit); later, precision
    ran out before the fit horizon (PrecisionRequired)."""
    check_fit_horizon(i_max)
    rows = []
    for i, level in enumerate(level_samples(measure, fam, p, i_max)):
        row = [min_known(track) for track in zip(*(vs for _, vs in level))]
        if None in row:
            error = PrecisionRequired if i else DegenerateOrbit
            raise error(f"orbit differences vanish to precision at level {i} of 0..{i_max}")
        rows.append(row)
    return tuple(zip(*rows))


def fit_exponent(levels, p):
    """Fit (p^lambda, mu) to level minima v_0, v_1, ..., using
    v_{i+1} - v_i = p^lambda p^i (p-1); returns (p^lambda, mu, consistent)
    where consistent says every consecutive pair gives the same p^lambda."""
    cands = [Fraction(levels[i + 1] - levels[i], p**i * (p - 1)) for i in range(len(levels) - 1)]
    plam_hat = cands[0]
    consistent = all(c == plam_hat for c in cands)
    mu_hat = levels[0] - plam_hat
    return plam_hat, mu_hat, consistent


def sh_estimate(x: PerfSeries, fam: SubgroupFamily, i_max: int) -> ShEstimate:
    """Fit (p^lambda, mu) from measured margins: consecutive level minima
    satisfy v_{i+1} - v_i = p^lambda p^i (p-1) for a true exponent."""
    orbit = _orbit_measure(x)
    (keys,) = fit_levels(lambda g: orbit(g)[:1], fam, x.p, i_max)
    levels = tuple(ring.bound_prec(k, x.p, x.cap) for k in keys)
    return ShEstimate(*fit_exponent(levels, x.p), levels)


@dataclass(frozen=True)
class WitnessReport:
    refuted: bool
    levels: tuple[Fraction, ...]
    plam: PPow
    first_decrease: int | None

    def __bool__(self):
        return self.refuted


def nonmembership_witness(
    x: PerfSeries, fam: SubgroupFamily, plam: PPow | Fraction, i_max: int
) -> WitnessReport:
    """Refute membership at exponent p^lambda by exhibiting margins
    m_i = v_i - p^lambda p^i that decrease strictly and at a worsening
    rate over the horizon, so that no mu can exist.

    Margin monotonicity is decided exactly: m_{i+1} < m_i is the rational
    comparison v_{i+1} - v_i < p^lambda p^i (p-1).  An exact x that no
    sample moves is certified not refuted, with no levels; a capped x
    raises at a vanished level as in `fit_levels`.
    """
    plam = PPow.of(plam)
    p, cap = x.p, x.cap
    orbit = _orbit_measure(x)
    try:
        (keys,) = fit_levels(lambda g: orbit(g)[:1], fam, p, i_max)
    except DegenerateOrbit:
        if x.bound is not None:
            raise
        return WitnessReport(False, (), plam, None)
    # the level differences v_{i+1} - v_i on the key lattice, over den
    den = (p - 1) * p**cap
    steps = [b - a for a, b in zip(keys, keys[1:])]
    # m_{i+1} < m_i  <=>  bound growth exceeds margin growth
    falls = [PPow(plam.q * (p - 1), plam.s + i).cmp_ratio(steps[i], den, p) > 0 for i in range(i_max)]
    # d_{i+1} <= d_i  <=>  second difference of v below bound's second difference
    worsening = all(
        PPow(plam.q * (p - 1) ** 2, plam.s + i).cmp_ratio(steps[i + 1] - steps[i], den, p) >= 0
        for i in range(i_max - 1)
    )
    first_decrease = falls.index(True) if True in falls else None
    levels = tuple(ring.bound_prec(key, p, cap) for key in keys)
    return WitnessReport(all(falls) and worsening, levels, plam, first_decrease)


def deperfection_level(x: PerfSeries) -> int | None:
    """Least n with phi^n(x) in kappa((t)), i.e. x in phi^{-n} of the
    integer-exponent pure-t subring; None when no such n <= cap exists."""
    if any(a for (_, a), _ in x.terms):
        return None
    p, cap = x.p, x.cap
    return max(
        (ring.lowest_terms(ring.mono_units(m, p)[1], p, cap)[1] for m, _ in x.terms), default=0
    )

