"""Super-Hölder membership certification and exponent estimation.

A vector x passes at level family (k) with parameters (p^lambda, mu) when
val((g-1)x) >= p^lambda * p^i + mu for every g in the i-th level
subgroup.  Exponents p^lambda are carried as exact values q * p^s with
rational q and s, so that even irrational targets like p^(c_p + 1/2)
compare exactly against rational valuations.

The tests read the levels i = 0..i_max in turn, and a fit reads none
after the first that vanished to precision.  A series sweep reads one
value per level, that of the level's generator, which is the least over
the whole level subgroup (`_series_levels`): for the tau families it is
read off x's terms (`_tau_levels`), and the gamma families act with the
generator and subtract.  The module sweeps (`fit_levels`) act with every
element of `SubgroupFamily.levels`, since Mat(g) need not act as an
isometry for the basis valuation.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass
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
    def of(value) -> "PPow":
        return value if isinstance(value, PPow) else PPow(value)

    def shift(self, i: int) -> "PPow":
        """Multiply by p^i.  q and s are already valid, so the product is
        made without `__post_init__`, its s built once on integers:
        (sn + i sd) / sd is in lowest terms when sn / sd is."""
        s = self.s
        out = object.__new__(PPow)
        object.__setattr__(out, "q", self.q)
        object.__setattr__(out, "s", Fraction(s.numerator + i * s.denominator, s.denominator))
        return out

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
        with p^|e| moved to the right-hand side when e < 0.  num/den is
        put in lowest terms first: both sides are b-th powers, so a factor
        they share would be raised to the b-th power with them.  A huge |e|
        decides the sign before p^|e| is built, as p^|e| >= 2^|e| and
        1 <= p^(r/b) < p.
        """
        if num <= 0:
            return 1
        common = math.gcd(num, den)
        num //= common
        den //= common
        b = self.s.denominator
        e, r = divmod(self.s.numerator, b)
        lhs = self.q.numerator * den
        rhs = num * self.q.denominator
        if e >= rhs.bit_length():
            return 1
        if -e >= (lhs * p).bit_length():
            return -1
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

    def __post_init__(self):
        if self.kind is FamilyKind.GAMMA and self.k < 1:
            # the gamma subgroup is 1 + p Z_p: 1 + m p^0 need not be a unit
            raise ValueError("gamma families start at base level k >= 1")
        if self.k < 0:
            raise ValueError("base level must be >= 0")

    def element(self, i: int, m: int, p: int) -> GroupElem:
        if m % p == 0:
            raise ValueError("sample multiplier must be coprime to p")
        return self._element(m * p ** (self.k + i))

    def levels(self, p: int):
        """The levels i = 0, 1, ... in turn, each the list of its elements
        for m in `default_samples(p)`.  Lazy and endless: a caller that
        stops at a level builds no later one, and each level's p^(k+i) is
        one multiplication from the last."""
        samples = default_samples(p)
        power = p**self.k
        while True:
            yield [self._element(m * power) for m in samples]
            power *= p

    def _element(self, step: int) -> GroupElem:
        if self.kind is FamilyKind.TAU:
            return galois.tau(step)
        return galois.gamma(1 + step)


def default_samples(p: int):
    return tuple(range(1, p))


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


def _tau_levels(x: PerfSeries, k: int):
    """The tau level table of x: for the levels i = 0, 1, ... in turn, the
    least key of (tau^c - 1)x for the level's generator c = p^(k+i), or
    None once it vanished to precision, the floor then being x's key bound.
    Lazy and endless: a caller that stops at a level reads no later one.

    The value is read off x's terms.  tau^c fixes u and sends t^B to
    eps^(cB) t^B, eps = 1+u, so (tau^c - 1)x = sum over B of
    t^B f_B (eps^(cB) - 1), with f_B the column of x's terms in t^B.
    Columns of distinct B share no monomial, so nothing cancels between
    them; the valuation is multiplicative, so a column's valuation is that
    of its leading term plus val(eps^(cB) - 1) = p^(v_p(cB)) p/(p-1)
    (`eps_val_formula`, v_p taken on Z[1/p]), which is the key shift
    p^(v_p(c) + v_p(b) + 1) for b = B p^cap, B's units.  So the value is
    the least key + shift over the terms with B != 0, and it depends on c
    through v_p(c) = k + i only: every element of the level has it.

    x's moving terms are read once, as (key, b / p^v_p(b), p^v_p(b)).
    The shift p^(v_p(c)+1) grows by one factor p per level only while it
    can still matter: below bound - (least moving key) for a capped x, past
    which every level has vanished, and for an exact x until the expansion
    (1+v)^n, n = cB / p^min(v_p(cB), cap), would be refused anyway.  An
    exact x refuses the generator's expansions as the action does, term by
    term, with the action's own message; the terms are checked only from
    the least shift at which one of them is refused, found once.
    """
    p, cap, bound = x.p, x.cap, x.bound
    moving = []
    for m, _ in x.terms:
        b = ring.mono_units(m, p)[1]
        if b:
            pv = p ** ring.vp(b, p)
            moving.append((m[0], b // pv, pv))
    if moving:
        top = p ** (cap + 1)
        refused = None
        if bound is None:
            most = galois.EXACT_POWER_LIMIT
            # p^(v_p(c)+1) >= limit makes |n| >= p^(v_p(c)-cap) too large
            limit = (most + 1) * top
            # the least shift that refuses some term's expansion: its
            # n = b * max(shift * pv // top, 1) leaves 0..most at once for
            # b outside 1..most, and else once shift * pv // top > most // b
            refused = min(
                -(-(most // b + 1) * top // pv) if 0 < b <= most else 0 for _, b, pv in moving
            )
        else:
            limit = bound - moving[0][0]
        # a level whose shift reaches limit has vanished (capped x) or
        # refuses every expansion, first the first term's (exact x); no
        # later level is read, so a base level k past it takes into the
        # shift only the powers of p that reach limit
        shift = p
        for _ in range(k):
            if shift >= limit:
                break
            shift *= p
        for v in itertools.count(k):
            if refused is not None and shift >= refused:
                for _, b, pv in moving:
                    # n = cB / p^min(v_p(cB), cap) at c = p^v
                    if not 0 <= b * max(shift * pv // top, 1) <= most:
                        # refused: the action's own check, on its own n
                        _refuse_expansion(v, b, pv, p, cap)
            least = min(key + shift * pv for key, _, pv in moving)
            if bound is not None and least >= bound:
                break
            yield least
            shift *= p
    yield from itertools.repeat(None)


def _refuse_expansion(v: int, b: int, pv: int, p: int, cap: int) -> None:
    """Raise the action's refusal of tau^c's exact expansion on the term
    of t units b pv, b coprime to p, at c = p^v: that of (1+u)^(cB), whose
    n = cB / p^min(v_p(cB), cap) = b p^max(v + v_p(pv) - cap, 0) lies
    outside 0..EXACT_POWER_LIMIT.  A negative n is refused by its sign.
    A positive one is built only when its decimal digits could be printed:
    n >= p^(v-cap) >= 2^(v-cap) and 2^(4D) > 10^D, so for v - cap >= 4D,
    D = `sys.get_int_max_str_digits()` (0: no limit), n has more than D
    digits and is refused as such."""
    if b < 0:
        galois.check_exact_power(b)
    digits = sys.get_int_max_str_digits()
    if digits and v - cap >= 4 * digits:
        raise galois.too_many_digits()
    galois.check_exact_power(ring.lowest_terms(p**v * b * pv, p, cap)[0])


def _series_levels(x: PerfSeries, fam: SubgroupFamily, i_max: int):
    """For each level i = 0..i_max in turn, (least key, key floor) of
    (g-1)x for the level's generator g = fam.element(i, 1, p), on x's key
    lattice: a key k is the valuation k / ((p-1)*p^cap).  The least key is
    None when no term is known, the floor then the key bound, or None for
    the exact zero.

    The generator gives the least value over its whole level: each level
    is the closure of the powers of its generator (pro-cyclic), g acts as
    an isometry, and (g^n - 1)x = sum_{j<n} g^j (g-1)x.  A tau family reads
    `_tau_levels` and builds no element.  A gamma family acts with the
    generator and subtracts, until a level has no known term: every later
    generator lies in that level's subgroup, and the cap does not depend
    on the level, so its row repeats.  3 does not generate 1 + 2Z_2, so
    at p = 2 the level with k + i = 1 does not end the sweep."""
    p = x.p
    if fam.kind is FamilyKind.TAU:
        for key in itertools.islice(_tau_levels(x, fam.k), i_max + 1):
            yield key, x.bound if key is None else key
        return
    for i in range(i_max + 1):
        d = galois.act(fam.element(i, 1, p), x) - x
        row = (d.terms[0][0][0] if d.terms else None, d.key_floor())
        yield row
        if not d.terms and (p, fam.k + i) != (2, 1):
            yield from itertools.repeat(row, i_max - i)
            return


def sh_test(
    x: PerfSeries, fam: SubgroupFamily, plam: PPow | Fraction, mu, i_max: int
) -> ShVerdict:
    """Check val((g-1)x) >= p^lambda p^i + mu on each level i = 0..i_max,
    from the value of the level's generator (`_series_levels`), which is
    the least over the whole level: a verdict covers every element of the
    levels it read, not only samples (of the gamma level 1 + 2Z_2 at
    p = 2, the closed subgroup that 3 generates).

    Pass requires every bound to hold with the bound strictly below the
    available precision; a bound at or beyond precision yields
    Inconclusive rather than an unsound Pass.  The first failing level
    reports its generator as the witness.
    """
    plam = PPow.of(plam)
    mu = Fraction(mu)
    p, cap = x.p, x.cap
    if i_max < 0:
        raise ValueError("need i_max >= 0 to test any level")
    # a key k is the valuation k/den: k/den - mu = (k*mu_d - mu_n*den) / (mu_d*den)
    den = ring.key_den(p, cap)
    mu_d, mu_key, mu_den = mu.denominator, mu.numerator * den, mu.denominator * den

    def excess(bound_i, key):
        """Sign of bound_i - (key/den - mu)."""
        return bound_i.cmp_ratio(key * mu_d - mu_key, mu_den, p)

    margins = []
    witness = None
    inconclusive = False
    for i, (v, floor) in enumerate(_series_levels(x, fam, i_max)):
        bound_i = plam.shift(i)
        if v is None:
            # difference vanished; is the bound inside certified range?
            # bound_i grows with i, so once it is not, it never is again
            if not inconclusive and floor is not None and excess(bound_i, floor) >= 0:
                inconclusive = True
        elif witness is None and excess(bound_i, v) > 0:
            witness = (i, fam.element(i, 1, p))
        # a known least key is its own floor
        observed_floor = None if floor is None else Fraction(floor, den)
        observed = None if v is None else observed_floor
        margins.append(LevelMargin(i, observed, observed_floor, bound_i, mu))
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
    0..i_max with i_max >= 2.  `_fit_rows` runs this before reading any
    level."""
    if i_max < 2:
        raise ValueError(f"need i_max >= 2 to compare level differences, got i_max={i_max}")


def fit_levels(measure, fam: SubgroupFamily, p: int, i_max: int):
    """The level minima behind every fit: one tuple of levels 0..i_max per
    track, each level a track's least value over the level's samples, where
    measure(g) gives one value per track, None when it vanished to precision.
    The sweep ends as `_fit_rows` says."""
    rows = (
        [min_known(track) for track in zip(*map(measure, level))]
        for level in itertools.islice(fam.levels(p), i_max + 1)
    )
    return _fit_rows(rows, i_max)


def _fit_rows(rows, i_max: int):
    """The tracks of levels 0..i_max from the lazy rows, one value per track
    and level, None when it vanished to precision, after `check_fit_horizon`.
    The sweep ends at the first level where some track has no value: at
    level 0 nothing moved above precision (DegenerateOrbit); later, precision
    ran out before the fit horizon (PrecisionRequired)."""
    check_fit_horizon(i_max)
    kept = []
    for i, row in zip(range(i_max + 1), rows):
        if None in row:
            error = PrecisionRequired if i else DegenerateOrbit
            raise error(f"orbit differences vanish to precision at level {i} of 0..{i_max}")
        kept.append(row)
    return tuple(zip(*kept))


def _series_fit_keys(x: PerfSeries, fam: SubgroupFamily, i_max: int):
    """The least key per level 0..i_max behind `sh_estimate` and
    `nonmembership_witness`, from `_series_levels`, ended as `_fit_rows`
    says."""
    rows = ([v] for v, _ in _series_levels(x, fam, i_max))
    (keys,) = _fit_rows(rows, i_max)
    return keys


def fit_exponent(keys, den: int, p: int):
    """Fit (p^lambda, mu) to level minima v_i = keys[i] / den, at least two
    of them, using v_{i+1} - v_i = p^lambda p^i (p-1); returns
    (p^lambda, mu, consistent) where consistent says every consecutive
    pair gives the same p^lambda.

    The fit is decided on the keys: with step_i = keys[i+1] - keys[i], the
    pair i gives p^lambda = step_i / (den (p-1) p^i), the same as pair 0's
    exactly when step_i = step_0 p^i.  p^lambda and mu = v_0 - p^lambda
    are each built once, as a Fraction."""
    step0 = keys[1] - keys[0]
    consistent = all(b - a == step0 * p**i for i, (a, b) in enumerate(zip(keys, keys[1:])))
    scale = den * (p - 1)
    return Fraction(step0, scale), Fraction(keys[0] * (p - 1) - step0, scale), consistent


def sh_estimate(x: PerfSeries, fam: SubgroupFamily, i_max: int) -> ShEstimate:
    """Fit (p^lambda, mu) from measured margins: consecutive level minima
    satisfy v_{i+1} - v_i = p^lambda p^i (p-1) for a true exponent."""
    keys = _series_fit_keys(x, fam, i_max)
    den = ring.key_den(x.p, x.cap)
    return ShEstimate(*fit_exponent(keys, den, x.p), tuple(Fraction(k, den) for k in keys))


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
    try:
        keys = _series_fit_keys(x, fam, i_max)
    except DegenerateOrbit:
        if x.bound is not None:
            raise
        return WitnessReport(False, (), plam, None)
    # the level differences v_{i+1} - v_i on the key lattice, over den
    den = ring.key_den(p, cap)
    steps = [b - a for a, b in zip(keys, keys[1:])]
    # m_{i+1} < m_i  <=>  bound growth exceeds margin growth:
    # q p^(s+i) (p-1) > step/den, that is q p^s > step / (den (p-1) p^i)
    falls = [plam.cmp_ratio(steps[i], den * (p - 1) * p**i, p) > 0 for i in range(i_max)]
    # d_{i+1} <= d_i  <=>  second difference of v below bound's second
    # difference, read only when every margin falls
    refuted = all(falls) and all(
        plam.cmp_ratio(steps[i + 1] - steps[i], den * (p - 1) ** 2 * p**i, p) >= 0
        for i in range(i_max - 1)
    )
    first_decrease = falls.index(True) if True in falls else None
    levels = tuple(Fraction(key, den) for key in keys)
    return WitnessReport(refuted, levels, plam, first_decrease)


def deperfection_level(x: PerfSeries) -> int | None:
    """Least n with phi^n(x) in kappa((t)), i.e. x in phi^{-n} of the
    integer-exponent pure-t subring; None when no such n <= cap exists."""
    if any(a for (_, a), _ in x.terms):
        return None
    p, cap = x.p, x.cap
    return max(
        (ring.lowest_terms(ring.mono_units(m, p)[1], p, cap)[1] for m, _ in x.terms), default=0
    )

