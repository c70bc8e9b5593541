"""Exact-rational Newton polygons and the Kummer-step ramification check.

The polynomial whose roots cut out the n-th step of the Kummer tower is
(T + pi^(1/p^(n+1)))^p - pi^(1/p^n); its coefficient valuations are

    v(a_0) = infinity,  v(a_k) = e_K + (p-k)/p^(n+1)  (1 <= k <= p-1),
    v(a_p) = 0,

normalized so that v(p) = e_K.  The step is elementary exactly when the
lower hull is a single segment of slope -i_n / p^n with
i_n = e_K p^n/(p-1) + 1/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ring import is_prime

# the step polynomial has p + 1 coefficients, so p is bounded like the
# exact expansions in `galois`
MAX_P = 100_000
# the printed fractions have denominators up to (p-1) p^(n+1) and
# numerators up to e_K p^(n+1) + p: at most 4,011 digits within these
# bounds, under Python's default int-to-str limit of 4,300
MAX_N = 800
MAX_E_K = 10**6


@dataclass(frozen=True)
class NPPoint:
    """A point (k, v(a_k)); v is None for a zero coefficient (v = infinity)."""

    k: int
    v: Fraction | None

    @property
    def finite(self):
        return self.v is not None


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple[NPPoint, ...]
    segments: tuple[Segment, ...]
    dropped: tuple[NPPoint, ...]  # infinite-valuation points, kept for reporting


def lower_hull(points) -> NewtonPolygon:
    """Lower convex hull with exact rational slopes, strictly increasing."""
    finite = sorted((pt for pt in points if pt.finite), key=lambda pt: pt.k)
    dropped = tuple(pt for pt in points if not pt.finite)
    if not finite:
        raise ValueError("need at least one finite-valuation point")
    seen = {}
    for pt in finite:
        if pt.k in seen and seen[pt.k].v != pt.v:
            raise ValueError(f"two points share index {pt.k}")
        seen[pt.k] = pt
    finite = sorted(seen.values(), key=lambda pt: pt.k)
    # the hull on the integer points (k, v * den), den the least common
    # denominator of the valuations; slopes become Fractions at the end
    den = 1
    for pt in finite:
        if den % pt.v.denominator:
            den = math.lcm(den, pt.v.denominator)
    hull = []  # (k, v * den, point)
    for pt in finite:
        k, y = pt.k, pt.v.numerator * (den // pt.v.denominator)
        while len(hull) >= 2:
            (ka, ya, _), (kb, yb, _) = hull[-2:]
            # drop b when it lies on or above the chord a -> pt
            if (yb - ya) * (k - ka) >= (y - ya) * (kb - ka):
                hull.pop()
            else:
                break
        hull.append((k, y, pt))
    segments = tuple(
        Segment(Fraction(yb - ya, den * (kb - ka)), kb - ka)
        for (ka, ya, _), (kb, yb, _) in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(pt for _, _, pt in hull), segments, dropped)


def hull_oracle(points):
    """Brute-force hull: a finite point is a vertex iff no pair of other
    points (or single point vertically) certifies it as dominated.

    Checks every chord; quadratic and only meant to cross-check
    `lower_hull` on small inputs.
    """
    finite = sorted((pt for pt in points if pt.finite), key=lambda pt: pt.k)
    vertices = []
    for pt in finite:
        dominated = False
        for a in finite:
            for b in finite:
                if a.k < pt.k < b.k:
                    # height of chord a->b at pt.k
                    chord = a.v + Fraction(b.v - a.v, b.k - a.k) * (pt.k - a.k)
                    if pt.v > chord:
                        dominated = True
                    if pt.v == chord:
                        dominated = True  # interior of a segment, not a vertex
        # endpoints with equal valuation neighbors still count; replicate
        # the convex-hull convention: keep pt iff it is a corner
        if not dominated:
            vertices.append(pt)
    # corners only: remove collinear middles (already done via == chord)
    return tuple(vertices)


def kummer_step_valuations(p: int, e_k: int, n: int):
    """Coefficient valuations of the degree-p Kummer step polynomial."""
    if not 3 <= p <= MAX_P or not is_prime(p) or not 1 <= e_k <= MAX_E_K or not 0 <= n <= MAX_N:
        raise ValueError(f"need an odd prime p in 3..{MAX_P}, e_K in 1..{MAX_E_K}, n in 0..{MAX_N}")
    pts = [NPPoint(0, None)]
    den = p ** (n + 1)
    for k in range(1, p):
        pts.append(NPPoint(k, Fraction(e_k) + Fraction(p - k, den)))
    pts.append(NPPoint(p, Fraction(0)))
    return pts


def ramification_break(p: int, e_k: int, n: int) -> Fraction:
    """i_n = e_K p^n/(p-1) + 1/p."""
    return Fraction(e_k * p**n, p - 1) + Fraction(1, p)


def verify_elementary(p: int, e_k: int, n: int):
    """True iff the hull is a single segment of slope -i_n/p^n (exactly)."""
    polygon = lower_hull(kummer_step_valuations(p, e_k, n))
    expected = -Fraction(ramification_break(p, e_k, n), p**n)
    ok = len(polygon.segments) == 1 and polygon.segments[0].slope == expected
    slope = polygon.segments[0].slope if polygon.segments else None
    return ok, slope, polygon
