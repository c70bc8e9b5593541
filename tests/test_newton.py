import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilted import newton
from tilted.newton import NPPoint
from tilted.ring import is_prime


def pts(*pairs):
    return [NPPoint(k, None if v is None else Fraction(v)) for k, v in pairs]


class TestLowerHull:
    def test_single_segment(self):
        hull = newton.lower_hull(pts((0, 2), (1, 1), (2, 0)))
        assert [seg.slope for seg in hull.segments] == [-1]
        assert len(hull.vertices) == 2  # collinear middle removed

    def test_two_segments(self):
        hull = newton.lower_hull(pts((0, 3), (1, 1), (3, 0)))
        assert [seg.slope for seg in hull.segments] == [-2, Fraction(-1, 2)]
        assert [seg.length for seg in hull.segments] == [1, 2]

    def test_point_above_hull_ignored(self):
        hull = newton.lower_hull(pts((0, 0), (1, 5), (2, 1)))
        assert [v.k for v in hull.vertices] == [0, 2]

    def test_infinite_points_dropped_and_reported(self):
        hull = newton.lower_hull(pts((0, None), (1, 1), (2, 0)))
        assert [v.k for v in hull.dropped] == [0]
        assert [v.k for v in hull.vertices] == [1, 2]

    def test_needs_a_finite_point(self):
        with pytest.raises(ValueError):
            newton.lower_hull(pts((0, None)))

    def test_conflicting_duplicates(self):
        with pytest.raises(ValueError):
            newton.lower_hull(pts((0, 1), (0, 2), (1, 0)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.fractions(min_value=-8, max_value=8)),
        min_size=2,
        max_size=9,
        unique_by=lambda kv: kv[0],
    )
)
def test_hull_matches_oracle(pairs):
    points = pts(*pairs)
    hull = newton.lower_hull(points)
    assert hull.vertices == newton.hull_oracle(points)
    slopes = [seg.slope for seg in hull.segments]
    assert slopes == sorted(slopes)
    assert all(a < b for a, b in zip(slopes, slopes[1:]))


class TestKummerStep:
    def test_coefficient_valuations(self):
        points = newton.kummer_step_valuations(3, 2, 1)
        assert points[0].v is None
        assert points[1].v == 2 + Fraction(2, 9)
        assert points[2].v == 2 + Fraction(1, 9)
        assert points[3].v == 0

    def test_break_formula(self):
        assert newton.ramification_break(3, 1, 0) == Fraction(5, 6)
        assert newton.ramification_break(3, 2, 1) == Fraction(10, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            newton.kummer_step_valuations(2, 1, 0)

    @pytest.mark.parametrize("p", [9, 15, 100_003])
    def test_rejects_composite_or_too_large_p(self, p):
        # p + 1 points: a p past MAX_P is refused before any is built
        with pytest.raises(ValueError, match="odd prime"):
            newton.kummer_step_valuations(p, 1, 0)

    @pytest.mark.parametrize("e_k, n", [(1, newton.MAX_N + 1), (newton.MAX_E_K + 1, 0), (1, 10**7)])
    def test_rejects_too_large_n_or_e_k(self, e_k, n):
        with pytest.raises(ValueError, match="odd prime"):
            newton.kummer_step_valuations(3, e_k, n)

    def test_bounds_keep_every_printed_fraction_printable(self):
        # the widest vertex and the slope at the largest p, e_K and n
        p = next(q for q in range(newton.MAX_P, 2, -1) if is_prime(q))
        n, e_k = newton.MAX_N, newton.MAX_E_K
        vertex = Fraction(e_k) + Fraction(p - 1, p ** (n + 1))
        slope = -newton.ramification_break(p, e_k, n) / p**n
        for q in (vertex, slope):
            for part in (q.numerator, q.denominator):
                assert len(str(abs(part))) < sys.get_int_max_str_digits()

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("e_k", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_elementary_grid(self, p, e_k, n):
        ok, slope, _ = newton.verify_elementary(p, e_k, n)
        assert ok
        assert slope == -newton.ramification_break(p, e_k, n) / p**n
