import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilted import holder, ring
from tilted.errors import DegenerateOrbit, PrecisionRequired
from tilted.holder import FamilyKind, PPow, Status, SubgroupFamily

P = 3
CAP = 6


def s(text):
    return ring.parse_series(text, P, CAP)


TAU0 = SubgroupFamily(FamilyKind.TAU, 0)
CP = Fraction(P, P - 1)


class TestPPow:
    def test_rational_compare(self):
        b = PPow.rational(Fraction(3, 2))
        assert b.cmp(1, P) > 0
        assert b.cmp(Fraction(3, 2), P) == 0
        assert b.cmp(2, P) < 0

    def test_irrational_compare(self):
        # 3/2 * 3^(1/2) = sqrt(27)/2 ~ 2.598
        b = PPow(Fraction(3, 2), Fraction(1, 2))
        assert b.cmp(Fraction(5, 2), P) > 0
        assert b.cmp(Fraction(13, 5), P) < 0

    def test_shift(self):
        b = PPow.rational(2).shift(3)
        assert b.cmp(54, P) == 0

    @pytest.mark.parametrize("q", [-1, 0, Fraction(-3, 2)])
    def test_rejects_nonpositive_q(self, q):
        # q * p^s is positive only for q > 0; cmp would square the sign away
        with pytest.raises(ValueError):
            PPow(Fraction(q), Fraction(1, 2))
        with pytest.raises(ValueError):
            PPow.rational(q)

    def test_nonpositive_values(self):
        assert PPow.rational(1).cmp(-1, P) > 0
        assert PPow.rational(1).cmp(0, P) > 0

    def test_fields_become_fractions(self):
        # int and float fields are stored as Fraction, so cmp can read
        # their numerators and denominators
        for b in (PPow(3, 1), PPow(1.5), PPow(Fraction(3, 2), 0.5), PPow(2.0, -1)):
            assert type(b.q) is Fraction and type(b.s) is Fraction
        assert PPow(Fraction(3, 2), 0.5).cmp(Fraction(5, 2), P) == 1
        assert PPow(Fraction(3, 2), 0.5) == PPow(Fraction(3, 2), Fraction(1, 2))
        assert PPow(1.5).cmp(2.5, P) == -1
        assert PPow(1.5).cmp(1.5, P) == 0
        assert PPow(3, 1).cmp(9.0, P) == 0
        assert PPow(2.0, -1).cmp(0.75, P) < 0
        with pytest.raises(ValueError):
            PPow(-0.5)


def oracle_cmp(self: PPow, v, p: int) -> int:
    """Sign of (q * p^s) - v on Fraction powers: the earlier `PPow.cmp`,
    kept verbatim."""
    v = Fraction(v)
    if v <= 0:
        return 1
    a, b = self.s.numerator, self.s.denominator
    lhs = self.q**b * (Fraction(p) ** a)
    rhs = v**b
    return (lhs > rhs) - (lhs < rhs)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ppow_cmp_matches_fraction_powers(p):
    rng = random.Random(p)
    seen = set()
    for _ in range(1500):
        q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        sexp = Fraction(rng.randint(-15, 15), rng.randint(1, 6))
        b = PPow(q, sexp)
        if rng.random() < 0.2:
            v = Fraction(rng.randint(-30, 0), rng.randint(1, 9))
        elif sexp.denominator == 1 and rng.random() < 0.5:
            # v = q * p^s itself, and its nearest neighbours
            nudge = rng.choice([0, 0, Fraction(1, 10**9), -Fraction(1, 10**9)])
            v = q * Fraction(p) ** sexp.numerator + nudge
        else:
            v = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**3))
        got = b.cmp(v, p)
        assert got == oracle_cmp(b, v, p), (q, sexp, v, p)
        seen.add(got)
    assert seen == {-1, 0, 1}


def value_float(b: PPow, p: int) -> float:
    """q * p^s in floating point: the float oracle for `PPow.cmp`."""
    return float(b.q) * p ** float(b.s)


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=30),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
    st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50),
)
def test_ppow_cmp_matches_float(q, sexp, v):
    b = PPow(q, sexp)
    approx = value_float(b, P) - float(v)
    if abs(approx) > 1e-6:
        assert b.cmp(v, P) == (1 if approx > 0 else -1)


class TestShTest:
    def test_t_passes_with_exact_margins(self):
        verdict = holder.sh_test(s("t"), TAU0, CP, 1, i_max=3)
        assert verdict.status is Status.PASS
        for lm in verdict.margins:
            assert lm.observed == CP * P**lm.i + 1

    def test_fail_produces_witness(self):
        verdict = holder.sh_test(s("t"), TAU0, CP, 2, i_max=3)
        assert verdict.status is Status.FAIL
        i, g = verdict.witness
        assert i == 0 and g.c == 1

    def test_inconclusive_beyond_precision(self):
        verdict = holder.sh_test(s("t+O(3)"), TAU0, CP, 1, i_max=3)
        assert verdict.status is Status.INCONCLUSIVE

    def test_gamma_family(self):
        fam = SubgroupFamily(FamilyKind.GAMMA, 1)
        verdict = holder.sh_test(s("u"), fam, CP * P, 0, 3)
        assert verdict.status is Status.PASS

    def test_gamma_family_needs_unit_levels(self):
        with pytest.raises(ValueError):
            SubgroupFamily(FamilyKind.GAMMA, 0)

    def test_rejects_negative_imax(self):
        # no level tested would make PASS a vacuous certificate
        with pytest.raises(ValueError):
            holder.sh_test(s("t"), TAU0, CP, 1, -1)

    def test_rejects_bad_samples(self):
        # a multiplier divisible by p is not a level element
        with pytest.raises(ValueError):
            TAU0.element(0, 3, P)


class TestShEstimate:
    def test_fits_t(self):
        est = holder.sh_estimate(s("t"), TAU0, i_max=3)
        assert (est.plam_hat, est.mu_hat, est.consistent) == (CP, 1, True)

    def test_deep_root_scales_down(self):
        x = ring.monomial(P, CAP, 1, 0, Fraction(1, 9))
        est = holder.sh_estimate(x, TAU0, i_max=3)
        assert est.plam_hat == CP / 9
        assert est.consistent

    def test_base_level_scales_up(self):
        est = holder.sh_estimate(s("t"), SubgroupFamily(FamilyKind.TAU, 1), i_max=2)
        assert est.plam_hat == CP * P

    def test_degenerate_orbit(self):
        with pytest.raises(DegenerateOrbit):
            holder.sh_estimate(s("u"), TAU0, i_max=2)

    def test_fit_exponent(self):
        # v_i = 3^i: v_{i+1} - v_i = 2 * 3^i gives p^lambda = 1, mu = 0
        assert holder.fit_exponent((1, 3, 9), 3) == (1, 0, True)
        assert holder.fit_exponent((1, 3, 10), 3) == (1, 0, False)


class TestNonmembership:
    def test_refutes_above_true_exponent(self):
        plam = PPow(CP, Fraction(1, 2))
        rep = holder.nonmembership_witness(s("t"), TAU0, plam, i_max=5)
        assert rep.refuted
        assert rep.first_decrease == 0

    def test_accepts_true_exponent(self):
        rep = holder.nonmembership_witness(s("t"), TAU0, CP, i_max=5)
        assert not rep.refuted

    def test_fixed_vector_not_refutable(self):
        rep = holder.nonmembership_witness(s("u"), TAU0, PPow(CP, 1), i_max=3)
        assert not rep.refuted

    def test_capped_vanished_level_raises(self):
        # a vanished level of a capped x certifies nothing either way
        with pytest.raises(PrecisionRequired, match="at level 1 of 0..2"):
            holder.nonmembership_witness(s("t+O(5)"), TAU0, 2, i_max=2)
        with pytest.raises(DegenerateOrbit, match="at level 0 of 0..3"):
            holder.nonmembership_witness(s("u+O(5)"), TAU0, PPow(CP, 1), i_max=3)

    @pytest.mark.parametrize("i_max", [0, -1])
    def test_needs_two_levels(self, i_max):
        with pytest.raises(ValueError, match="i_max"):
            holder.nonmembership_witness(s("t"), TAU0, CP, i_max=i_max)


class TestLevelSamples:
    def test_lazy_by_level(self):
        measured = []
        levels = holder.level_samples(measured.append, TAU0, P, i_max=5)
        first = next(levels)
        assert [g for g, _ in first] == [TAU0.element(0, m, P) for m in (1, 2)]
        assert measured == [g for g, _ in first]

    def test_min_known(self):
        assert holder.min_known([None, Fraction(3), None, Fraction(1, 2)]) == Fraction(1, 2)
        assert holder.min_known([None, None]) is None


class TestDeperfection:
    @pytest.mark.parametrize(
        "text,level",
        [("t", 0), ("1+2*t^{4}", 0), ("t^{1/3}", 1), ("t^{2}+t^{5/9}", 2)],
    )
    def test_levels(self, text, level):
        assert holder.deperfection_level(s(text)) == level

    def test_u_blocks(self):
        assert holder.deperfection_level(s("u+t")) is None

