import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from tilted import ring

P = 3
CAP = 6


def series_strategy(p=P, cap=CAP, max_terms=4, prec=None):
    """Random series in the ring of denominator cap p^cap, with exponents
    in Z[1/p] of denominator at most p^min(2, cap)."""
    deepest = min(2, cap)

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_terms))
        acc = ring.zero(p, cap, prec)
        for _ in range(n):
            coeff = draw(st.integers(1, p - 1))
            eu = Fraction(draw(st.integers(0, 4)), p ** draw(st.integers(0, deepest)))
            et = Fraction(draw(st.integers(-3, 5)), p ** draw(st.integers(0, deepest)))
            acc = acc + ring.monomial(p, cap, coeff, eu, et, prec)
        return acc

    return build()


@pytest.fixture
def rng():
    return random.Random(0)
