"""`equiv_constant` against the sampler.

The constant C is read off W and W^{-1}, column by column.  The
selftest's sampler is the oracle: no sampled vector's certified gap
|v_tau - v_tilde| exceeds C, and the witness's gap is C itself."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilted import phitau, ring, selftest
from tilted.errors import PrecisionRequired, PreconditionViolated
from tilted.phitau import MatSeries


def gap(mod, coords):
    vt, vtd = phitau.v_tau(coords), phitau.v_tilde(mod, coords)
    return None if vt is None or vtd is None else abs(vt - vtd)


@st.composite
def generated(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 4))
    mod = phitau.basechange_generate(d, seed=draw(st.integers(0, 10**6)), p=p, prec=24)
    return mod, random.Random(draw(st.integers(0, 10**6)))


@settings(max_examples=80, deadline=None)
@given(generated())
def test_sampled_gaps_stay_within_the_constant(case):
    mod, rng = case
    const, witness = phitau.equiv_constant(mod)
    assert const == max(-mod.lattice.val_floor(), -mod.lattice_inverse().val_floor())
    assert gap(mod, witness) == const
    for _ in range(20):
        sampled = gap(mod, selftest.sample_coords(mod, rng))
        assert sampled is None or sampled <= const


def test_cap_at_the_attaining_floor_raises():
    # P = Mat(tau) = Id, W = diag(t^2, 1) and W^{-1} = diag(t^-2, 1) with
    # t^-2 known only to O(-3): the least floor, -3, is a cap
    p, cap = 3, 6
    zero, one = ring.zero(p, cap), ring.one(p, cap)
    ident = MatSeries.identity(2, p, cap)
    w = MatSeries.from_rows([[ring.monomial(p, cap, 1, 0, 2), zero], [zero, one]])
    w_inv = MatSeries.from_rows([[ring.parse_series("O(-3)", p, cap), zero], [zero, one]])
    mod = phitau.make_module(ident, ident, 24, lattice=w, lattice_inv=w_inv)
    with pytest.raises(PrecisionRequired, match="only an O"):
        phitau.equiv_constant(mod)


def test_wrong_lattice_inverse_is_refused():
    # W = diag(t^2, 1): W^{-1} = diag(t^5, 1) leaves t^7 - 1 in W W^{-1} - Id
    p, cap = 3, 6
    zero, one = ring.zero(p, cap), ring.one(p, cap)
    ident = MatSeries.identity(2, p, cap)

    def diag(e):
        return MatSeries.from_rows([[ring.monomial(p, cap, 1, 0, e), zero], [zero, one]])

    with pytest.raises(PreconditionViolated, match="not the inverse"):
        phitau.make_module(ident, ident, 24, lattice=diag(2), lattice_inv=diag(5))
    mod = phitau.make_module(ident, ident, 24, lattice=diag(2), lattice_inv=diag(-2))
    assert phitau.equiv_constant(mod)[0] == 2
