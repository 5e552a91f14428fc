"""Scalar ring arithmetic: exact axioms, overflow policy, units."""

import pytest
from hypothesis import given, settings, strategies as st

from crysref.ring import (
    FormalAlphaOverflow,
    NotAUnit,
    RingSpec,
    SpecMismatchError,
)

SPECS = [RingSpec(), RingSpec(3), RingSpec(4), RingSpec(6)]

coef = st.integers(min_value=-50, max_value=50)


def elements(spec):
    if spec.d is None:
        # keep triples multipliable: at most one coordinate carries alpha
        return st.one_of(
            st.builds(lambda a: spec.el(a), coef),
            st.builds(lambda b: spec.el(0, b), coef),
        )
    return st.builds(lambda a, b: spec.el(a, b), coef, coef)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_ring_axioms(spec):
    @settings(max_examples=1000, deadline=None)
    @given(elements(spec), elements(spec), elements(spec))
    def inner(x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + spec.el(0) == x
        assert x + (-x) == spec.el(0)
        assert x * spec.one() == x
        try:
            xy, yx = x * y, y * x
        except FormalAlphaOverflow:
            return
        assert xy == yx
        try:
            assert (xy) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
        except FormalAlphaOverflow:
            pass

    inner()


@pytest.mark.parametrize("d,order", [(3, 3), (4, 4), (6, 6)])
def test_generator_has_expected_order(d, order):
    spec = RingSpec(d)
    z = spec.el(0, 1)
    assert z ** order == spec.one()
    for k in range(1, order):
        assert z ** k != spec.one()


def test_formal_alpha_overflow():
    spec = RingSpec()
    a = spec.el(0, 1)
    with pytest.raises(FormalAlphaOverflow):
        a * a
    with pytest.raises(FormalAlphaOverflow):
        spec.el(1, 2) * spec.el(3, 4)
    # products with an integer side are fine
    assert spec.el(2) * a == spec.el(0, 2)


def test_spec_mismatch_rejected():
    with pytest.raises(SpecMismatchError):
        RingSpec(3).one() + RingSpec(4).one()


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_units_invert(spec):
    z = spec.el(0, 1)  # ζ, or α in the formal ring, where only ±1 are units
    units = {s * z ** k for s in (spec.one(), -spec.one()) for k in range(spec.d or 1)}
    expected = 2 if spec.d is None else {3: 6, 4: 4, 6: 6}[spec.d]
    assert len(units) == expected
    for u in units:
        assert u * u.inverse() == spec.one()


def test_nonunits_raise():
    with pytest.raises(NotAUnit):
        RingSpec().el(0, 1).inverse()
    with pytest.raises(NotAUnit):
        RingSpec(4).el(2).inverse()
