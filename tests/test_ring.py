"""Scalar ring arithmetic: exact axioms, overflow policy, units."""

import pytest
from hypothesis import given, settings, strategies as st

from crysref.ring import (
    FormalAlphaOverflow,
    NotAUnit,
    RingSpec,
    SpecMismatchError,
    all_units,
    parse_element,
)

SPECS = [
    RingSpec.formal_alpha(),
    RingSpec.cyclotomic(3),
    RingSpec.cyclotomic(4),
    RingSpec.cyclotomic(6),
]

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
        assert x + spec.zero() == x
        assert x + (-x) == spec.zero()
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


def test_cyclotomic_reduction_constants():
    # zeta^2 = p*zeta + q per adjoined order
    assert RingSpec.cyclotomic(3).reduction == (-1, -1)
    assert RingSpec.cyclotomic(4).reduction == (0, -1)
    assert RingSpec.cyclotomic(6).reduction == (1, -1)
    assert RingSpec.formal_alpha().reduction == (0, 0)


@pytest.mark.parametrize("d,order", [(3, 3), (4, 4), (6, 6)])
def test_generator_has_expected_order(d, order):
    spec = RingSpec.cyclotomic(d)
    z = spec.gen()
    assert z ** order == spec.one()
    for k in range(1, order):
        assert z ** k != spec.one()


def test_formal_alpha_overflow():
    spec = RingSpec.formal_alpha()
    a = spec.gen()
    with pytest.raises(FormalAlphaOverflow):
        a * a
    with pytest.raises(FormalAlphaOverflow):
        spec.el(1, 2) * spec.el(3, 4)
    # products with an integer side are fine
    assert spec.el(2) * a == spec.el(0, 2)


def test_spec_mismatch_rejected():
    with pytest.raises(SpecMismatchError):
        RingSpec.cyclotomic(3).one() + RingSpec.cyclotomic(4).one()


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_units_invert(spec):
    units = list(all_units(spec))
    expected = 2 if spec.d is None else {3: 6, 4: 4, 6: 6}[spec.d]
    assert len(units) == expected
    for u in units:
        assert u * u.inverse() == spec.one()


def test_nonunits_raise():
    with pytest.raises(NotAUnit):
        RingSpec.formal_alpha().gen().inverse()
    with pytest.raises(NotAUnit):
        RingSpec.cyclotomic(4).el(2).inverse()


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_str_parse_round_trip(spec):
    @settings(max_examples=200, deadline=None)
    @given(elements(spec))
    def inner(x):
        assert parse_element(spec, str(x)) == x

    inner()
