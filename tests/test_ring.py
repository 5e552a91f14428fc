"""Scalar ring arithmetic on int pairs: exact axioms, overflow policy, units."""

import pytest
from hypothesis import given, settings, strategies as st

from crysref.ring import (
    FormalAlphaOverflow,
    NotAUnit,
    RingElement,
    RingSpec,
    SpecMismatchError,
)

SPECS = [RingSpec(), RingSpec(3), RingSpec(4), RingSpec(6)]
ONE, ZERO = (1, 0), (0, 0)

coef = st.integers(min_value=-50, max_value=50)
pairs = st.tuples(coef, coef)


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def elements(spec):
    if spec.d is None:
        # keep triples multipliable: at most one coordinate carries alpha
        return st.one_of(
            st.builds(lambda a: (a, 0), coef),
            st.builds(lambda b: (0, b), coef),
        )
    return pairs


def power(spec, x, k):
    out = ONE
    for _ in range(k):
        out = spec.mul(out, x)
    return out


def unit_set(spec):
    """±w^k for k below the order of w, or ±1 in the formal ring, where
    w = α is no unit; written out without calling ``inv``."""
    if spec.d is None:
        return {(1, 0), (-1, 0)}
    return {(s * a, s * b) for s in (1, -1)
            for a, b in [power(spec, (0, 1), k) for k in range(spec.d)]}


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_ring_axioms(spec):
    @settings(max_examples=1000, deadline=None)
    @given(elements(spec), elements(spec), elements(spec))
    def inner(x, y, z):
        assert spec.mul(x, ONE) == spec.mul(ONE, x) == x
        try:
            xy, yx = spec.mul(x, y), spec.mul(y, x)
        except FormalAlphaOverflow:
            return
        assert xy == yx
        try:
            assert spec.mul(xy, z) == spec.mul(x, spec.mul(y, z))
            assert spec.mul(x, add(y, z)) == add(xy, spec.mul(x, z))
        except FormalAlphaOverflow:
            pass

    inner()


@pytest.mark.parametrize("d,order", [(3, 3), (4, 4), (6, 6)])
def test_generator_has_expected_order(d, order):
    spec = RingSpec(d)
    assert power(spec, (0, 1), order) == ONE
    for k in range(1, order):
        assert power(spec, (0, 1), k) != ONE


def test_formal_alpha_overflow():
    spec = RingSpec()
    alpha = (0, 1)
    with pytest.raises(FormalAlphaOverflow):
        spec.mul(alpha, alpha)
    with pytest.raises(FormalAlphaOverflow):
        spec.mul((1, 2), (3, 4))
    # products with an integer side are fine
    assert spec.mul((2, 0), alpha) == (0, 2)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_units_invert(spec):
    units = unit_set(spec)
    expected = 2 if spec.d is None else {3: 6, 4: 4, 6: 6}[spec.d]
    assert len(units) == expected
    for u in units:
        assert spec.mul(u, spec.inv(u)) == ONE


def test_nonunits_raise():
    with pytest.raises(NotAUnit):
        RingSpec().inv((0, 1))
    with pytest.raises(NotAUnit):
        RingSpec(4).inv((2, 0))


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_inv_raises_exactly_off_the_unit_set(spec):
    units = unit_set(spec)

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(pairs, st.sampled_from(sorted(units))))
    def inner(x):
        if x not in units:
            with pytest.raises(NotAUnit):
                spec.inv(x)
        else:
            assert spec.mul(x, spec.inv(x)) == ONE

    inner()


def test_element_shell_uses_the_pair_kernel():
    spec = RingSpec(6)
    x, y = (3, -2), (-5, 7)
    product = RingElement(spec, *x) * RingElement(spec, *y)
    assert (product.a, product.b) == spec.mul(x, y)
    total = RingElement(spec, *x) + RingElement(spec, *y)
    assert (total.a, total.b) == add(x, y)


def test_spec_mismatch_rejected():
    z3, i = RingElement(RingSpec(3), 1, 0), RingElement(RingSpec(4), 1, 0)
    with pytest.raises(SpecMismatchError):
        z3 + i
    with pytest.raises(SpecMismatchError):
        z3 * i
