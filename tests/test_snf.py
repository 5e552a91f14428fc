"""Smith normal form against the sympy oracle."""

import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import example, given, settings, strategies as st

from crysref.snf import smith_normal_form as my_snf


def oracle(rows, width):
    if not rows:
        return []
    m = sympy.Matrix(rows)
    s = smith_normal_form(m)
    diag = [abs(int(s[i, i])) for i in range(min(s.shape))]
    nz = sorted(d for d in diag if d)
    return nz + [0] * (min(len(rows), width) - len(nz))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.lists(
                # all-zero rows interleaved, as braid relators give them
                st.one_of(
                    st.just([0] * w),
                    st.lists(st.integers(min_value=-6, max_value=6),
                             min_size=w, max_size=w),
                ),
                max_size=6,
            ),
        )
    )
)
@example((3, [[0, 0, 0], [2, 4, 0], [0, 0, 0], [0, 6, 3], [0, 0, 0]]))
@example((2, [[0, 0], [0, 0], [0, 0]]))
def test_matches_sympy(case):
    width, rows = case
    assert my_snf(rows, width) == oracle(rows, width)


def test_divisibility_chain():
    rows = [[2, 0], [0, 3]]
    divs = my_snf(rows, 2)
    assert divs == [1, 6]


def test_empty_matrix():
    assert my_snf([], 3) == []
