"""Smith normal form over the integers, arbitrary precision.

Only the diagonal is needed here so no transformation matrices are
tracked.  Pivoting picks the least nonzero absolute value to keep the
intermediate entries small.
"""

from __future__ import annotations

import math
from typing import Sequence


def smith_normal_form(rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """Diagonal of the Smith normal form of the given integer matrix.

    Returns ``min(len(rows), width)`` entries ``d1 | d2 | ...`` (zeros at
    the end), all non-negative.
    """
    # an all-zero row adds nothing to the lattice: braid and commutation
    # relators have zero exponent sums
    m = [list(r) for r in rows if any(r)]
    nrows, ncols = len(m), width
    diag: list[int] = []
    top = 0
    while top < nrows and top < ncols:
        # least nonzero |entry| in the remaining block
        pr = pc = -1
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pr, pc = v, i, j
        if best is None:
            break
        m[top], m[pr] = m[pr], m[top]
        for row in m:
            row[top], row[pc] = row[pc], row[top]
        while True:
            pivot = m[top][top]
            done = True
            for i in range(top + 1, nrows):
                q = m[i][top] // pivot
                if q:
                    for j in range(top, ncols):
                        m[i][j] -= q * m[top][j]
                if m[i][top]:
                    # remainder smaller than the pivot: swap up and redo
                    m[top], m[i] = m[i], m[top]
                    done = False
                    break
            if not done:
                continue
            for j in range(top + 1, ncols):
                q = m[top][j] // pivot
                if q:
                    for i in range(top, nrows):
                        m[i][j] -= q * m[i][top]
                if m[top][j]:
                    for i in range(nrows):
                        m[i][top], m[i][j] = m[i][j], m[i][top]
                    done = False
                    break
            if done:
                break
        diag.append(abs(m[top][top]))
        top += 1
    diag += [0] * (min(len(rows), ncols) - len(diag))
    # enforce the divisibility chain.  Every pivot is nonzero and comes
    # before the zero padding, and gcd and lcm of nonzero values stay
    # nonzero, so the zeros stay last; and a chain d1 | d2 | ... of
    # positive values is already ascending
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a and b and b % a != 0:
                g = math.gcd(a, b)
                diag[i], diag[j] = g, a * b // g
    return diag
