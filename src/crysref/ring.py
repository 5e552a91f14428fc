"""Exact degree-two scalar arithmetic for affine reflection matrices.

Two kinds of scalars appear as matrix entries: cyclotomic integers
``Z[zeta_d]`` for ``d`` in {3, 4, 6}, and elements of the formal lattice
``Z + alpha*Z`` where ``alpha`` is treated as a transcendental symbol.
Every value is a bare int pair ``(a, b)`` meaning ``a + b*w`` with ``w``
the adjoined generator; sums are component-wise.  ``RingSpec.mul``,
``RingSpec.inv`` and ``RingSpec.text`` are the one multiply, inverse and
printer, and the affine kernel calls them directly.  In the formal mode a
product that would create an ``alpha**2`` term is an error, never a
silent truncation: the group arithmetic in scope provably never produces
one, so hitting the error means a bug upstream.
"""

from __future__ import annotations

from dataclasses import dataclass


class RingError(Exception):
    """Base class for scalar arithmetic errors."""


class SpecMismatchError(RingError):
    """Operands belong to different rings."""


class FormalAlphaOverflow(RingError):
    """A product in the formal mode would need an alpha**2 term."""


class NotAUnit(RingError):
    """Inversion was requested for a non-unit."""


Pair = tuple[int, int]  # (a, b) meaning a + b*w
# u**2 reduced as  u**2 = P*u + Q, and the printed symbol, per d; d is
# None in the formal mode, where an alpha**2 term is an error instead.
_RING_DATA = {
    None: (0, 0, "α"),
    3: (-1, -1, "ζ3"),   # u²+u+1 = 0
    4: (0, -1, "i"),     # u²+1 = 0
    6: (1, -1, "ζ6"),    # u²-u+1 = 0
}


@dataclass(frozen=True)
class RingSpec:
    """``Z[zeta_d]`` for d in {3, 4, 6}; ``d`` None is the formal ring."""

    d: int | None = None

    def __post_init__(self) -> None:
        if self.d not in _RING_DATA:
            raise ValueError(f"cyclotomic order must be 3, 4 or 6, got {self.d}")

    @property
    def symbol(self) -> str:
        return _RING_DATA[self.d][2]

    def __repr__(self) -> str:
        if self.d is None:
            return "RingSpec(FormalAlpha)"
        return f"RingSpec(Cyclotomic d={self.d})"

    def text(self, x: Pair) -> str:
        """The printed form of a pair: ``a``, ``b*w`` or ``a+b*w``."""
        a, b = x
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*{self.symbol}"
        return f"{a}{'+' if b > 0 else ''}{b}*{self.symbol}"

    def mul(self, x: Pair, y: Pair) -> Pair:
        """The product of two pairs of this ring."""
        (a, b), (c, d) = x, y
        if b and d and self.d is None:
            raise FormalAlphaOverflow(
                f"({self.text(x)}) * ({self.text(y)}) would need an α² term"
            )
        p, q, _ = _RING_DATA[self.d]
        # (a + b·u)(c + d·u) = ac + (ad + bc)·u + bd·u², u² = p·u + q
        return a * c + b * d * q, a * d + b * c + b * d * p

    def inv(self, x: Pair) -> Pair:
        """Multiplicative inverse of a unit pair.

        Solved as a 2x2 integer system: (a + b·u)(x + y·u) = 1.
        """
        a, b = x
        if self.d is None:  # formal mode
            if b == 0 and a in (1, -1):
                return x
            raise NotAUnit(f"{self.text(x)} is not a unit of Z+αZ")
        p, q, _ = _RING_DATA[self.d]
        # [[a, b·q], [b, a + b·p]] @ (x, y) = (1, 0)
        det = a * (a + b * p) - b * (b * q)
        if det not in (1, -1):
            raise NotAUnit(f"{self.text(x)} is not a unit (norm {det})")
        return (a + b * p) * det, -b * det


@dataclass(frozen=True)
class RingElement:
    """A pair with its ring.  Nothing in crysref builds one; the class goes
    once the benchmark stops counting these two methods."""

    spec: RingSpec
    a: int
    b: int

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.spec != other.spec:
            raise SpecMismatchError(f"{self.spec} vs {other.spec}")
        return RingElement(self.spec, self.a + other.a, self.b + other.b)

    def __mul__(self, other: "RingElement") -> "RingElement":
        if self.spec != other.spec:
            raise SpecMismatchError(f"{self.spec} vs {other.spec}")
        return RingElement(
            self.spec, *self.spec.mul((self.a, self.b), (other.a, other.b)))
