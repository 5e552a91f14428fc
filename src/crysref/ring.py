"""Exact degree-two scalar arithmetic for affine reflection matrices.

Two kinds of scalars appear as matrix entries: cyclotomic integers
``Z[zeta_d]`` for ``d`` in {3, 4, 6}, and elements of the formal lattice
``Z + alpha*Z`` where ``alpha`` is treated as a transcendental symbol.
Every value is a pair ``(a, b)`` meaning ``a + b*w`` with ``w`` the
adjoined generator.  ``RingSpec.mul``, ``RingSpec.inv`` and
``RingSpec.text`` are the one multiply, inverse and printer, on bare int
pairs: the affine kernel calls them directly, and ``RingElement`` wraps a
pair with its ring for checked arithmetic.  In the formal mode a product
that would create an ``alpha**2`` term is an error, never a silent
truncation: the group arithmetic in scope provably never produces one, so
hitting the error means a bug upstream.
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

    # -- element constructors ------------------------------------------

    def el(self, a: int, b: int = 0) -> "RingElement":
        return RingElement(self, a, b)

    def one(self) -> "RingElement":
        return self.el(1)

    # -- pairs ---------------------------------------------------------

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
    spec: RingSpec
    a: int
    b: int

    def _check(self, other: "RingElement") -> None:
        if self.spec != other.spec:
            raise SpecMismatchError(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.spec, self.a + other.a, self.b + other.b)

    def __neg__(self) -> "RingElement":
        return RingElement(self.spec, -self.a, -self.b)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return self.spec.el(*self.spec.mul((self.a, self.b), (other.a, other.b)))

    def inverse(self) -> "RingElement":
        """Multiplicative inverse of a ring unit."""
        return self.spec.el(*self.spec.inv((self.a, self.b)))

    def __pow__(self, k: int) -> "RingElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.spec.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        return self.spec.text((self.a, self.b))

    def __repr__(self) -> str:
        return f"<{self} : {self.spec}>"
