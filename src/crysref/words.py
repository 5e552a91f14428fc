"""Freely reduced words over an abstract generating set.

A word is a tuple of signed letters ``(g, e)`` with ``g`` a 0-based
generator index and ``e`` in {+1, -1}.  Words are the common currency of
the presentation, prover and homomorphism layers; they are always kept
freely reduced.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Letter = tuple[int, int]


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[Letter] = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError(f"letter sign must be ±1, got {e}")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


class Word:
    """A freely reduced word; immutable and hashable."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()) -> None:
        object.__setattr__(self, "letters", free_reduce(letters))

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Word is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def gen(cls, g: int, e: int = 1) -> "Word":
        return cls([(g, e)])

    @classmethod
    def positive(cls, *gens: int) -> "Word":
        """The product of the given generators, each to the power +1."""
        return cls([(g, 1) for g in gens])

    # -- group operations ----------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word([(g, -e) for g, e in reversed(self.letters)])

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.letters * k)

    # -- cyclic structure ----------------------------------------------

    def cyclic_reduce(self) -> "Word":
        ls = list(self.letters)
        while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
            ls = ls[1:-1]
        return Word(ls)

    def cyclic_normal_form(self) -> tuple[Letter, ...]:
        """Least rotation of the cyclic reduction; canonical up to rotation."""
        ls = self.cyclic_reduce().letters
        if not ls:
            return ()
        return min(ls[k:] + ls[:k] for k in range(len(ls)))

    # -- plumbing ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def max_index(self) -> int:
        return max((g for g, _ in self.letters), default=-1)

    def exponent_sums(self, num_gens: int) -> list[int]:
        sums = [0] * num_gens
        for g, e in self.letters:
            sums[g] += e
        return sums

    def text(self, names: Sequence[str]) -> str:
        return " ".join(
            names[g] if e == 1 else f"{names[g]}^-1" for g, e in self.letters
        )

    def __repr__(self) -> str:
        if not self.letters:
            return "Word()"
        return "Word[" + " ".join(
            f"{'~' if e < 0 else ''}{g}" for g, e in self.letters
        ) + "]"


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse whitespace-separated letters, `^-1` suffix for inverses."""
    index = {n: i for i, n in enumerate(names)}
    letters: list[Letter] = []
    for tok in text.split():
        if tok.endswith("^-1"):
            name, e = tok[:-3], -1
        else:
            name, e = tok, 1
        if name not in index:
            raise ValueError(f"unknown generator {name!r}")
        letters.append((index[name], e))
    return Word(letters)
