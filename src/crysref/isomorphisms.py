"""Explicit mutually inverse maps between the Artin groups of the
reflection presentations and the braid groups of their configuration
spaces, for the two formal families."""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import (
    Presentation,
    RankOutOfRange,
    UnsupportedFamily,
    artinize,
    build_group_presentation,
    punctured_sphere_braid,
    special_torus_braid,
)
from .prover import GeneratorMap
from .words import Word


def braid_space_for(family: str, n: int) -> tuple[str, int]:
    """Which configuration-space braid presentation matches the Artin
    group of the given family at rank n."""
    if family == "C_alpha":
        if n < 1:
            raise RankOutOfRange("C_alpha needs n >= 1")
        return ("FreeRank3", 1) if n == 1 else ("PuncturedSphere4", n)
    if family == "A_alpha":
        if n < 2:
            raise RankOutOfRange("type A needs n >= 2")
        return ("FreeRank3", 1) if n == 2 else ("TorusSpecial", n)
    raise UnsupportedFamily(f"no braid model wired for {family}")


@dataclass(frozen=True)
class BraidIsomorphism:
    """fwd: braid-space generators -> Artin generators; bwd the inverse."""

    braid: Presentation
    artin: Presentation
    fwd: GeneratorMap
    bwd: GeneratorMap


def braid_isomorphism(family: str, n: int) -> BraidIsomorphism:
    space, _ = braid_space_for(family, n)
    artin = artinize(build_group_presentation(family, n))
    if space == "FreeRank3":
        braid = Presentation(("u1", "u2", "u3"), (None,) * 3, ())
        to_artin = to_braid = tuple(Word.gen(i) for i in range(3))
    elif space == "PuncturedSphere4":
        braid = punctured_sphere_braid(4, n)
        to_artin, to_braid = sphere_maps(4, n)
    else:
        braid = special_torus_braid(n)
        to_artin, to_braid = _a_maps(n)
    fwd = GeneratorMap(braid.generator_names, artin.generator_names, to_artin)
    bwd = GeneratorMap(artin.generator_names, braid.generator_names, to_braid)
    return BraidIsomorphism(braid, artin, fwd, bwd)


def sphere_maps(legs: int, n: int) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """Mutually inverse generator images between the braid group of n >= 1
    points on the sphere with ``legs`` punctures (u1..u(legs), t1..t(n-1))
    and the Artin group on s1..s(n+legs-2).  ``legs`` = 4 is type C (D4),
    ``legs`` = 3 the G(d,1,n) towers (E6/E7/E8); n = 1 gives the rank-one
    GDAHA maps.  Returns (to_artin, to_sphere): the images of the sphere
    generators, then of the Artin generators."""
    k = n + legs - 2
    # Artin generators s1..sk are 0-based 0..k-1; sphere generators
    # u1..u(legs) are 0..legs-1 and t1..t(n-1) are legs..legs+n-2
    s_mid = Word.positive(*range(1, n))             # s2 ... sn
    full = Word.positive(*range(k), *range(n - 1, 0, -1))
    to_artin = (
        (full.inverse(), Word.gen(0))                # u1, u2
        + tuple(s_mid * Word.gen(j) * s_mid.inverse() for j in range(n, k))
        + tuple(Word.gen(i) for i in range(1, n))    # t_i -> s(i+1)
    )
    t_prod = Word.positive(*range(legs, legs + n - 1))  # t1 ... t(n-1)
    to_sphere = (
        (Word.gen(1),)                               # s1 -> u2
        + tuple(Word.gen(legs + i) for i in range(n - 1))      # s2 ... sn
        + tuple(t_prod.inverse() * Word.gen(j) * t_prod for j in range(2, legs))
    )
    return to_artin, to_sphere


def _a_maps(n: int) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """(to_artin, to_torus) between the special torus braid group of n
    points and the type-A Artin group at rank n."""
    # Artin generators s1..s(n+1) = 0..n; braid r0..r(n-1) = 0..n-1,
    # t1..t(n-1) = n..2n-2
    sn1 = Word.gen(n)
    fwd_r = (Word.gen(n - 1),) + tuple(Word.gen(i - 1) for i in range(1, n))
    fwd_t = []
    # t_i = (s1..s(i-1) s(n-1)..s(i+1))^-1 s(n+1) s1..s(i-1) s(n-1)..s_i
    for i in range(1, n):
        a = Word.positive(*range(i - 1), *range(n - 2, i - 1, -1))
        b = Word.positive(*range(i - 1), *range(n - 2, i - 2, -1))
        fwd_t.append(a.inverse() * sn1 * b)
    # bwd: s_i -> r_i (i < n), s_n -> r0,
    # s(n+1) -> r(n-1)...r2 t1 r1^-1 r2^-1 ... r(n-1)^-1
    conj = Word.positive(*range(n - 1, 1, -1))
    bwd_images = (
        tuple(Word.gen(i) for i in range(1, n))
        + (
            Word.gen(0),
            conj * Word.gen(n) * Word.gen(1).inverse() * conj.inverse(),
        )
    )
    return fwd_r + tuple(fwd_t), bwd_images
