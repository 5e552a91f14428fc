"""Finite presentations for the crystallographic reflection families.

Covers the reflection presentations of the two non-genuine families
(types A and C), the genuine families, and the braid presentations of
the relevant configuration spaces.  Every reflection presentation is read
off its Coxeter-like diagram: an order relator per node, a braid relator
per laced edge, a commutator per pair with no edge, the x-relation of
the x-lace (types A and C only), and the extra order relation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .snf import smith_normal_form
from .words import Word


class Lace(Enum):
    SIMPLE = "simple"      # braid relation sts = tst
    DOUBLE = "double"      # quartic stst = tsts
    X = "x"                # the exchange relation of the non-genuine families
    INFINITY = "infinity"  # drawn edge, no relation

    @property
    def braid_length(self) -> int | None:
        return {Lace.SIMPLE: 3, Lace.DOUBLE: 4}.get(self)


Edge = tuple[int, int, Lace]                        # 0-based node pair, lace


@dataclass(frozen=True)
class CoxeterLikeDiagram:
    nodes: tuple[tuple[str, int | None], ...]      # (name, order label)
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        x_count = sum(1 for _, _, l in self.edges if l is Lace.X)
        if x_count > 1:
            raise ValueError("at most one x-lace per diagram")


@dataclass(frozen=True)
class Presentation:
    generator_names: tuple[str, ...]
    generator_orders: tuple[int | None, ...]       # None = infinite
    relators: tuple[Word, ...]
    extra_order_relation: Optional[tuple[Word, int]] = None
    diagram: Optional[CoxeterLikeDiagram] = None
    x_relator_index: Optional[int] = None

    def __post_init__(self) -> None:
        k = len(self.generator_names)
        if len(self.generator_orders) != k:
            raise ValueError("orders/names length mismatch")
        for o in self.generator_orders:
            if o is not None and o < 1:
                raise ValueError(f"generator order must be >= 1, got {o}")
        for r in self.relators:
            if r.max_index() >= k:
                raise ValueError(f"relator {r!r} uses undeclared generator")

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)


# ---------------------------------------------------------------------
# relator building blocks


def braid_relator(i: int, j: int, m: int) -> Word:
    """prod(i,j; m) * prod(j,i; m)^-1, the length-m braid relation."""
    lhs = [(i, 1) if k % 2 == 0 else (j, 1) for k in range(m)]
    rhs = [(j, 1) if k % 2 == 0 else (i, 1) for k in range(m)]
    return Word(lhs) * Word(rhs).inverse()


def comm_relator(i: int, j: int) -> Word:
    return Word([(i, 1), (j, 1), (i, -1), (j, -1)])


def power_relator(i: int, e: int) -> Word:
    return Word([(i, 1)] * e)


# ---------------------------------------------------------------------
# reflection presentations, read off their Coxeter-like diagrams (matrix
# representations exist only for types A and C and the d-cyclic label-1
# towers)

GROUP_FAMILIES = (
    "A_alpha", "C_alpha",
    "G311", "G411", "G412", "G421", "G422", "G611", "G621", "G631",
)


class RankOutOfRange(ValueError):
    pass


class UnsupportedFamily(ValueError):
    pass


def _chain(m: int, head: Lace, tail: Lace) -> list[Edge]:
    """The path s1 - ... - s(m+1): the head lace first, the tail lace
    last, simple laces between."""
    return [(i, i + 1, head if i == 0 else tail if i == m - 1 else Lace.SIMPLE)
            for i in range(m)]


def _diagram_presentation(
    orders: tuple[int, ...], edges: Sequence[Edge], base: Word, e: int,
    x: Word | None = None,
) -> Presentation:
    """The presentation a diagram on s1..sk encodes: an order relator per
    node, a braid relator per laced edge (in the orientation given), a
    commutator per pair with no edge (in index order), the x-relator x of
    the x-lace if there is one, then base^e.  ``artinize`` relies on this
    layout: the k order relators come first and base^e comes last."""
    k = len(orders)
    names = tuple(f"s{i}" for i in range(1, k + 1))
    rels = [power_relator(i, o) for i, o in enumerate(orders)]
    rels += [braid_relator(i, j, l.braid_length) for i, j, l in edges
             if l.braid_length]
    drawn = {frozenset((i, j)) for i, j, _ in edges}
    rels += [comm_relator(i, j) for i in range(k) for j in range(i + 1, k)
             if frozenset((i, j)) not in drawn]
    x_index = None
    if x is not None:
        x_index = len(rels)
        rels.append(x)
    rels.append(base ** e)
    diagram = CoxeterLikeDiagram(
        tuple(zip(names, orders)),
        tuple((min(i, j), max(i, j), l) for i, j, l in edges),
    )
    return Presentation(names, orders, tuple(rels), (base, e), diagram, x_index)


def _a1_presentation() -> Presentation:
    """C_alpha at n = 1 and A_alpha at n = 2: three involutions, pairwise
    joined by infinity edges."""
    edges = [(i, j, Lace.INFINITY) for i, j in ((0, 1), (0, 2), (1, 2))]
    return _diagram_presentation((2, 2, 2), edges, Word.positive(0, 1, 2), 2)


def _c_presentation(n: int) -> Presentation:
    if n == 1:
        return _a1_presentation()
    # a chain s1 .. sn with a quartic lace s1=s2, sn joined to s(n+1) and
    # s(n+2) by quartic laces, and an x-lace s(n+1)-s(n+2)
    a, b, c = n - 1, n, n + 1
    edges = _chain(n - 1, Lace.DOUBLE, Lace.SIMPLE)
    edges += [(a, b, Lace.DOUBLE), (a, c, Lace.DOUBLE), (b, c, Lace.X)]
    # x-relation: sn s(n+1) sn^-1 s(n+2) = s(n+2) sn s(n+1) sn^-1
    w1 = Word([(a, 1), (b, 1), (a, -1), (c, 1)])
    w2 = Word([(c, 1), (a, 1), (b, 1), (a, -1)])
    # (s1 ... s(n+2) sn ... s2)^2
    base = Word.positive(*range(n + 2), *range(n - 1, 0, -1))
    return _diagram_presentation((2,) * (n + 2), edges, base, 2, w1 * w2.inverse())


def _a_presentation(n: int) -> Presentation:
    if n == 2:
        return _a1_presentation()
    # a chain s1 .. s(n-1), both affine generators sn and s(n+1) braiding
    # with its two ends, and an x-lace sn-s(n+1)
    edges = _chain(n - 2, Lace.SIMPLE, Lace.SIMPLE)
    edges += [(extra, j, Lace.SIMPLE) for extra in (n - 1, n) for j in (0, n - 2)]
    edges.append((n - 1, n, Lace.X))
    # x-relation: s(n+1) s(n-1) ... s1 sn s1^-1
    #           = s(n-1) sn^-1 s(n-1)^-1 ... s1^-1 s(n+1)^-1
    lhs = Word(
        [(n, 1)] + [(i, 1) for i in range(n - 2, -1, -1)] + [(n - 1, 1), (0, -1)]
    )
    rhs = Word(
        [(n - 2, 1), (n - 1, -1)]
        + [(i, -1) for i in range(n - 2, -1, -1)]
        + [(n, -1)]
    )
    # (s1 ... s(n+1) s(n-1) ... s2)^2
    base = Word.positive(*range(n + 1), *range(n - 2, 0, -1))
    return _diagram_presentation((2,) * (n + 1), edges, base, 2, lhs * rhs.inverse())


# per family: order of the first node, order of the top affine node, and
# the exponent of the extra order relation
_G_D1N = {"G311": (3, 3, 3), "G411": (4, 4, 4), "G611": (6, 2, 6)}

# per family: order of the first node, exponent of the extra order
# relation, and the name in the rank error
_G_DPN = {"G412": (4, 4, "[G(4,1,n)]_2"), "G621": (3, 6, "[G(6,2,n)]")}


def _g_d1n_presentation(family: str, n: int) -> Presentation:
    d0, dtop, e = _G_D1N[family]
    orders = (d0,) + (2,) * (n - 1) + (dtop,)
    if n == 1:
        edges = [(0, 1, Lace.INFINITY)]
    else:
        edges = _chain(n, Lace.DOUBLE, Lace.DOUBLE)
    # (s1 ... s(n+1) sn ... s2)^e
    base = Word.positive(*range(n + 1), *range(n - 1, 0, -1))
    return _diagram_presentation(orders, edges, base, e)


def _g_dpn_presentation(family: str, n: int) -> Presentation:
    """[G(4,1,n)]_2 and [G(6,2,n)]: a chain s1 .. sn with quartic laces
    at both ends, and s(n-1) also joined to s(n+1) by a quartic lace."""
    d0, e, name = _G_DPN[family]
    if n < 2:
        raise RankOutOfRange(f"{name} needs n >= 2")
    edges = _chain(n - 1, Lace.DOUBLE, Lace.DOUBLE) + [(n - 2, n, Lace.DOUBLE)]
    # (s1 ... s(n+1) s(n-1) ... s2)^e
    base = Word.positive(*range(n + 1), *range(n - 2, 0, -1))
    return _diagram_presentation((d0,) + (2,) * n, edges, base, e)


def _g421_presentation(n: int) -> Presentation:
    if n < 2:
        raise RankOutOfRange("[G(4,2,n)]_1 needs n >= 2")
    if n == 2:
        # the exceptional star on five involutions, centred at s2
        edges = [(1, leaf, Lace.SIMPLE) for leaf in (0, 2, 3, 4)]
        return _diagram_presentation((2,) * 5, edges, Word.positive(1, 0, 2, 3, 4), 2)
    # a triangle s1 s2 s3, a chain s3 .. sn, and sn joined to s(n+1) and
    # s(n+2) by quartic laces
    edges = [(0, 1, Lace.SIMPLE), (1, 2, Lace.SIMPLE), (0, 2, Lace.SIMPLE)]
    edges += [(i, i + 1, Lace.SIMPLE) for i in range(2, n - 1)]
    edges += [(n - 1, n, Lace.DOUBLE), (n - 1, n + 1, Lace.DOUBLE)]
    # (s1 ... s(n+2) sn ... s4)^4
    base = Word.positive(*range(n + 2), *range(n - 1, 2, -1))
    return _diagram_presentation((2,) * (n + 2), edges, base, 4)


def _g422_g631_presentation(family: str, n: int) -> Presentation:
    """[G(4,2,n)]_2 and [G(6,3,n)]: a chain s1 .. sn with sn joined to
    both s(n+1) and s(n+2) by quartic laces."""
    if family == "G422" and (n < 2 or n == 3):
        raise RankOutOfRange("[G(4,2,n)]_2 is encoded for n = 2 and n >= 4")
    if n < 2:
        raise RankOutOfRange("[G(6,3,n)] needs n >= 2")
    edges = _chain(n, Lace.SIMPLE, Lace.DOUBLE) + [(n - 1, n + 1, Lace.DOUBLE)]
    # G422: (s1 ... s(n+2) s(n+1) ... s4)^4; G631: (s2 ... s(n+2) s(n+1) ... s4)^6
    first, e = (0, 4) if family == "G422" else (1, 6)
    base = Word.positive(*range(first, n + 2), *range(n, 2, -1))
    return _diagram_presentation((2,) * (n + 2), edges, base, e)


def build_group_presentation(family: str, n: int) -> Presentation:
    """Reflection presentation of the given family at rank n."""
    if family not in GROUP_FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}; choose from "
                                + ", ".join(GROUP_FAMILIES))
    if n < 1:
        raise RankOutOfRange(f"rank must be positive, got {n}")
    if family == "C_alpha":
        return _c_presentation(n)
    if family == "A_alpha":
        if n < 2:
            raise RankOutOfRange("type A needs n >= 2")
        return _a_presentation(n)
    if family in _G_D1N:
        return _g_d1n_presentation(family, n)
    if family in _G_DPN:
        return _g_dpn_presentation(family, n)
    if family == "G421":
        return _g421_presentation(n)
    return _g422_g631_presentation(family, n)


# ---------------------------------------------------------------------
# braid presentations of the configuration spaces

def punctured_sphere_braid(holes: int, n: int) -> Presentation:
    """Surface braid group of n points on the sphere with the given number
    of punctures, with the closedness relation."""
    if n < 1:
        raise RankOutOfRange("need n >= 1 strands")
    m = holes
    names = tuple(f"u{i}" for i in range(1, m + 1)) + tuple(
        f"t{i}" for i in range(1, n)
    )
    k = len(names)
    u = list(range(m))
    t = list(range(m, k))
    rels: list[Word] = []
    # closedness: u1 ... um t1 ... t(n-1) t(n-1) ... t1 = 1
    rels.append(Word.positive(*u, *t, *reversed(t)))
    for a in range(n - 1):
        for b in range(a + 2, n - 1):
            rels.append(comm_relator(t[a], t[b]))
    for a in range(n - 2):
        rels.append(braid_relator(t[a], t[a + 1], 3))
    for ui in u:
        for b in range(1, n - 1):
            rels.append(comm_relator(ui, t[b]))
        if n >= 2:
            rels.append(braid_relator(ui, t[0], 4))
    if n >= 2:
        for a in range(m):
            for b in range(a + 1, m):
                # u_a t1^-1 u_b t1 = t1^-1 u_b t1 u_a
                conj = Word([(t[0], -1), (u[b], 1), (t[0], 1)])
                lhs = Word([(u[a], 1)]) * conj
                rhs = conj * Word([(u[a], 1)])
                rels.append(lhs * rhs.inverse())
    return Presentation(names, (None,) * k, tuple(rels))


def special_torus_braid(n: int) -> Presentation:
    """Braid group of special unordered configurations of n points on the
    torus (product of the points is the unit)."""
    if n < 2:
        raise RankOutOfRange("the toric presentation needs n >= 2")
    names = tuple(f"r{i}" for i in range(n)) + tuple(f"t{i}" for i in range(1, n))
    k = len(names)
    r = list(range(n))
    t = list(range(n, k))
    rels: list[Word] = []
    for a in range(n):
        for b in range(a + 1, n):
            if (a - b) % n in (1, n - 1):
                rels.append(braid_relator(r[a], r[b], 3))
            else:
                rels.append(comm_relator(r[a], r[b]))
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            rels.append(comm_relator(t[a], t[b]))
    # r_i vs t_j: no relation when j = i (the deleted same-index
    # pushrelations); commutation unless j = i ± 1 mod n
    for a in range(n):
        for b in range(1, n):
            if (a - b) % n in (0, 1, n - 1):
                continue
            rels.append(comm_relator(r[a], t[b - 1]))
    # pushrelations r_i t_(i+1) r_i = r_(i+1) t_i r_(i+1) = t_i t_(i+1)
    for i in range(1, n - 1):
        tt = Word([(t[i - 1], 1), (t[i], 1)])
        rels.append(Word([(r[i], 1), (t[i], 1), (r[i], 1)]) * tt.inverse())
        rels.append(Word([(r[i + 1], 1), (t[i - 1], 1), (r[i + 1], 1)]) * tt.inverse())
    # special pushrelations r0 t_i r0 = t_i (t1 ... t(n-1))^-1, i = 1, n-1
    tprod = Word.positive(*t)
    for i in {1, n - 1}:
        lhs = Word([(r[0], 1), (t[i - 1], 1), (r[0], 1)])
        rhs = Word([(t[i - 1], 1)]) * tprod.inverse()
        rels.append(lhs * rhs.inverse())
    return Presentation(names, (None,) * k, tuple(rels))


# ---------------------------------------------------------------------
# Artin groups, abelianization, rendering


def artinize(p: Presentation) -> Presentation:
    """Delete all order relations (including the extra one) and forget
    finite orders; braid, commutation and x relators survive unchanged.

    Reads the layout of ``_diagram_presentation``: the order relators are
    the first k relators and ``base ** e`` is the last one."""
    if p.diagram is None or p.extra_order_relation is None:
        raise ValueError("artinize needs a diagram presentation")
    k = p.num_generators
    x_index = p.x_relator_index
    diagram = replace(p.diagram, nodes=tuple((nm, None) for nm, _ in p.diagram.nodes))
    return Presentation(
        p.generator_names, (None,) * k, p.relators[k:-1], None, diagram,
        None if x_index is None else x_index - k,
    )


def abelianize(p: Presentation) -> list[int]:
    """Elementary divisors of the relator exponent-sum matrix.

    Divisors different from 1 in divisibility order, with a trailing 0
    per free factor.
    """
    k = p.num_generators
    rows = [r.exponent_sums(k) for r in p.relators]
    diag = smith_normal_form(rows, k)
    finite = [d for d in diag if d not in (0, 1)]
    zeros = [0] * (k - sum(1 for d in diag if d != 0))
    return finite + zeros


_LACE_STYLE = {
    Lace.SIMPLE: ("", ""),
    Lace.DOUBLE: ('label="4"', ""),
    Lace.X: ('label="x"', "style=dashed"),
    Lace.INFINITY: ('label="∞"', "style=dotted"),
}


def diagram_to_dot(d: CoxeterLikeDiagram) -> str:
    lines = ["graph coxeterlike {"]
    for name, order in d.nodes:
        label = name if order in (None, 2) else f"{name} ({order})"
        lines.append(f'  "{name}" [label="{label}"];')
    for i, j, lace in sorted(d.edges, key=lambda e: (e[0], e[1])):
        a, b = d.nodes[i][0], d.nodes[j][0]
        attrs = " ".join(x for x in _LACE_STYLE[lace] if x)
        lines.append(f'  "{a}" -- "{b}"' + (f" [{attrs}];" if attrs else ";"))
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------
# text serialization


def presentation_to_text(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generator_names)]
    lines.append(
        "orders: " + " ".join("inf" if o is None else str(o) for o in p.generator_orders)
    )
    for r in p.relators:
        lines.append("rel: " + r.text(p.generator_names))
    return "\n".join(lines) + "\n"
