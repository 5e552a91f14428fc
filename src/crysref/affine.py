"""Exact affine representations of the crystallographic families.

An affine element is a pair (g | t): linear part g and translation t over
a ring of exact scalars.  Composition follows
(g | t)(g' | t') = (g g' | g t' + t).  Every linear part here is monomial
(one unit per row and column), so an element is stored as
(perm, units | shift): row i of g holds units[i] in column perm[i].  The
rank of g - 1 and the order of g are read off the cycles of perm.

Scalars are stored as int pairs (a, b) meaning a + b*w, and multiplied by
the ring's one pair multiply, ``RingSpec.mul``.  ``_compose`` is the one
product, of any number of raw (perm, units, shift) triples in one pass,
and ``_entries`` the one printer, through ``RingSpec.text``.  A word is
evaluated, and a class candidate conjugated, in one ``_compose`` call.
The class grid, its closure and the choice of representatives work on
triples alone; an ``AffineElement`` is built only where a caller gets one
back or a representative is classified.  Conjugations and relator checks
work only on the coordinates that their generators move (``_moved``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from .presentations import UnsupportedFamily, build_group_presentation
from .ring import Pair, RingSpec, SpecMismatchError
from .words import Word

Pairs = tuple[Pair, ...]
Monomial = tuple[tuple[int, ...], Pairs]  # (perm, units)
Triple = tuple[tuple[int, ...], Pairs, Pairs]  # (perm, units, shift)


def _compose(mul, x: Triple, *rest: Triple) -> Triple:
    """The triple of the product x·y·…, each row walked once through all
    factors: (g | t)(g' | t') = (g g' | g t' + t).  It makes the scalar
    products of the pairwise left fold, row by row; a unit (1, 0) skips
    ``mul``, which is exact and can never overflow."""
    out_perm, out_units, out_shift = [], [], []
    for p, u, (a, b) in zip(*x):
        for perm2, units2, shift2 in rest:
            if u == (1, 0):
                u, (c, d) = units2[p], shift2[p]
            else:
                u, (c, d) = mul(u, units2[p]), mul(u, shift2[p])
            p, a, b = perm2[p], c + a, d + b
        out_perm.append(p)
        out_units.append(u)
        out_shift.append((a, b))
    return tuple(out_perm), tuple(out_units), tuple(out_shift)


def _moved(x: Triple) -> set[int]:
    """The coordinates where x differs from the identity, a set closed
    under perm: two triples whose moved sets do not meet commute."""
    return {i for i, (p, u, t) in enumerate(zip(*x))
            if p != i or u != (1, 0) or t != (0, 0)}


@dataclass(frozen=True)
class AffineElement:
    """(g | t) with g monomial: row i of g holds units[i] in column perm[i];
    units and the translation shift are int pairs of the ring spec."""

    spec: RingSpec
    perm: tuple[int, ...]
    units: Pairs
    shift: Pairs

    def __post_init__(self) -> None:
        n = len(self.shift)
        if len(self.units) != n or sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation matching the translation")
        if (0, 0) in self.units:
            raise ValueError("a monomial linear part has no zero unit")

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, spec: RingSpec, n: int) -> "AffineElement":
        return cls(spec, tuple(range(n)), ((1, 0),) * n, ((0, 0),) * n)

    @property
    def dim(self) -> int:
        return len(self.shift)

    # -- group structure -----------------------------------------------

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.spec != other.spec or self.dim != other.dim:
            raise SpecMismatchError("cannot compose over different rings/dims")
        return AffineElement(self.spec, *_compose(
            self.spec.mul, self.triple, other.triple))

    @property
    def triple(self) -> Triple:
        return self.perm, self.units, self.shift

    def inverse(self) -> "AffineElement":
        """(g⁻¹ | 0)(1 | -t); units[i] at (i, perm[i]) moves to (perm[i], i)."""
        n, inv = self.dim, self.spec.inv
        perm = [0] * n
        units = [(1, 0)] * n
        for i, (p, u) in enumerate(zip(self.perm, self.units)):
            perm[p] = i
            units[p] = inv(u)
        neg = tuple(range(n)), ((1, 0),) * n, tuple((-a, -b) for a, b in self.shift)
        return AffineElement(self.spec, *_compose(
            self.spec.mul, (tuple(perm), tuple(units), ((0, 0),) * n), neg))

    def __pow__(self, k: int) -> "AffineElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = AffineElement.identity(self.spec, self.dim)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_translation(self) -> bool:
        """Whether the linear part is the identity."""
        n = self.dim
        return self.perm == tuple(range(n)) and self.units == ((1, 0),) * n

    def is_identity(self) -> bool:
        return self.is_translation() and self.shift == ((0, 0),) * self.dim

    def cycles(self) -> list[tuple[int, Pair]]:
        """(length m, unit product c) for each cycle of perm, with c a bare
        int pair of the ring spec, not a ring element.  The block of such a
        cycle satisfies g^m = c there, and its characteristic polynomial is
        X^m - c."""
        seen = [False] * self.dim
        out = []
        for start in range(self.dim):
            if seen[start]:
                continue
            m, c, i = 0, (1, 0), start
            while not seen[i]:
                seen[i] = True
                m, c, i = m + 1, self.spec.mul(c, self.units[i]), self.perm[i]
            out.append((m, c))
        return out

    def order(self) -> Optional[int]:
        """The order of (g | t), or None if it is infinite.

        g has order k = lcm of m·ord(c) over its cycles, and
        (g | t)^k = (1 | N·t) with N = 1 + g + ... + g^(k-1): the element
        has finite order, then exactly k, iff that is the identity.
        """
        k = 1
        for m, c in self.cycles():
            e = _root_of_unity_order(self.spec, c)
            if e is None:
                return None
            k = lcm(k, m * e)
        return k if (self ** k).is_identity() else None

    def __str__(self) -> str:
        return _text(self.spec, self.triple)


def _entries(spec: RingSpec, x: Triple) -> tuple[list[list[str]], list[str]]:
    """The printed rows of the dense linear part of x, and its printed shift."""
    perm, units, shift = x
    rows = [["0"] * len(shift) for _ in shift]
    for row, p, u in zip(rows, perm, units):
        row[p] = spec.text(u)
    return rows, [spec.text(t) for t in shift]


def _text(spec: RingSpec, x: Triple) -> str:
    rows, shift = _entries(spec, x)
    return f"([{'; '.join(map(' '.join, rows))}] | [{' '.join(shift)}])"


def _root_of_unity_order(spec: RingSpec, c: Pair) -> Optional[int]:
    """Multiplicative order of c, or None if c is not a root of unity.
    The roots of unity in Z + αZ and Z[ζ_d], d in {3, 4, 6}, have order
    1, 2, 3, 4 or 6."""
    x = c
    for e in range(1, 7):
        if x == (1, 0):
            return e
        x = spec.mul(x, c)
    return None


# ---------------------------------------------------------------------
# generator matrices

MATRIX_FAMILIES = ("A_alpha", "C_alpha", "G311", "G411", "G611")


def _diag(entries: Sequence[Pair]) -> Monomial:
    return tuple(range(len(entries))), tuple(entries)


def _vector(n: int, entries: dict[int, Pair]) -> Pairs:
    """The length-n pair vector with the given entries, zero elsewhere."""
    return tuple(entries.get(k, (0, 0)) for k in range(n))


def build_generator_matrices(
    family: str, n: int
) -> tuple[RingSpec, tuple[AffineElement, ...]]:
    """Affine matrices realizing the reflection presentation generators:
    the transpositions of the chain, plus the first and last nodes.

    The linear entries of the first and the top node come from the node
    orders of ``build_group_presentation``: a node of order 2 gets -1, a
    node of order d gets ζ, and a G family works over Z[ζ_d] for the
    first node's order d."""
    if family not in MATRIX_FAMILIES:
        raise UnsupportedFamily(f"no matrix representation for {family!r}; "
                                "choose from " + ", ".join(MATRIX_FAMILIES))
    orders = build_group_presentation(family, n).generator_orders
    one, zeta = (1, 0), (0, 1)  # zeta is alpha in the formal mode
    first, top = ((-1, 0) if d == 2 else zeta for d in (orders[0], orders[-1]))
    # shifts: the translations of the last node (both ends for type A)
    if family in ("A_alpha", "C_alpha"):
        spec, shifts = RingSpec(), (one, zeta)
    else:
        spec, shifts = RingSpec(orders[0]), (one,)
    zero = ((0, 0),) * n
    chain = [
        AffineElement(spec, *_signed_transposition(n, i, i + 1), zero)
        for i in range(n - 1)
    ]
    if family == "A_alpha":
        ends = _signed_transposition(n, 0, n - 1)
        return spec, tuple(chain) + tuple(
            AffineElement(spec, *ends, _vector(n, {0: (a, b), n - 1: (-a, -b)}))
            for a, b in shifts
        )
    last = _diag([one] * (n - 1) + [top])
    return spec, tuple(
        [AffineElement(spec, *_diag([first] + [one] * (n - 1)), zero)]
        + chain
        + [AffineElement(spec, *last, _vector(n, {n - 1: b})) for b in shifts]
    )


def evaluate_word(word: Word, gens: Sequence[AffineElement]) -> AffineElement:
    """The product of the word's letters, as one kernel call; each used
    generator is checked against gens[0] and inverted once."""
    if not gens:
        raise ValueError("need at least one generator")
    spec, n = gens[0].spec, gens[0].dim
    factors = {}
    for g, e in dict.fromkeys(word.letters):
        a = gens[g]
        if a.spec != spec or a.dim != n:
            raise SpecMismatchError("cannot compose over different rings/dims")
        factors[g, e] = (a if e == 1 else a.inverse()).triple
    identity = AffineElement.identity(spec, n).triple
    return AffineElement(spec, *_compose(
        spec.mul, identity, *map(factors.__getitem__, word.letters)))


# ---------------------------------------------------------------------
# presentation verification


def verify_presentation(
    presentation, gens: Sequence[AffineElement]
) -> dict:
    """Check every relator (and the extra order relation) against the
    matrices.  Returns a JSON-able report.  A word is checked on the
    coordinates its letters move alone, since they fix the others with zero
    shift; only a failing word is evaluated in full, for its witness."""
    if len(gens) != presentation.num_generators:
        raise ValueError("generator count mismatch")
    spec, n = gens[0].spec, gens[0].dim
    if any(a.spec != spec or a.dim != n for a in gens):
        raise SpecMismatchError("cannot compose over different rings/dims")
    factors = {(g, e): (a if e == 1 else a.inverse()).triple
               for g, a in enumerate(gens) for e in (1, -1)}
    moved = [_moved(a.triple) for a in gens]

    def holds(word: Word) -> dict:
        on = sorted(set().union(*(moved[g] for g, _ in word.letters)))
        restricted = {x: _restrict(factors[x], on) for x in set(word.letters)}
        identity = AffineElement.identity(spec, len(on)).triple
        if not _moved(_compose(spec.mul, identity,
                               *map(restricted.__getitem__, word.letters))):
            return {"pass": True}
        return {"pass": False,
                "witness_matrix": _matrix_json(evaluate_word(word, gens))}

    names, relators = presentation.generator_names, presentation.relators
    verdicts = [holds(rel) for rel in relators]
    results = [{"relator_index": idx, "word_text": rel.text(names), **v}
               for idx, (rel, v) in enumerate(zip(relators, verdicts))]
    report = {"pass": all(v["pass"] for v in verdicts), "relators": results}
    if presentation.extra_order_relation is not None:
        base, e = presentation.extra_order_relation
        entry = {"word_text": base.text(names), "order": e, **(
            verdicts[-1] if relators[-1:] == (base ** e,) else holds(base ** e))}
        report["pass"] = report["pass"] and entry["pass"]
        report["extra_order"] = entry
    return report


def _restrict(x: Triple, on: Sequence[int]) -> Triple:
    """x on the coordinates ``on``, closed under its perm, reindexed."""
    at = {k: i for i, k in enumerate(on)}
    perm, units, shift = ([v[k] for k in on] for v in x)
    return tuple(at[p] for p in perm), tuple(units), tuple(shift)


def _matrix_json(a: AffineElement) -> dict:
    rows, shift = _entries(a.spec, a.triple)
    return {"linear": rows, "translation": shift}


# ---------------------------------------------------------------------
# element classification


def linear_minus_identity_rank(a: AffineElement) -> int:
    """Rank of g - 1 for the linear part g.

    A cycle block of g with unit product c has characteristic polynomial
    X^m - c, whose roots are simple, so g - 1 has a one-dimensional kernel
    on the block when c = 1 and none otherwise.
    """
    return a.dim - sum(1 for _, c in a.cycles() if c == (1, 0))


def classify_element(a: AffineElement) -> dict:
    """Classify an affine element: identity / translation / reflection /
    other, with reflection detail for the sign-type case."""
    if a.is_identity():
        return {"kind": "identity"}
    if a.is_translation():
        return {"kind": "translation"}
    rank = linear_minus_identity_rank(a)
    k = a.order()
    if rank == 1 and k is not None:
        out = {"kind": "reflection", "order": k}
        diagonal = a.perm == tuple(range(a.dim))
        out["linear_class"] = "sign" if diagonal else "transposition"
        if diagonal and a.spec.d is None:
            i = next(i for i, u in enumerate(a.units) if u != (1, 0))
            out["residue"] = tuple(x % 2 for x in a.shift[i])
        return out
    return {"kind": "other", "finite_order": k is not None, "moved_rank": rank}


# the most extended candidates enumerate_reflection_classes builds.  The
# slowest input at a given count is bound 0 at the largest rank: each
# candidate is conjugated, at O(n), only by the generators that meet it.
# On a shared 2-core VM, A_alpha n=36 bound 0 (15,750 candidates) took
# 1.3 s and 27 MB, n=38 (17,575) 1.8 s; A_alpha n=3 bound 34 (15,987) 0.3 s
MAX_CANDIDATES = 16_000


def enumerate_reflection_classes(family: str, n: int, bound: int = 2) -> list[dict]:
    """Conjugacy classes of reflections, via closure of generator
    conjugation on a bounded translation grid.

    Candidate reflections have translation coefficients bounded by
    ``bound``; the merging closure works on a grid extended by 2 so that
    conjugation paths may pass slightly outside the candidate box.
    Raises ValueError, naming both numbers, when the extended grid has
    more than ``MAX_CANDIDATES`` candidates.
    """
    if family not in ("A_alpha", "C_alpha"):
        raise UnsupportedFamily(f"no class enumeration for {family}; choose A_alpha or C_alpha")
    count = _candidate_count(family, max(n, 0), bound + 2)
    if count > MAX_CANDIDATES:
        raise ValueError(f"bound {bound} needs {count} candidate reflections "
                         f"for {family} n={n}, over the cap of {MAX_CANDIDATES}")
    spec, gens = build_generator_matrices(family, n)
    # the union-find runs on the extended candidates' list indices, keyed by
    # their raw triples, so no element is built for a candidate or conjugate
    extended = _reflection_candidates(family, n, bound + 2)
    index = {x: i for i, x in enumerate(extended)}
    parent = list(range(len(extended)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # the conjugation edges are a fixed graph; one pass over all edges is
    # enough for union-find connectivity.  y = c·x·c⁻¹ iff x = c⁻¹·y·c, so the
    # generators find every edge; one moving none of x's coordinates fixes x
    mul, meets = spec.mul, {}  # coordinate -> the candidates that move it
    for i, x in enumerate(extended):
        for k in _moved(x):
            meets.setdefault(k, []).append(i)
    for g in gens:
        c, c_inv = g.triple, g.inverse().triple
        for i in set().union(*(meets.get(k, ()) for k in _moved(c))):
            j = index.get(_compose(mul, c, extended[i], c_inv))
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    # the candidates at bound: the extended ones within bound, in order
    classes: dict[int, list[Triple]] = {}
    for i, x in enumerate(extended):
        if all(abs(c) <= bound for pair in x[2] for c in pair):
            classes.setdefault(find(i), []).append(x)
    out = []
    for members in classes.values():
        rep = AffineElement(spec, *min(members, key=lambda x: _text(spec, x)))
        info = classify_element(rep)
        out.append(
            {
                "representative": str(rep),
                "size_in_window": len(members),
                "linear_class": info.get("linear_class"),
                "residue": info.get("residue"),
            }
        )
    out.sort(key=lambda e: e["representative"])
    return out


def _candidate_count(family: str, n: int, bound: int) -> int:
    """``len(_reflection_candidates(family, n, bound))``, without
    building them: each of the n(n-1)/2 transpositions, and for C_alpha
    each signed transposition and each of the n sign changes, takes every
    translation coefficient pair in the (2·bound + 1)² box."""
    pairs = n * n if family == "C_alpha" else n * (n - 1) // 2
    return pairs * (2 * bound + 1) ** 2


def _reflection_candidates(family: str, n: int, bound: int) -> list[Triple]:
    coeffs = [
        (x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)
    ]
    out: list[Triple] = []
    if family == "C_alpha":
        for i in range(n):
            lin = _diag([(-1, 0) if j == i else (1, 0) for j in range(n)])
            for b in coeffs:
                out.append((*lin, _vector(n, {i: b})))
    # (g | c·(e_i - eps·e_j)) squares to the identity for the signed
    # transposition g, so each of these is a reflection
    for i in range(n):
        for j in range(i + 1, n):
            for eps in (1, -1) if family == "C_alpha" else (1,):
                lin = _signed_transposition(n, i, j, eps)
                for x, y in coeffs:
                    t = _vector(n, {i: (x, y), j: (-eps * x, -eps * y)})
                    out.append((*lin, t))
    return list(dict.fromkeys(out))  # de-duplicated, first occurrence kept


def _signed_transposition(n: int, i: int, j: int, eps: int = 1) -> Monomial:
    """Swap coordinates i and j with sign eps on the off-diagonal pair."""
    perm, units = list(range(n)), [(1, 0)] * n
    perm[i], perm[j] = j, i
    units[i] = units[j] = (eps, 0)
    return tuple(perm), tuple(units)
