"""Exact affine matrix representations of the crystallographic families.

An affine element is a pair (g | t): linear part g (square matrix over a
ring of exact scalars) and translation t.  Composition follows
(g | t)(g' | t') = (g g' | g t' + t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ring import RingElement, RingMode, RingSpec, SpecMismatchError
from .snf import smith_normal_form
from .words import Word

Matrix = tuple[tuple[RingElement, ...], ...]
Vector = tuple[RingElement, ...]


@dataclass(frozen=True)
class AffineElement:
    spec: RingSpec
    linear: Matrix
    translation: Vector

    def __post_init__(self) -> None:
        n = len(self.translation)
        if len(self.linear) != n or any(len(row) != n for row in self.linear):
            raise ValueError("linear part must be square and match the translation")
        for row in self.linear:
            for x in row:
                if x.spec != self.spec:
                    raise SpecMismatchError("matrix entry from a different ring")
        for x in self.translation:
            if x.spec != self.spec:
                raise SpecMismatchError("translation entry from a different ring")

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, spec: RingSpec, n: int) -> "AffineElement":
        lin = tuple(
            tuple(spec.one() if i == j else spec.zero() for j in range(n))
            for i in range(n)
        )
        return cls(spec, lin, (spec.zero(),) * n)

    @property
    def dim(self) -> int:
        return len(self.translation)

    # -- group structure -----------------------------------------------

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.spec != other.spec or self.dim != other.dim:
            raise SpecMismatchError("cannot compose over different rings/dims")
        n = self.dim
        z = self.spec.zero()
        lin = tuple(
            tuple(
                sum(
                    (self.linear[i][k] * other.linear[k][j] for k in range(n)),
                    z,
                )
                for j in range(n)
            )
            for i in range(n)
        )
        tr = tuple(
            sum((self.linear[i][k] * other.translation[k] for k in range(n)), z)
            + self.translation[i]
            for i in range(n)
        )
        return AffineElement(self.spec, lin, tr)

    def inverse(self) -> "AffineElement":
        """Inverse of an element whose linear part is monomial (one unit
        per row and column, as in every group here): entry (i, j) moves to
        (j, i) and is inverted in the ring."""
        n = self.dim
        z = self.spec.zero()
        cols = [[j for j in range(n) if not row[j].is_zero()] for row in self.linear]
        if sorted(map(tuple, cols)) != [(j,) for j in range(n)]:
            raise ValueError("only monomial linear parts are invertible here")
        rows = [[z] * n for _ in range(n)]
        for i, ((j,), row) in enumerate(zip(cols, self.linear)):
            rows[j][i] = row[j].inverse()
        inv = tuple(tuple(r) for r in rows)
        tr = tuple(
            -sum((inv[i][k] * self.translation[k] for k in range(n)), z)
            for i in range(n)
        )
        return AffineElement(self.spec, inv, tr)

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

    def is_identity(self) -> bool:
        n = self.dim
        for i in range(n):
            if not self.translation[i].is_zero():
                return False
            for j in range(n):
                x = self.linear[i][j]
                if i == j and not x.is_one():
                    return False
                if i != j and not x.is_zero():
                    return False
        return True

    def order(self, limit: int = 48) -> Optional[int]:
        acc = self
        for k in range(1, limit + 1):
            if acc.is_identity():
                return k
            acc = acc * self
        return None

    def apply(self, v: Vector) -> Vector:
        n = self.dim
        z = self.spec.zero()
        return tuple(
            sum((self.linear[i][k] * v[k] for k in range(n)), z) + self.translation[i]
            for i in range(n)
        )

    def __str__(self) -> str:
        rows = "; ".join(
            " ".join(str(x) for x in row) for row in self.linear
        )
        return f"([{rows}] | [{' '.join(str(x) for x in self.translation)}])"


# ---------------------------------------------------------------------
# generator matrices

MATRIX_FAMILIES = ("A_alpha", "C_alpha", "G311", "G411", "G611")


def _diag(spec: RingSpec, entries: Sequence[RingElement]) -> Matrix:
    n = len(entries)
    z = spec.zero()
    return tuple(
        tuple(entries[i] if i == j else z for j in range(n)) for i in range(n)
    )


def _unit_vector(spec: RingSpec, n: int, i: int, value: RingElement) -> Vector:
    return tuple(value if j == i else spec.zero() for j in range(n))


def build_generator_matrices(
    family: str, n: int
) -> tuple[RingSpec, tuple[AffineElement, ...]]:
    """Affine matrices realizing the reflection presentation generators."""
    from .presentations import RankOutOfRange, UnsupportedFamily

    if family == "C_alpha":
        spec = RingSpec.formal_alpha()
        one, alpha = spec.one(), spec.gen()
        if n < 1:
            raise RankOutOfRange("type C needs n >= 1")
        if n == 1:
            neg = _diag(spec, [-one])
            gens = (
                AffineElement(spec, neg, (spec.zero(),)),
                AffineElement(spec, neg, (one,)),
                AffineElement(spec, neg, (alpha,)),
            )
            return spec, gens
        ident_diag = [one] * n
        first = _diag(spec, [-one] + ident_diag[1:])
        last = _diag(spec, ident_diag[:-1] + [-one])
        gens_list = [AffineElement(spec, first, (spec.zero(),) * n)]
        for i in range(2, n + 1):
            gens_list.append(
                AffineElement(
                    spec, _signed_transposition(spec, n, i - 2, i - 1), (spec.zero(),) * n
                )
            )
        gens_list.append(AffineElement(spec, last, _unit_vector(spec, n, n - 1, one)))
        gens_list.append(AffineElement(spec, last, _unit_vector(spec, n, n - 1, alpha)))
        return spec, tuple(gens_list)

    if family == "A_alpha":
        spec = RingSpec.formal_alpha()
        one, alpha = spec.one(), spec.gen()
        if n < 2:
            raise RankOutOfRange("type A needs n >= 2")
        if n == 2:
            sw = _signed_transposition(spec, 2, 0, 1)
            gens = (
                AffineElement(spec, sw, (spec.zero(), spec.zero())),
                AffineElement(spec, sw, (one, -one)),
                AffineElement(spec, sw, (alpha, -alpha)),
            )
            return spec, gens
        gens_list = []
        for i in range(1, n):
            gens_list.append(
                AffineElement(
                    spec, _signed_transposition(spec, n, i - 1, i), (spec.zero(),) * n
                )
            )
        ends = _signed_transposition(spec, n, 0, n - 1)
        t1 = tuple(
            one if j == 0 else -one if j == n - 1 else spec.zero() for j in range(n)
        )
        ta = tuple(
            alpha if j == 0 else -alpha if j == n - 1 else spec.zero()
            for j in range(n)
        )
        gens_list.append(AffineElement(spec, ends, t1))
        gens_list.append(AffineElement(spec, ends, ta))
        return spec, tuple(gens_list)

    if family in ("G311", "G411", "G611"):
        d = {"G311": 3, "G411": 4, "G611": 6}[family]
        spec = RingSpec.cyclotomic(d)
        one, zeta = spec.one(), spec.gen()
        # the affine-node linear entry: a root of unity whose order is the
        # order label of the top node
        top = zeta if d in (3, 4) else -one
        if n < 1:
            raise RankOutOfRange("need n >= 1")
        if n == 1:
            gens = (
                AffineElement(spec, _diag(spec, [zeta]), (spec.zero(),)),
                AffineElement(spec, _diag(spec, [top]), (one,)),
            )
            return spec, gens
        ident_diag = [one] * n
        gens_list = [
            AffineElement(
                spec, _diag(spec, [zeta] + ident_diag[1:]), (spec.zero(),) * n
            )
        ]
        for i in range(2, n + 1):
            gens_list.append(
                AffineElement(
                    spec, _signed_transposition(spec, n, i - 2, i - 1), (spec.zero(),) * n
                )
            )
        gens_list.append(
            AffineElement(
                spec,
                _diag(spec, ident_diag[:-1] + [top]),
                _unit_vector(spec, n, n - 1, one),
            )
        )
        return spec, tuple(gens_list)

    if family in ("G412", "G421", "G422", "G621", "G631"):
        raise UnsupportedFamily(
            f"{family} is available as presentation data only; no affine "
            "matrix model is provided"
        )
    raise UnsupportedFamily(family)


def evaluate_word(word: Word, gens: Sequence[AffineElement]) -> AffineElement:
    if not gens:
        raise ValueError("need at least one generator")
    out = AffineElement.identity(gens[0].spec, gens[0].dim)
    for g, e in word.letters:
        out = out * (gens[g] if e == 1 else gens[g].inverse())
    return out


# ---------------------------------------------------------------------
# presentation verification


def verify_presentation(
    presentation, gens: Sequence[AffineElement]
) -> dict:
    """Check every relator (and the extra order relation) against the
    matrices.  Returns a JSON-able report."""
    if len(gens) != presentation.num_generators:
        raise ValueError("generator count mismatch")
    names = presentation.generator_names
    results = []
    ok = True
    for idx, rel in enumerate(presentation.relators):
        val = evaluate_word(rel, gens)
        good = val.is_identity()
        entry = {
            "relator_index": idx,
            "word_text": rel.text(names),
            "pass": good,
        }
        if not good:
            ok = False
            entry["witness_matrix"] = _matrix_json(val)
        results.append(entry)
    report = {"pass": ok, "relators": results}
    if presentation.extra_order_relation is not None:
        base, e = presentation.extra_order_relation
        val = evaluate_word(base, gens) ** e
        good = val.is_identity()
        report["extra_order"] = {
            "word_text": base.text(names),
            "order": e,
            "pass": good,
        }
        if not good:
            report["pass"] = False
            report["extra_order"]["witness_matrix"] = _matrix_json(val)
    return report


def _matrix_json(a: AffineElement) -> dict:
    return {
        "linear": [[str(x) for x in row] for row in a.linear],
        "translation": [str(x) for x in a.translation],
    }


# ---------------------------------------------------------------------
# element classification


def linear_minus_identity_rank(a: AffineElement) -> int:
    """Rank of g - 1 for the linear part g.

    Each entry x + y·u becomes its regular-representation block
    [[x, y·q], [y, x + y·p]] with u² = p·u + q (p = q = 0 in the formal
    mode), and the rank is half the number of nonzero Smith invariants of
    that integer matrix.  The embedding doubles the rank: over Q(ζ_d)
    because it is a field of degree two, and in the formal mode because
    every linear part is integral, so each block is x times the identity.
    """
    p, q = a.spec.reduction
    n = a.dim
    rows: list[list[int]] = []
    for i in range(n):
        r1: list[int] = []
        r2: list[int] = []
        for j in range(n):
            x, y = a.linear[i][j].a - (i == j), a.linear[i][j].b
            r1 += [x, y * q]
            r2 += [y, x + y * p]
        rows += [r1, r2]
    return sum(1 for d in smith_normal_form(rows, 2 * n) if d) // 2


def classify_element(a: AffineElement) -> dict:
    """Classify an affine element: identity / translation / reflection /
    other, with reflection detail for the sign-type case."""
    n = a.dim
    spec = a.spec
    if a.is_identity():
        return {"kind": "identity"}
    lin = AffineElement(spec, a.linear, (spec.zero(),) * n)
    if lin.is_identity():
        return {"kind": "translation"}
    rank = linear_minus_identity_rank(a)
    # with k the order of g, (g | t)^k = (1 | N·t) for N = 1 + g + ... +
    # g^(k-1): the element has finite order, then exactly k, iff N·t = 0
    k = lin.order()
    finite = k is not None and (a ** k).is_identity()
    if rank == 1 and finite:
        out = {"kind": "reflection", "order": k}
        diagonal = all(
            a.linear[i][j].is_zero() for i in range(n) for j in range(n) if i != j
        )
        out["linear_class"] = "sign" if diagonal else "transposition"
        if diagonal and spec.mode is RingMode.FORMAL_ALPHA:
            i = next(
                i for i in range(n) if not (a.linear[i][i] - spec.one()).is_zero()
            )
            b = a.translation[i]
            out["residue"] = (b.a % 2, b.b % 2)
        return out
    return {"kind": "other", "finite_order": finite, "moved_rank": rank}


def enumerate_reflection_classes(family: str, n: int, bound: int = 2) -> list[dict]:
    """Conjugacy classes of reflections, via closure of generator
    conjugation on a bounded translation grid.

    Candidate reflections have translation coefficients bounded by
    ``bound``; the merging closure works on a grid extended by 2 so that
    conjugation paths may pass slightly outside the candidate box.
    """
    spec, gens = build_generator_matrices(family, n)
    candidates = _reflection_candidates(family, spec, n, bound)
    extended = set(_reflection_candidates(family, spec, n, bound + 2))
    parent: dict[AffineElement, AffineElement] = {x: x for x in extended}

    def find(x: AffineElement) -> AffineElement:
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: AffineElement, y: AffineElement) -> None:
        rx, ry = find(x), find(y)
        if rx is not ry:
            parent[rx] = ry

    # the conjugation edges are a fixed graph; one pass over all edges is
    # enough for union-find connectivity
    conjugators = [(g, g.inverse()) for g in gens]
    conjugators += [(c_inv, c) for c, c_inv in conjugators]
    for x in extended:
        for c, c_inv in conjugators:
            y = c * x * c_inv
            if y in parent:
                union(x, y)
    classes: dict[AffineElement, list[AffineElement]] = {}
    for x in candidates:
        classes.setdefault(find(x), []).append(x)
    out = []
    for members in classes.values():
        rep = min(members, key=str)
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


def _reflection_candidates(
    family: str, spec: RingSpec, n: int, bound: int
) -> list[AffineElement]:
    one = spec.one()
    coeffs = [
        spec.el(x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
    ]
    out: list[AffineElement] = []
    if family == "C_alpha":
        for i in range(n):
            lin = _diag(spec, [-one if j == i else one for j in range(n)])
            for b in coeffs:
                out.append(AffineElement(spec, lin, _unit_vector(spec, n, i, b)))
        for i in range(n):
            for j in range(i + 1, n):
                for eps in (1, -1):
                    lin = _signed_transposition(spec, n, i, j, eps)
                    for c in coeffs:
                        t = tuple(
                            c if k == i else (-c if eps == 1 else c) if k == j
                            else spec.zero()
                            for k in range(n)
                        )
                        cand = AffineElement(spec, lin, t)
                        if classify_element(cand)["kind"] == "reflection":
                            out.append(cand)
    elif family == "A_alpha":
        for i in range(n):
            for j in range(i + 1, n):
                lin = _signed_transposition(spec, n, i, j)
                for c in coeffs:
                    t = tuple(
                        c if k == i else -c if k == j else spec.zero()
                        for k in range(n)
                    )
                    out.append(AffineElement(spec, lin, t))
    else:
        raise ValueError(f"enumeration is implemented for the formal families, not {family}")
    # de-duplicate
    seen = set()
    uniq = []
    for x in out:
        if x not in seen:
            seen.add(x)
            uniq.append(x)
    return uniq


def _signed_transposition(
    spec: RingSpec, n: int, i: int, j: int, eps: int = 1
) -> Matrix:
    """Swap coordinates i and j with sign eps on the off-diagonal pair."""
    z, one = spec.zero(), spec.one()
    s = one if eps == 1 else -one
    rows = []
    for r in range(n):
        row = [z] * n
        if r == i:
            row[j] = s
        elif r == j:
            row[i] = s
        else:
            row[r] = one
        rows.append(tuple(row))
    return tuple(rows)
