"""Generic Hecke algebras and GDAHA relation sets.

The comparison works at the level the underlying theorem operates:
braid relators are handled by the prover, while the deformation
relations reduce to commutative Laurent-polynomial identities because
every characteristic polynomial in scope factors into unit-monomial
roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .affine import MATRIX_FAMILIES, build_generator_matrices, evaluate_word
from .isomorphisms import sphere_maps
from .presentations import (
    Presentation,
    RankOutOfRange,
    UnsupportedFamily,
    artinize,
    build_group_presentation,
    presentation_to_text,
    punctured_sphere_braid,
)
from .prover import (
    GeneratorMap,
    ProofStatus,
    prove_trivial,
    verify_homomorphism,
)
from .words import Word


class UniverseMismatch(ValueError):
    pass


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse integer Laurent polynomial over a fixed tuple of variable
    names; terms map exponent vectors to nonzero coefficients."""

    universe: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def _make(cls, universe, raw: Mapping[tuple[int, ...], int]) -> "LaurentPoly":
        clean = {e: c for e, c in raw.items() if c != 0}
        return cls(tuple(universe), tuple(sorted(clean.items())))

    @classmethod
    def const(cls, universe: Sequence[str], c: int) -> "LaurentPoly":
        z = (0,) * len(universe)
        return cls._make(universe, {z: c})

    @classmethod
    def var(cls, universe: Sequence[str], name: str, power: int = 1) -> "LaurentPoly":
        u = tuple(universe)
        if name not in u:
            raise UniverseMismatch(f"{name!r} not in universe")
        e = tuple(power if v == name else 0 for v in u)
        return cls._make(u, {e: 1})

    def _check(self, other: "LaurentPoly") -> None:
        if self.universe != other.universe:
            raise UniverseMismatch(
                f"universes differ: {self.universe} vs {other.universe}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly._make(self.universe, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(self.universe, {e: -c for e, c in self.terms})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._make(self.universe, out)

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_monomial(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][1] in (1, -1)

    def inverse(self) -> "LaurentPoly":
        if not self.is_unit_monomial():
            raise ValueError("only unit monomials are invertible")
        e, c = self.terms[0]
        return LaurentPoly._make(self.universe, {tuple(-x for x in e): c})

    def cast(self, universe: Sequence[str]) -> "LaurentPoly":
        """Inject into a larger universe, matching variables by name."""
        u = tuple(universe)
        pos = []
        for name in self.universe:
            if name not in u:
                raise UniverseMismatch(f"{name!r} missing from target universe")
            pos.append(u.index(name))
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms:
            vec = [0] * len(u)
            for p, x in zip(pos, e):
                vec[p] = x
            out[tuple(vec)] = out.get(tuple(vec), 0) + c
        return LaurentPoly._make(u, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            facs = [
                name if x == 1 else f"{name}^{x}"
                for name, x in zip(self.universe, e)
                if x != 0
            ]
            body = " ".join(facs)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c} {body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def monic_from_roots(x: LaurentPoly, roots: Sequence[LaurentPoly]) -> LaurentPoly:
    """Expanded ∏ (x − r) in x's universe."""
    out = LaurentPoly.const(x.universe, 1)
    for r in roots:
        out = out * (x - r.cast(x.universe))
    return out


@dataclass(frozen=True)
class HeckePresentation:
    """Artin-type braid part plus the deformation data: per generator the
    unit-monomial roots of its monic characteristic polynomial, and the
    distinguished extra generator (S0-style) given as a word.  The
    parameter classes are the generator indices sharing one root list;
    index -1 is S0."""

    braid_part: Presentation
    universe: tuple[str, ...]
    gen_roots: tuple[tuple[LaurentPoly, ...], ...]
    extra_word: Optional[Word] = None
    extra_roots: tuple[LaurentPoly, ...] = ()
    parameter_classes: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if len(self.gen_roots) != self.braid_part.num_generators:
            raise ValueError("one root list per braid generator required")

    def roots(self, g: int) -> tuple[LaurentPoly, ...]:
        """The roots of generator g; g = -1 is S0."""
        return self.extra_roots if g < 0 else self.gen_roots[g]


# ---------------------------------------------------------------------
# generic Hecke algebras


def _parameter_classes(family: str, n: int, k: int) -> list[list[int]]:
    """Generator classes (hyperplane orbits), 0-based, with S0 as index
    -1: in type A it joins the one class, elsewhere it has its own."""
    if family == "A_alpha":
        return [list(range(k)) + [-1]]
    # s1, the chain s2..sn (empty at n = 1), each node past the chain, S0
    classes = [[0], list(range(1, n))] + [[i] for i in range(n, k)] + [[-1]]
    return [c for c in classes if c]


def _root_name(class_rep: int, j: int) -> str:
    return f"s{class_rep}.{j}"


def build_generic_hecke(family: str, n: int) -> HeckePresentation:
    """Generic Hecke algebra data of the given family: capitalized Artin
    part, char-poly roots shared along hyperplane classes, S0 word."""
    if family not in MATRIX_FAMILIES:
        raise UnsupportedFamily(
            f"no generic Hecke construction wired for {family}"
        )
    group = build_group_presentation(family, n)
    artin = artinize(group)
    names = tuple("S" + nm[1:] for nm in artin.generator_names)
    braid = Presentation(names, artin.generator_orders, artin.relators)
    base, _ = group.extra_order_relation
    classes = _parameter_classes(family, n, len(names))
    universe: list[str] = []
    class_roots: list[list[str]] = []
    for cl in classes:
        # one root per element order: the node order, or for S0 the first
        # leg of its GDAHA (not the exponent of the extra relation)
        e = _gdaha_legs(family)[0] if cl[0] < 0 else group.generator_orders[cl[0]]
        class_roots.append([_root_name(cl[0] + 1, j) for j in range(1, e + 1)])
        universe += class_roots[-1]
    u = tuple(universe)
    roots = {g: tuple(LaurentPoly.var(u, r) for r in rs)
             for cl, rs in zip(classes, class_roots) for g in cl}
    return HeckePresentation(
        braid_part=braid,
        universe=u,
        gen_roots=tuple(roots[g] for g in range(len(names))),
        extra_word=base,
        extra_roots=roots[-1],
        parameter_classes=tuple(tuple(cl) for cl in classes),
    )


# ---------------------------------------------------------------------
# GDAHA

# leg lists ordered so that U1 matches the distinguished S0 generator,
# U2 matches S1, U3 matches S(n+1) (and U4 matches S(n+2) in the
# four-legged case).  The first leg is the order of sigma_0, which
# build_generic_hecke reads as the root count of S0.
GDAHA_LEGS = {
    "D4": (2, 2, 2, 2),
    "E6": (3, 3, 3),
    "E7": (2, 4, 4),
    "E8": (3, 6, 2),
}
# the generic Hecke family deformed by each GDAHA diagram type
GDAHA_FAMILY = {"D4": "C_alpha", "E6": "G311", "E7": "G411", "E8": "G611"}


def _gdaha_legs(family: str) -> tuple[int, ...]:
    """The leg lengths of the GDAHA diagram that ``family`` deforms into."""
    for diagram, f in GDAHA_FAMILY.items():
        if f == family:
            return GDAHA_LEGS[diagram]
    if family == "A_alpha":
        raise UnsupportedFamily("type A specializes to the triple-dot DAHA, not a GDAHA")
    raise UnsupportedFamily(f"no GDAHA for {family!r}; choose from "
                            + ", ".join(GDAHA_FAMILY.values()))


def build_gdaha(legs: Sequence[int], n: int) -> HeckePresentation:
    """GDAHA of rank n on a star diagram with the given leg lengths."""
    legs = tuple(legs)
    if len(legs) < 3 or any(d < 1 for d in legs):
        raise ValueError("legs must describe a star diagram (≥ 3 positive legs)")
    m = len(legs)
    raw = punctured_sphere_braid(m, n)
    names = tuple(nm.upper() for nm in raw.generator_names)
    braid = Presentation(names, raw.generator_orders, raw.relators)
    universe = [f"u{k}.{j}" for k in range(1, m + 1) for j in range(1, legs[k - 1] + 1)]
    universe.append("t")
    u = tuple(universe)
    t = LaurentPoly.var(u, "t")
    gen_roots: list[tuple[LaurentPoly, ...]] = []
    for k in range(1, m + 1):
        gen_roots.append(
            tuple(LaurentPoly.var(u, f"u{k}.{j}") for j in range(1, legs[k - 1] + 1))
        )
    for _ in range(n - 1):
        gen_roots.append((t, -t.inverse()))
    chain = tuple(range(m, m + n - 1))  # T1..T(n-1) share (t, -t^-1)
    return HeckePresentation(
        braid_part=braid,
        universe=u,
        gen_roots=tuple(gen_roots),
        parameter_classes=tuple((k,) for k in range(m)) + ((chain,) if chain else ()),
    )


# ---------------------------------------------------------------------
# specialization


@dataclass(frozen=True)
class ParameterMap:
    """Parameter name → unit Laurent monomial in the target universe."""

    source_universe: tuple[str, ...]
    target_universe: tuple[str, ...]
    assignments: tuple[tuple[str, LaurentPoly], ...]

    def __post_init__(self) -> None:
        table = dict(self.assignments)
        for name in self.source_universe:
            if name not in table:
                raise ValueError(f"no assignment for parameter {name!r}")
            img = table[name]
            if img.universe != self.target_universe:
                raise UniverseMismatch(f"image of {name!r} in wrong universe")
            if not img.is_unit_monomial():
                raise ValueError(f"image of {name!r} is not a unit monomial")

    def apply_root(self, root: LaurentPoly) -> LaurentPoly:
        """Push a unit-monomial root through the substitution: each
        exponent x of the root scales the exponent vector of its
        parameter's image, whose sign ±1 is raised to |x|."""
        if not root.is_unit_monomial():
            raise ValueError("roots must be unit monomials")
        (e, c), = root.terms
        table = dict(self.assignments)
        vec = [0] * len(self.target_universe)
        for name, x in zip(root.universe, e):
            if x != 0:
                (img, sign), = table[name].terms
                vec = [a + x * b for a, b in zip(vec, img)]
                c *= sign ** abs(x)
        return LaurentPoly._make(self.target_universe, {tuple(vec): c})


def gdaha_parameter_map(hp: HeckePresentation, target: HeckePresentation, n: int) -> ParameterMap:
    """The specialization of the generic Hecke parameters onto GDAHA
    parameters: the chain class s2..sn onto (t, −t⁻¹), and S0's class,
    s1's class and the classes past the chain, in that order, onto the
    legs U1, U2, ... (inverted for S0)."""
    u = target.universe
    t = LaurentPoly.var(u, "t")
    chain = tuple(range(1, n))
    assign: dict[str, LaurentPoly] = {}
    leg = 0
    for cl in sorted(hp.parameter_classes):  # S0's class (-1,) first
        if cl == chain:
            images = [t, -t.inverse()]
        else:
            leg += 1
            images = [LaurentPoly.var(u, f"u{leg}.{j}")
                      for j in range(1, len(hp.roots(cl[0])) + 1)]
            if cl[0] < 0:
                images = [x.inverse() for x in images]
        assign.update((_root_name(cl[0] + 1, j), x) for j, x in enumerate(images, 1))
    return ParameterMap(hp.universe, u, tuple(sorted(assign.items())))


def _proportional_by_unit(
    p: LaurentPoly, q: LaurentPoly
) -> Optional[LaurentPoly]:
    """If p == m·q for a unit monomial m, return m; else None."""
    if q.is_zero() or p.is_zero():
        return None
    ep, cp = p.terms[0]
    eq, cq = q.terms[0]
    if abs(cp) != abs(cq):
        return None
    c = 1 if cp * cq > 0 else -1
    m = LaurentPoly._make(
        p.universe, {tuple(a - b for a, b in zip(ep, eq)): c}
    )
    return m if (p - m * q).is_zero() else None


def _charpoly_match(x, roots, y, target_roots) -> dict:
    """Whether ∏ (x − r) over roots is ∏ (y − r) over target_roots times a
    unit monomial; the difference of the two is reported only if not."""
    p, q = monic_from_roots(x, roots), monic_from_roots(y, target_roots)
    unit = _proportional_by_unit(p, q)
    if unit is None:
        return {"pass": False, "unit_factor": None, "difference": str(p - q)}
    return {"pass": True, "unit_factor": str(unit)}


def specialized_charpoly_check(
    hp: HeckePresentation,
    pm: ParameterMap,
    target: HeckePresentation,
    src_gen: int,
    tgt_letter: tuple[int, int],
) -> dict:
    """Specialize the char poly of a source generator, substitute the
    matched target letter for the variable, and compare with the target
    generator's char poly up to a unit monomial factor."""
    g, e = tgt_letter
    tname = target.braid_part.generator_names[g]
    universe = (tname,) + target.universe
    src_name = (
        "S0" if src_gen < 0 else hp.braid_part.generator_names[src_gen]
    )
    return {
        "source": src_name,
        "target": tname + ("" if e == 1 else "^-1"),
        **_charpoly_match(
            LaurentPoly.var(universe, tname, e),
            [pm.apply_root(r) for r in hp.roots(src_gen)],
            LaurentPoly.var(universe, tname),
            target.gen_roots[g],
        ),
    }


def verify_specialization(
    hp: HeckePresentation,
    pm: ParameterMap,
    target: HeckePresentation,
    gen_map: GeneratorMap,
    reverse_map: GeneratorMap,
) -> dict:
    """The three-level correspondence check: braid relators (prover),
    char polys (Laurent identities), and S0-vs-U1 closedness matching."""
    report: dict = {"checks": {}}
    # (1) braid level
    src, tgt = hp.braid_part.relators, target.braid_part.relators
    fwd = verify_homomorphism(gen_map, src, tgt)
    bwd = verify_homomorphism(reverse_map, tgt, src)
    braid_ok = all(r.status is ProofStatus.PROVED for r in fwd + bwd)
    report["checks"]["braid"] = {"pass": braid_ok, "results": {"fwd": fwd, "bwd": bwd}}
    # (2) char polys for single-letter matches
    cp = []
    for g, img in enumerate(gen_map.images):
        if len(img.letters) != 1:
            continue
        cp.append(specialized_charpoly_check(hp, pm, target, g, img.letters[0]))
    # the distinguished generator matches the inverse of the first
    # target generator
    cp.append(specialized_charpoly_check(hp, pm, target, -1, (0, -1)))
    report["checks"]["charpoly"] = {"pass": all(c["pass"] for c in cp), "results": cp}
    # (3) S0 word matches U1^-1 modulo the target relations
    image = gen_map.apply(hp.extra_word) * Word.gen(0)
    res = prove_trivial(image, target.braid_part.relators)
    report["checks"]["extra_generator"] = {
        "pass": res.status is ProofStatus.PROVED,
        "result": res,
    }
    report["pass"] = all(c["pass"] for c in report["checks"].values())
    return report


def gdaha_family_data(family: str, n: int):
    """Wire a generic Hecke algebra to its GDAHA: presentations, the
    parameter map, and the mutually inverse braid-level generator maps."""
    legs = _gdaha_legs(family)
    hp = build_generic_hecke(family, n)
    target = build_gdaha(legs, n)
    pm = gdaha_parameter_map(hp, target, n)
    hnames = hp.braid_part.generator_names
    tnames = target.braid_part.generator_names
    bwd_imgs, fwd_imgs = sphere_maps(len(legs), n)
    gen_map = GeneratorMap(hnames, tnames, fwd_imgs)
    reverse_map = GeneratorMap(tnames, hnames, bwd_imgs)
    return hp, target, pm, gen_map, reverse_map


def gdaha_check(family: str, n: int) -> dict:
    hp, target, pm, gen_map, reverse_map = gdaha_family_data(family, n)
    return verify_specialization(hp, pm, target, gen_map, reverse_map)


# ---------------------------------------------------------------------
# rank-one remark

RANK_ONE_SUBSTITUTIONS = (
    ("s0.1", (("q", 1), ("t11", 1)), -1),
    ("s0.2", (("q", 1), ("t11", -1)), 1),
    ("s1.1", (("t21", 1),), 1),
    ("s1.2", (("t21", -1),), -1),
    ("s2.1", (("t31", 1),), 1),
    ("s2.2", (("t31", -1),), -1),
    ("s3.1", (("t41", 1),), 1),
    ("s3.2", (("t41", -1),), -1),
)


def rank_one_specialization_check() -> dict:
    """The rank-one identification: S0 ↦ q T1⁻¹ and S_i ↦ T_{i+1} carry
    the generic quadratics onto the four rank-one quadratics
    (T_j − t_{j1})(T_j + t_{j1}⁻¹), the S0 one up to the unit −q²T1⁻²."""
    universe = ("T1", "T2", "T3", "T4", "q", "t11", "t21", "t31", "t41")

    def mono(parts, coeff):
        out = LaurentPoly.const(universe, coeff)
        for name, p in parts:
            out = out * LaurentPoly.var(universe, name, p)
        return out

    table = {name: mono(parts, c) for name, parts, c in RANK_ONE_SUBSTITUTIONS}
    q = LaurentPoly.var(universe, "q")
    results = []
    for i in range(4):
        tj = LaurentPoly.var(universe, f"T{i + 1}")
        tparam = LaurentPoly.var(universe, f"t{i + 1}1")
        image = q * tj.inverse() if i == 0 else tj
        row = {
            "generator": "S0" if i == 0 else f"S{i}",
            "target": f"T{i + 1}",
            **_charpoly_match(image, [table[f"s{i}.{j}"] for j in (1, 2)],
                              tj, [tparam, -tparam.inverse()]),
        }
        row.setdefault("difference", None)
        results.append(row)
    return {"pass": all(r["pass"] for r in results), "results": results}


# ---------------------------------------------------------------------
# triple-dot generator (type A)


def triple_dot_generator(n: int) -> Word:
    """The third additional generator of Artin(A-pres):
    (s_n s_{n+1} s_{n-1} ⋯ s_1 ⋯ s_{n-1})⁻¹."""
    if n < 3:
        raise RankOutOfRange("the triple-dot construction needs n >= 3")
    return Word.positive(n - 1, n, *range(n - 2, -1, -1),
                         *range(1, n - 1)).inverse()


def triple_dot_report(n: int) -> dict:
    """Prove the displayed relations for the triple-dot generator: it
    braids with s1 and s_{n-1} and commutes with the interior chain."""
    x = triple_dot_generator(n)
    artin = artinize(build_group_presentation("A_alpha", n))
    s = [Word.gen(i) for i in range(artin.num_generators)]
    relations = [
        ("braid_with_s1", s[0] * x * s[0] * (x * s[0] * x).inverse()),
        (
            f"braid_with_s{n - 1}",
            x * s[n - 2] * x * (s[n - 2] * x * s[n - 2]).inverse(),
        ),
    ]
    for j in range(1, n - 2):
        relations.append(
            (f"commute_with_s{j + 1}", s[j] * x * s[j].inverse() * x.inverse())
        )
    results = {name: prove_trivial(w, artin.relators) for name, w in relations}
    return {
        "word": x.text(artin.generator_names),
        "pass": all(r.status is ProofStatus.PROVED for r in results.values()),
        "results": results,
    }


# ---------------------------------------------------------------------
# cyclotomic degeneration


def degeneration_check(family: str, n: int) -> bool:
    """Under s_{*j} ↦ ζ^j the char polys annihilate the homogenized
    matrix generators: the deformation degenerates to the group.

    With ζ of order e, ∏_{j=1..e} (X − ζ^j) = X^e − 1, so the specialised
    characteristic polynomial of a generator with e roots annihilates the
    homogenized matrix g exactly when g^e = 1.
    """
    _, gens = build_generator_matrices(family, n)
    hp = build_generic_hecke(family, n)
    pairs = list(zip(gens, hp.gen_roots))
    pairs.append((evaluate_word(hp.extra_word, gens), hp.extra_roots))
    return all((g ** len(roots)).is_identity() for g, roots in pairs)


# ---------------------------------------------------------------------
# serialization


def hecke_to_text(hp: HeckePresentation) -> str:
    lines = [presentation_to_text(hp.braid_part).rstrip("\n")]
    names = hp.braid_part.generator_names

    def charpoly_line(label: str, roots) -> str:
        x = LaurentPoly.var(("X",) + hp.universe, "X")
        poly = monic_from_roots(x, list(roots))
        # the coefficient of X^k, keyed by the exponents of the parameters
        coeffs: list[dict] = [{} for _ in range(len(roots) + 1)]
        for e, c in poly.terms:
            coeffs[e[0]][e[1:]] = c
        return f"charpoly: {label} : " + ", ".join(
            str(LaurentPoly._make(hp.universe, ck)) for ck in coeffs)

    for name, roots in zip(names, hp.gen_roots):
        lines.append(charpoly_line(name, roots))
    if hp.extra_word is not None:
        lines.append("extra: S0 = " + hp.extra_word.text(names))
        lines.append(charpoly_line("S0", hp.extra_roots))
    return "\n".join(lines) + "\n"
