"""Affine matrix models: presentation checks, element orders, classes."""

import hashlib
import json

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from crysref import affine
from crysref.affine import (
    MATRIX_FAMILIES,
    AffineElement,
    build_generator_matrices,
    classify_element,
    enumerate_reflection_classes,
    evaluate_word,
    linear_minus_identity_rank,
    verify_presentation,
)
from crysref.affine import _candidate_count, _reflection_candidates
from crysref.presentations import build_group_presentation
from crysref.ring import FormalAlphaOverflow, RingSpec, SpecMismatchError
from crysref.words import Word, parse_word

ALL_CASES = (
    [("C_alpha", n) for n in (1, 2, 3, 4)]
    + [("A_alpha", n) for n in (2, 3, 4, 5)]
    + [(f, n) for f in ("G311", "G411", "G611") for n in (1, 2, 3)]
)


@pytest.mark.parametrize("family,n", ALL_CASES, ids=str)
def test_presentation_verifies_exactly(family, n):
    pres = build_group_presentation(family, n)
    _, gens = build_generator_matrices(family, n)
    report = verify_presentation(pres, gens)
    assert report["pass"], [r for r in report["relators"] if not r["pass"]]
    assert report["extra_order"]["pass"]


@pytest.mark.parametrize("family,n", ALL_CASES, ids=str)
def test_generator_orders_match_labels(family, n):
    pres = build_group_presentation(family, n)
    _, gens = build_generator_matrices(family, n)
    for g, label in zip(gens, pres.generator_orders):
        assert g.order() == label


def test_affine_composition_law():
    _, gens = build_generator_matrices("C_alpha", 2)
    a, b = gens[0], gens[1]
    v = tuple(a.spec.el(i + 1) for i in range(a.dim))
    assert (a * b).apply(v) == a.apply(b.apply(v))


@pytest.mark.parametrize("family,n", [("C_alpha", 2), ("A_alpha", 3), ("G411", 2)])
def test_evaluate_word_is_homomorphism(family, n):
    _, gens = build_generator_matrices(family, n)
    k = len(gens)
    letters = st.lists(
        st.tuples(st.integers(min_value=0, max_value=k - 1),
                  st.sampled_from([-1, 1])),
        max_size=10,
    )

    @settings(max_examples=170, deadline=None)
    @given(letters, letters)
    def inner(ls1, ls2):
        u, v = Word(ls1), Word(ls2)
        assert evaluate_word(u * v, gens) == evaluate_word(u, gens) * evaluate_word(v, gens)
        assert evaluate_word(u.inverse(), gens) == evaluate_word(u, gens).inverse()

    inner()


# the adjoined generator as an exact sympy number; alpha stays a symbol
SYMPY_GEN = {
    "α": sympy.Symbol("alpha"),
    "ζ3": sympy.Rational(-1, 2) + sympy.sqrt(3) * sympy.I / 2,
    "i": sympy.I,
    "ζ6": sympy.Rational(1, 2) + sympy.sqrt(3) * sympy.I / 2,
}


@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in MATRIX_FAMILIES for n in (1, 2, 3) if (f, n) != ("A_alpha", 1)],
    ids=str,
)
def test_rank_matches_sympy(family, n):
    spec, gens = build_generator_matrices(family, n)
    w = SYMPY_GEN[spec.symbol]
    letters = st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(gens) - 1),
                  st.sampled_from([-1, 1])),
        max_size=8,
    )

    @settings(max_examples=40, deadline=None)
    @given(letters)
    def inner(ls):
        a = evaluate_word(Word(ls), gens)
        g = sympy.Matrix([[x.a + x.b * w for x in row] for row in a.linear])
        expected = (g - sympy.eye(n)).rank(simplify=True)
        assert linear_minus_identity_rank(a) == expected

    inner()


def _sympy_affine(a, w):
    """The (n+1)×(n+1) homogeneous matrix [[g, t], [0, 1]] of (g | t)."""
    n = a.dim
    rows = [
        [x.a + x.b * w for x in row] + [t.a + t.b * w]
        for row, t in zip(a.linear, a.translation)
    ]
    return sympy.Matrix(rows + [[0] * n + [1]])


def _is_zero(m):
    return m.applyfunc(lambda x: sympy.expand(sympy.radsimp(x))).is_zero_matrix


@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in MATRIX_FAMILIES for n in (1, 2, 3) if (f, n) != ("A_alpha", 1)],
    ids=str,
)
def test_kernel_matches_dense_sympy(family, n):
    # the dense oracle reads only .linear and .translation: product,
    # inverse and action are sympy's, on homogeneous matrices
    spec, gens = build_generator_matrices(family, n)
    w = SYMPY_GEN[spec.symbol]
    letters = st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(gens) - 1),
                  st.sampled_from([-1, 1])),
        max_size=8,
    )
    coords = st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n
    )

    @settings(max_examples=25, deadline=None)
    @given(letters, letters, coords)
    def inner(ls1, ls2, xs):
        a, b = evaluate_word(Word(ls1), gens), evaluate_word(Word(ls2), gens)
        ha, hb = _sympy_affine(a, w), _sympy_affine(b, w)
        assert _is_zero(_sympy_affine(a * b, w) - ha * hb)
        assert _is_zero(_sympy_affine(a.inverse(), w) - ha.inv())
        v = tuple(spec.el(x, y) for x, y in xs)
        image = sympy.Matrix([x.a + x.b * w for x in a.apply(v)] + [1])
        assert _is_zero(image - ha * sympy.Matrix([x.a + x.b * w for x in v] + [1]))

    inner()


def test_inverse_and_identity():
    _, gens = build_generator_matrices("G611", 2)
    for g in gens:
        assert (g * g.inverse()).is_identity()
        assert (g ** 0).is_identity()


def test_translation_elements_have_infinite_order():
    _, gens = build_generator_matrices("C_alpha", 2)
    # s3 * s4 is a pure translation by (alpha - 1) e_n: infinite order
    t = gens[2] * gens[3]
    assert t.order() is None


def test_order_beyond_48_is_found():
    # a 3-, a 4- and a 5-cycle: order lcm(3, 4, 5) = 60
    pres = build_group_presentation("A_alpha", 12)
    _, gens = build_generator_matrices("A_alpha", 12)
    g = evaluate_word(
        parse_word("s1 s2 s4 s5 s6 s8 s9 s10 s11", pres.generator_names), gens
    )
    assert g.order() == 60
    assert (g ** 60).is_identity() and not (g ** 30).is_identity()
    info = classify_element(g)
    assert info == {"kind": "other", "finite_order": True, "moved_rank": 9}


def test_classify_reflection():
    _, gens = build_generator_matrices("C_alpha", 2)
    info = classify_element(gens[0])
    assert info["kind"] == "reflection"
    assert info["order"] == 2
    info2 = classify_element(gens[0] * gens[0])
    assert info2["kind"] == "identity"
    info3 = classify_element(gens[2] * gens[3])
    assert info3["kind"] == "translation"


CLASS_GOLDENS = {
    ("C_alpha", 1): 4,
    ("C_alpha", 2): 5,
    ("C_alpha", 3): 5,
    ("A_alpha", 3): 1,
    ("A_alpha", 4): 1,
}


@pytest.mark.parametrize("family,n", sorted(CLASS_GOLDENS), ids=str)
def test_reflection_class_counts(family, n):
    classes = enumerate_reflection_classes(family, n, bound=2)
    assert len(classes) == CLASS_GOLDENS[(family, n)]


# SHA-256 of json.dumps(enumerate_reflection_classes(f, n, 2), sort_keys=True)
CLASS_DIGESTS = {
    ("A_alpha", 3): "4bd807fc100944f5646c2d342daaee5c5373215219b6d096ab76393620047d35",
    ("A_alpha", 4): "6fcec147f1def942dbd9721eda673f523d2ddde8f811e7421fa0ef05b3d31481",
    ("C_alpha", 1): "3ee962240aa9786188407c0f8a5d5f1127cc31f178fa445226b81cd0d51b61ac",
    ("C_alpha", 2): "074e6655e18efa7bb7119c97f522a1ae4a0ecc47872921a6ccef096b0e277703",
    ("C_alpha", 3): "7ac492219d4ae26201af1d47983178f29abf9ba13b9460784dfbb83c6ea30c8d",
}


@pytest.mark.parametrize("family,n", sorted(CLASS_GOLDENS), ids=str)
def test_reflection_classes_are_pinned(family, n):
    # representatives, window sizes, linear classes and residues, not only
    # the class counts
    text = json.dumps(enumerate_reflection_classes(family, n, 2), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASS_DIGESTS[family, n]


@pytest.mark.parametrize("family,n,bound", [
    ("A_alpha", 2, 0), ("A_alpha", 5, 4), ("C_alpha", 1, 1), ("C_alpha", 3, 4)])
def test_candidate_count_matches_the_candidates(family, n, bound):
    spec, _ = build_generator_matrices(family, n)
    assert _candidate_count(family, n, bound) == \
        len(_reflection_candidates(family, spec, n, bound))


def test_candidate_cap_admits_its_own_count(monkeypatch):
    # C_alpha 1 at bound 2 has 9^2 = 81 extended candidates
    monkeypatch.setattr(affine, "MAX_CANDIDATES", 81)
    assert len(enumerate_reflection_classes("C_alpha", 1, 2)) == 4
    monkeypatch.setattr(affine, "MAX_CANDIDATES", 80)
    with pytest.raises(ValueError, match="^bound 2 needs 81 candidate "
                       "reflections for C_alpha n=1, over the cap of 80$"):
        enumerate_reflection_classes("C_alpha", 1, 2)


def _stored(spec, x):
    """The ring element x in the form AffineElement stores its scalars (the
    type of a stored unit), so the kernel edge tests below do not depend on
    that storage."""
    one = AffineElement.identity(spec, 1).units[0]
    return x if isinstance(one, type(x)) else (x.a, x.b)


def test_alpha_squared_overflows_in_the_kernel():
    spec = RingSpec()
    alpha, zero = _stored(spec, spec.el(0, 1)), _stored(spec, spec.zero())
    a = AffineElement(spec, (0,), (alpha,), (zero,))
    with pytest.raises(FormalAlphaOverflow):
        a * a


def test_constructor_rejects_bad_perm_and_zero_unit():
    spec = RingSpec()
    one, zero = _stored(spec, spec.one()), _stored(spec, spec.zero())
    with pytest.raises(ValueError):
        AffineElement(spec, (0, 0), (one, one), (zero, zero))
    with pytest.raises(ValueError):
        AffineElement(spec, (0, 1, 2), (one, one), (zero, zero))
    with pytest.raises(ValueError):
        AffineElement(spec, (0, 1), (one, zero), (zero, zero))


def test_product_across_rings_is_rejected():
    _, (a, *_) = build_generator_matrices("A_alpha", 2)
    _, (g, *_) = build_generator_matrices("G311", 2)
    with pytest.raises(SpecMismatchError):
        a * g
    with pytest.raises(SpecMismatchError):
        g * a
    _, (c, *_) = build_generator_matrices("C_alpha", 3)
    with pytest.raises(SpecMismatchError):
        a * c


def test_matrix_families_constant():
    assert set(MATRIX_FAMILIES) == {"A_alpha", "C_alpha", "G311", "G411", "G611"}
    with pytest.raises(Exception):
        build_generator_matrices("G412", 2)
