"""Affine matrix models: presentation checks, element orders, classes."""

import dataclasses
import functools
import hashlib
import json
import random

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
from crysref.affine import (
    _candidate_count, _compose, _matrix_json, _moved,
    _reflection_candidates, _restrict)
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
        g = _sympy_affine(a, w)[:n, :n]
        expected = (g - sympy.eye(n)).rank(simplify=True)
        assert linear_minus_identity_rank(a) == expected

    inner()


def _sympy_affine(a, w):
    """The (n+1)×(n+1) homogeneous matrix [[g, t], [0, 1]] of (g | t), with
    units[i] at (i, perm[i]) of g."""
    n = a.dim
    m = sympy.zeros(n + 1, n + 1)
    for i, (p, (x, y), (s, t)) in enumerate(zip(a.perm, a.units, a.shift)):
        m[i, p], m[i, n] = x + y * w, s + t * w
    m[n, n] = 1
    return m


def _is_zero(m):
    return m.applyfunc(lambda x: sympy.expand(sympy.radsimp(x))).is_zero_matrix


@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in MATRIX_FAMILIES for n in (1, 2, 3) if (f, n) != ("A_alpha", 1)],
    ids=str,
)
def test_kernel_matches_dense_sympy(family, n):
    # the dense oracle reads only perm, units and shift: product and
    # inverse are sympy's, on homogeneous matrices
    spec, gens = build_generator_matrices(family, n)
    w = SYMPY_GEN[spec.symbol]
    letters = st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(gens) - 1),
                  st.sampled_from([-1, 1])),
        max_size=8,
    )

    @settings(max_examples=25, deadline=None)
    @given(letters, letters)
    def inner(ls1, ls2):
        a, b = evaluate_word(Word(ls1), gens), evaluate_word(Word(ls2), gens)
        ha, hb = _sympy_affine(a, w), _sympy_affine(b, w)
        assert _is_zero(_sympy_affine(a * b, w) - ha * hb)
        assert _is_zero(_sympy_affine(a.inverse(), w) - ha.inv())

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


# the same digest at bounds 0, 1 and 3, for every rank that ALL_CASES checks,
# and at two shapes near the candidate cap: the largest admitted bound at
# rank 3 (15,987 candidates) and rank 12 at bound 0.  At bound 0 for C_alpha
# 8 and 12 and A_alpha 12 and 20, most generators fix most candidates, so
# most conjugations are skipped
WIDE_CLASS_DIGESTS = {
    ("A_alpha", 3, 34): "d5b8fcc27571036d36ecefe3c38b2f50d90c4a1a5b66d42c621e679706dc9763",
    ("C_alpha", 12, 0): "55df73c5dd4b6cd300e8e1110755d07cca21215b824aadc1854ce48984dda1d9",
    ("A_alpha", 12, 0): "bd74ce8f3cacc71f56595f0c8f03957d20bdd4767a9793570e0772d21c5ef352",
    ("A_alpha", 20, 0): "c8803156fff9343ea933ddcd11734ec3809b6a207b4e94582c9c9910aa25fbef",
    ("C_alpha", 8, 0): "52a14b733a83e5520551a2ebd89b14c05e1d32737de5f3924e409215ad2bf2a0",
    ("A_alpha", 2, 0): "2f7b4b8b18a64205efcd7f97fa7cc00f406d1c8406953b3a7c3426f967f1c3c8",
    ("A_alpha", 2, 1): "9a6171b9920450ad07b1d16e00d407cc093c5c3a96d8e7dbd0261e0db8c2ad1c",
    ("A_alpha", 2, 3): "f115cde939d6e7b725b327268cd55dc7d62dbc5d33dd6d11d7b9af0577061286",
    ("A_alpha", 3, 0): "d04aeb50b01ce1a20c75806ee04ef180d6f9d3eef5fe1e209982be41b628f689",
    ("A_alpha", 3, 1): "115e7e6cdbfe93d486f521d5d28ea90865d5f580a4c6f353e89ee6114975637e",
    ("A_alpha", 3, 3): "f83da35adaa5bf8f607cde80fbb21f35f73f1d12af69f80168e6ae3edff2629e",
    ("A_alpha", 4, 0): "8b4ad24546395105d3cc352b6c15ca51237ee25efcca90e649d0242edf809cef",
    ("A_alpha", 4, 1): "f698449c6851561307d23adf757f965c446c6280e852fb03b0e2648a0c581b88",
    ("A_alpha", 4, 3): "bcdbea49d453f153b47f22a5ad6ee3e2a2c367a0594d7a910fe5cd6fbe7fe585",
    ("A_alpha", 5, 0): "de2a27956908dd22f47eeab050e625606e37ceb5dd16319abf8299bfad3ec604",
    ("A_alpha", 5, 1): "21ec381230df5af5fbbac934609eec62cc5ff0ff76526b0c5858dc293121815d",
    ("A_alpha", 5, 3): "bb3c1032ebfa0028fb1e1c1de3b8e58677450be77fe011a070d7f02fab5861f6",
    ("C_alpha", 1, 0): "81c45bfb23bfe0f5b9e371764d3caed3543e8816e523a3f18737433d19ca4747",
    ("C_alpha", 1, 1): "54bf3d4bc57e6c2cffdab54435badda062871e248f40b3ad0ae1b362ed0fbd35",
    ("C_alpha", 1, 3): "064b672398ad152c5ea2a718fda06b7ffc20cef6608eba012c4f6e7de94e3791",
    ("C_alpha", 2, 0): "6de45bb34326b23ff89e5081a6c2ec945a0d6669e1b1b768b59ae3e8b672b604",
    ("C_alpha", 2, 1): "88da313526976605f07e71926179ee4acf517d56170ab9e75212f950b2767a24",
    ("C_alpha", 2, 3): "091db4dbe530429961f0150ca3cb1fb6144f340fa81d364e81325e6908755179",
    ("C_alpha", 3, 0): "719717faf84df3cf63a0e2e52fb7c7679571d42a3b03dfc62a6823d047b49b7c",
    ("C_alpha", 3, 1): "bb6d065ed171f72cedb6b74296f4253e98203770135a13b3dd7462f77d998cb5",
    ("C_alpha", 3, 3): "e8761dc87298c96fef90bb845a7ad79cd4f19352f1deb672c287c6d4b75fac3f",
    ("C_alpha", 4, 0): "38c801f5558dbc62406e2b05b711fc2b1e75118e5aa92b412bda2b37acc0aa03",
    ("C_alpha", 4, 1): "36d2ff55df55e64455f802e00877be8fbdebf1d782e7f84157b32c8b97a84a2e",
    ("C_alpha", 4, 3): "caac40512c377358a136e5a3c2073d964d7bc6c7b080cd323b28f85df1d6bdc2",
}


@pytest.mark.parametrize("family,n,bound", sorted(WIDE_CLASS_DIGESTS), ids=str)
def test_reflection_classes_are_pinned_at_other_bounds(family, n, bound):
    text = json.dumps(enumerate_reflection_classes(family, n, bound), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        WIDE_CLASS_DIGESTS[family, n, bound]


@pytest.mark.parametrize("family,n,bound", [
    ("A_alpha", 2, 0), ("A_alpha", 5, 4), ("C_alpha", 1, 1), ("C_alpha", 3, 4)])
def test_candidate_count_matches_the_candidates(family, n, bound):
    assert _candidate_count(family, n, bound) == \
        len(_reflection_candidates(family, n, bound))


@pytest.mark.parametrize("family,n", [
    (f, n) for f in ("A_alpha", "C_alpha")
    for n in range(2 if f == "A_alpha" else 1, 7)], ids=str)
def test_generators_fix_the_candidates_they_do_not_meet(family, n):
    # the conjugations that enumerate_reflection_classes skips are self-loops
    spec, gens = build_generator_matrices(family, n)
    skipped = 0
    for g in gens:
        c, c_inv = g.triple, g.inverse().triple
        for x in _reflection_candidates(family, n, 4):  # bound 2, extended
            if not _moved(c) & _moved(x):
                assert _compose(spec.mul, c, x, c_inv) == x
                skipped += 1
    assert skipped or n < 4


@st.composite
def _sparse_triple_pairs(draw):
    """Two triples of one dimension over Z[i], each the identity off a
    drawn set of coordinates; a drawn entry may still be the identity's."""
    n = draw(st.integers(1, 6))

    def triple():
        on = draw(st.lists(st.integers(0, n - 1), unique=True))
        perm, units, shift = list(range(n)), [(1, 0)] * n, [(0, 0)] * n
        for k, p in zip(on, draw(st.permutations(on))):
            perm[k] = p
            units[k] = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1)]))
            shift[k] = draw(SHIFTS)
        return tuple(perm), tuple(units), tuple(shift)

    return triple(), triple()


@settings(max_examples=500, deadline=None)
@given(_sparse_triple_pairs())
def test_triples_that_move_apart_commute(pair):
    # a moved set that ignored the shift or the units would call a
    # translation or a diagonal unit apart from a triple that moves it
    x, y = pair
    mul = RingSpec(4).mul
    for z in pair:
        assert {z[0][k] for k in _moved(z)} == _moved(z)
        assert all(z[0][k] == k and z[1][k] == (1, 0) and z[2][k] == (0, 0)
                   for k in set(range(len(z[0]))) - _moved(z))
    if not _moved(x) & _moved(y):
        assert _compose(mul, x, y) == _compose(mul, y, x)


def test_candidate_cap_admits_its_own_count(monkeypatch):
    # C_alpha 1 at bound 2 has 9^2 = 81 extended candidates
    monkeypatch.setattr(affine, "MAX_CANDIDATES", 81)
    assert len(enumerate_reflection_classes("C_alpha", 1, 2)) == 4
    monkeypatch.setattr(affine, "MAX_CANDIDATES", 80)
    with pytest.raises(ValueError, match="^bound 2 needs 81 candidate "
                       "reflections for C_alpha n=1, over the cap of 80$"):
        enumerate_reflection_classes("C_alpha", 1, 2)


def test_alpha_squared_overflows_in_the_kernel():
    spec = RingSpec()
    alpha, zero = (0, 1), (0, 0)
    a = AffineElement(spec, (0,), (alpha,), (zero,))
    with pytest.raises(FormalAlphaOverflow):
        a * a


def test_constructor_rejects_bad_perm_and_zero_unit():
    spec = RingSpec()
    one, zero = (1, 0), (0, 0)
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


def test_evaluate_word_rejects_generators_of_another_ring_or_dimension():
    _, (a, *_) = build_generator_matrices("A_alpha", 3)
    _, (_, c, *_) = build_generator_matrices("C_alpha", 4)
    _, (_, g, *_) = build_generator_matrices("G611", 3)
    for other in (g, c):
        for letters in ([(1, 1)], [(1, -1)], [(0, 1), (1, 1), (0, 1)]):
            with pytest.raises(SpecMismatchError):
                evaluate_word(Word(letters), [a, other])


def test_verify_rejects_generators_of_another_ring_or_dimension():
    pres = build_group_presentation("A_alpha", 3)
    _, gens = build_generator_matrices("A_alpha", 3)
    _, (_, c, *_) = build_generator_matrices("C_alpha", 4)
    _, (_, g, *_) = build_generator_matrices("G611", 3)
    for other in (g, c):
        for k in (0, len(gens) - 1):
            with pytest.raises(SpecMismatchError):
                verify_presentation(pres, gens[:k] + (other,) + gens[k + 1:])


def test_matrix_families_constant():
    assert set(MATRIX_FAMILIES) == {"A_alpha", "C_alpha", "G311", "G411", "G611"}
    with pytest.raises(Exception):
        build_generator_matrices("G412", 2)


def _reference_product(spec, x, y):
    """The product of two raw triples as ``AffineElement.__mul__`` formed
    it before ``_compose``: every unit and shift entry through
    ``spec.mul``, units first."""
    (perm, units, shift), (perm2, units2, shift2) = x, y
    mul = spec.mul
    out_units = tuple(mul(u, units2[p]) for p, u in zip(perm, units))
    out_shift = []
    for p, u, (a, b) in zip(perm, units, shift):
        c, d = mul(u, shift2[p])
        out_shift.append((c + a, d + b))
    return tuple(perm2[p] for p in perm), out_units, tuple(out_shift)


SPECS = [RingSpec(), RingSpec(3), RingSpec(4), RingSpec(6)]
# identity, -1, the adjoined generator (ζ, i or α) and its negative, then
# any nonzero pair: a formal unit with a w part is what can overflow
UNITS = st.one_of(
    st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda u: u != (0, 0)),
)
SHIFTS = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def _triples(draw, low, high):
    """low to high triples of one dimension."""
    n = draw(st.integers(1, 5))

    def triple():
        return (tuple(draw(st.permutations(range(n)))),
                tuple(draw(st.lists(UNITS, min_size=n, max_size=n))),
                tuple(draw(st.lists(SHIFTS, min_size=n, max_size=n))))

    return [triple() for _ in range(draw(st.integers(low, high)))]


def _outcome(f, *args):
    try:
        return f(*args)
    except FormalAlphaOverflow:
        return FormalAlphaOverflow


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SPECS), _triples(2, 2))
def test_compose_matches_the_reference_product(spec, pair):
    x, y = pair
    expected = _outcome(_reference_product, spec, x, y)
    assert _outcome(_compose, spec.mul, x, y) == expected
    if expected is not FormalAlphaOverflow:
        assert (AffineElement(spec, *x) * AffineElement(spec, *y)).triple == expected


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SPECS), _triples(1, 6))
def test_compose_of_many_factors_matches_the_left_fold(spec, xs):
    expected = _outcome(
        functools.reduce, lambda x, y: _reference_product(spec, x, y), xs)
    assert _outcome(_compose, spec.mul, *xs) == expected


CONJUGATION_CASES = [("C_alpha", 1), ("C_alpha", 3), ("A_alpha", 2), ("A_alpha", 4)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONJUGATION_CASES), st.data())
def test_raw_conjugate_matches_the_element_product(case, data):
    family, n = case
    spec, gens = build_generator_matrices(family, n)
    x = data.draw(st.sampled_from(_reflection_candidates(family, n, 3)))
    c = data.draw(st.sampled_from(gens))
    raw = _compose(spec.mul, _compose(spec.mul, c.triple, x), c.inverse().triple)
    assert raw == (c * AffineElement(spec, *x) * c.inverse()).triple
    assert _compose(spec.mul, c.triple, x, c.inverse().triple) == raw


def _evaluate_word_by_letters(word, gens):
    """``evaluate_word`` as a fold of one product, and one inverse, per
    letter."""
    if not gens:
        raise ValueError("need at least one generator")
    out = AffineElement.identity(gens[0].spec, gens[0].dim)
    for g, e in word.letters:
        out = out * (gens[g] if e == 1 else gens[g].inverse())
    return out


@functools.cache
def _generators(family, n):
    return build_generator_matrices(family, n)[1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(f, n) for f in MATRIX_FAMILIES
                        for n in range(2 if f == "A_alpha" else 1, 6)]),
       st.data())
def test_evaluate_word_matches_the_fold_by_letters(case, data):
    gens = _generators(*case)
    word = Word(data.draw(st.lists(
        st.tuples(st.integers(0, len(gens) - 1), st.sampled_from([-1, 1])),
        max_size=40)))
    assert evaluate_word(word, gens) == _evaluate_word_by_letters(word, gens)


def _sample_elements(family, n):
    """Every generator, then 40 words of 1 to 8 letters seeded by the case."""
    _, gens = build_generator_matrices(family, n)
    rng = random.Random(f"{family} {n}")
    words = [
        Word([(rng.randrange(len(gens)), rng.choice((1, -1)))
              for _ in range(rng.randint(1, 8))])
        for _ in range(40)
    ]
    return list(gens) + [evaluate_word(w, gens) for w in words]


# SHA-256 of str(x), _matrix_json(x), classify_element(x) and x.order(), one
# line per element of _sample_elements(family, n) for every n
PRINT_DIGESTS = {
    "A_alpha": "ed7466cff68426a89b339c282908356aa9e7f18b03b1601398a31100389a2b95",
    "C_alpha": "190f75dc72cab0154ce14a5e52ae50cdf866fbdf03b16c3f991e4a7070b22fa5",
    "G311": "1fdfe58a2e05c46dcdf96c9cae585e33e891e872baee6cac3fbdde7f795f4045",
    "G411": "0036d67311c3de7d8e4138d167096fbfaf4e50328eee7fd8d90f851841dd77ca",
    "G611": "bbd27df0efeb61a463c9c27c0dd191fd4982ef43f6306ceebc4b271f75b37cc5",
}


@pytest.mark.parametrize("family", MATRIX_FAMILIES)
def test_printed_forms_are_pinned(family):
    # covers the ζ3, i and ζ6 printing, negative and zero coefficients and
    # the cycle-based order, not only the formal-α representatives
    digest = hashlib.sha256()
    for n in range(2 if family == "A_alpha" else 1, 6):
        for x in _sample_elements(family, n):
            line = (str(x), json.dumps(_matrix_json(x)),
                    json.dumps(classify_element(x)), x.order())
            digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == PRINT_DIGESTS[family]


# a relator the matrices break, and the extra order relation one power too
# high, with the witness each failure reports
WITNESS_CASES = [
    ("C_alpha", 2, "s1 s4",
     {"linear": [["-1", "0"], ["0", "-1"]], "translation": ["0", "1*α"]},
     {"linear": [["-1", "0"], ["0", "1"]], "translation": ["-1+1*α", "0"]}),
    ("G611", 2, "s1 s3",
     {"linear": [["1*ζ6", "0"], ["0", "-1"]], "translation": ["0", "1"]},
     {"linear": [["-1*ζ6", "0"], ["0", "1"]], "translation": ["1*ζ6", "0"]}),
]


@pytest.mark.parametrize("family,n,word,relator_witness,order_witness",
                         WITNESS_CASES, ids=["C_alpha-2", "G611-2"])
def test_failing_relations_report_witnesses(family, n, word, relator_witness,
                                            order_witness):
    pres = build_group_presentation(family, n)
    _, gens = build_generator_matrices(family, n)
    extra = parse_word(word, pres.generator_names)
    report = verify_presentation(
        dataclasses.replace(pres, relators=pres.relators + (extra,)), gens)
    assert report["pass"] is False and report["extra_order"]["pass"]
    assert [r["relator_index"] for r in report["relators"] if not r["pass"]] == \
        [len(pres.relators)]
    assert report["relators"][-1] == {
        "relator_index": len(pres.relators), "word_text": word, "pass": False,
        "witness_matrix": relator_witness}
    base, e = pres.extra_order_relation
    report = verify_presentation(
        dataclasses.replace(pres, extra_order_relation=(base, e + 1)), gens)
    assert report["pass"] is False
    assert all(r["pass"] for r in report["relators"])
    assert report["extra_order"] == {
        "word_text": base.text(pres.generator_names), "order": e + 1,
        "pass": False, "witness_matrix": order_witness}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(f, n) for f in MATRIX_FAMILIES
                        for n in range(2 if f == "A_alpha" else 1, 9)]),
       st.data())
def test_moved_coordinate_check_matches_the_full_product(case, data):
    # a product of conjugated relators is the identity, and one extra
    # letter most often breaks it
    gens = _generators(*case)
    pres = build_group_presentation(*case)
    letter = st.tuples(st.integers(0, len(gens) - 1), st.sampled_from([-1, 1]))
    letters = []
    for rel in data.draw(st.lists(st.sampled_from(pres.relators), max_size=3)):
        w = Word(data.draw(st.lists(letter, max_size=3)))
        letters += (w * rel * w.inverse()).letters
    for x in data.draw(st.lists(letter, max_size=1)):
        letters.insert(data.draw(st.integers(0, len(letters))), x)
    word = Word(letters)
    full = evaluate_word(word, gens)
    one = dataclasses.replace(pres, relators=(word,), extra_order_relation=None)
    assert verify_presentation(one, gens)["pass"] == full.is_identity()
    # the restricted product is the full one on S, which holds all it moves
    on = sorted(set().union(*(_moved(gens[g].triple) for g, _ in word.letters)))
    spec = gens[0].spec
    restricted = _compose(
        spec.mul, AffineElement.identity(spec, len(on)).triple,
        *(_restrict((gens[g] if e == 1 else gens[g].inverse()).triple, on)
          for g, e in word.letters))
    assert restricted == _restrict(full.triple, on)
    assert _moved(full.triple) <= set(on)


@pytest.mark.parametrize("family,n", [("C_alpha", 3), ("A_alpha", 3), ("G411", 2)])
def test_only_failing_words_are_evaluated_in_full(monkeypatch, family, n):
    # the rotated generators break some relators and base ** e, the last
    # relator, whose verdict the extra order entry reuses
    pres = build_group_presentation(family, n)
    _, gens = build_generator_matrices(family, n)
    calls = []
    monkeypatch.setattr(affine, "evaluate_word",
                        lambda word, gs: calls.append(word) or evaluate_word(word, gs))
    report = verify_presentation(pres, gens[1:] + gens[:1])
    failing = [pres.relators[r["relator_index"]]
               for r in report["relators"] if not r["pass"]]
    assert calls == failing and failing[-1] == pres.relators[-1]
    assert report["extra_order"]["witness_matrix"] == \
        report["relators"][-1]["witness_matrix"]
    assert verify_presentation(pres, gens)["pass"] and len(calls) == len(failing)
