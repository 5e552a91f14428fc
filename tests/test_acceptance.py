"""End-to-end acceptance gate.

Nine criteria covering: exact matrix verification of the presentations,
the abelianization table, conjugacy-class counts, both braid-theorem
isomorphism families (search and scripted-replay modes), the GDAHA
specializations, the rank-one table, the triple-dot identities, and the
randomized property suites.
"""

import hashlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from crysref.affine import (
    build_generator_matrices,
    enumerate_reflection_classes,
    evaluate_word,
    verify_presentation,
)
from crysref.hecke import (
    degeneration_check,
    gdaha_check,
    rank_one_specialization_check,
    triple_dot_report,
)
from crysref.hints import sphere_rank3_hints
from crysref.isomorphisms import braid_isomorphism
from crysref.presentations import abelianize, build_group_presentation
from crysref.prover import (
    ProofStatus,
    check_certificate,
    compose_maps,
    verify_isomorphism_pair,
)
from crysref.ring import FormalAlphaOverflow, RingSpec
from crysref.words import Word, free_reduce


def _assert_replayable(rep, iso):
    """Every Proved result must carry a certificate that replays."""
    words = {
        "fwd_relators": ([iso.fwd.apply(r) for r in iso.braid.relators],
                         iso.artin.relators),
        "bwd_relators": ([iso.bwd.apply(r) for r in iso.artin.relators],
                         iso.braid.relators),
        "bwd_fwd": ([compose_maps(iso.bwd, iso.fwd).images[g] * Word.gen(g, -1)
                     for g in range(len(iso.braid.generator_names))],
                    iso.braid.relators),
        "fwd_bwd": ([compose_maps(iso.fwd, iso.bwd).images[g] * Word.gen(g, -1)
                     for g in range(len(iso.artin.generator_names))],
                    iso.artin.relators),
    }
    for key, (ws, rels) in words.items():
        for w, res in zip(ws, rep[key]):
            assert res.status is ProofStatus.PROVED
            assert check_certificate(res.certificate, w, rels)


# criterion 1 ---------------------------------------------------------


def test_criterion_1_presentation_verification_exact_and_fast():
    cases = [("A_alpha", n) for n in (3, 4, 5)] + [
        ("C_alpha", n) for n in (1, 2, 3, 4)
    ]
    t0 = time.perf_counter()
    for family, n in cases:
        pres = build_group_presentation(family, n)
        _, gens = build_generator_matrices(family, n)
        report = verify_presentation(pres, gens)
        assert report["pass"], (family, n)
        assert report["extra_order"]["pass"], (family, n)
        # x-relator individually identified and passing (the rank-one
        # triangle presentation has no x-relation)
        if pres.x_relator_index is not None:
            assert report["relators"][pres.x_relator_index]["pass"]
    assert time.perf_counter() - t0 < 1.0


# criterion 2 ---------------------------------------------------------


def test_criterion_2_abelianization_table():
    t0 = time.perf_counter()
    # the three table rows, stable for n <= 5
    assert abelianize(build_group_presentation("C_alpha", 1)) == [2, 2, 2]
    for n in (3, 4, 5):
        assert abelianize(build_group_presentation("A_alpha", n)) == [2]
    for n in (2, 3, 4, 5):
        assert abelianize(build_group_presentation("C_alpha", n)) == [2, 2, 2, 2]
    # appendix-family goldens (frozen against the sympy Smith-form
    # oracle in test_presentations, re-asserted here)
    goldens = {
        ("G311", 2): [3, 6], ("G411", 2): [2, 4, 4], ("G611", 2): [2, 2, 6],
        ("G412", 3): [2, 2, 2, 4], ("G421", 3): [2, 2, 2],
        ("G422", 4): [2, 2, 2], ("G621", 3): [2, 2, 6],
        ("G631", 3): [2, 2, 2],
    }
    for (family, n), expected in goldens.items():
        assert abelianize(build_group_presentation(family, n)) == expected
    assert time.perf_counter() - t0 < 1.0


# criterion 3 ---------------------------------------------------------


def test_criterion_3_conjugacy_class_counts():
    t0 = time.perf_counter()
    expected = {("C_alpha", 1): 4, ("C_alpha", 2): 5, ("C_alpha", 3): 5,
                ("A_alpha", 3): 1, ("A_alpha", 4): 1}
    for (family, n), count in expected.items():
        classes = enumerate_reflection_classes(family, n, bound=2)
        assert len(classes) == count, (family, n)
    assert time.perf_counter() - t0 < 30.0


# criterion 4 ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_4_braid_theorem_type_c_search(n):
    iso = braid_isomorphism("C_alpha", n)
    t0 = time.perf_counter()
    rep = verify_isomorphism_pair(iso.fwd, iso.bwd, iso.braid.relators,
                                  iso.artin.relators)
    assert rep["pass"]
    assert time.perf_counter() - t0 < 120.0
    _assert_replayable(rep, iso)


def test_criterion_4_rank3_scripted_replay_under_one_second():
    iso = braid_isomorphism("C_alpha", 3)
    t0 = time.perf_counter()
    rep = verify_isomorphism_pair(iso.fwd, iso.bwd, iso.braid.relators,
                                  iso.artin.relators,
                                  hints=sphere_rank3_hints())
    assert rep["pass"]
    assert time.perf_counter() - t0 < 1.0
    _assert_replayable(rep, iso)


# criterion 5 ---------------------------------------------------------


# SHA-256 of the certificate text of every proof in the search, recorded
# before the prover's search and hint resolver were folded onto one child
# routine (same text as tests/test_isomorphisms.py pins for other cases).
# Rank 4 was re-recorded for partial expansion, under which a deferred
# child can be reached first from a later state, and both ranks when the
# search put the relator shifts in one canonical order
TYPE_A_DIGESTS = {
    3: "45c2e5af1e7ef182efc4545374810ecd002bc28091c1b8640ebcc5521644c62c",
    4: "10b7e4dffa1bf1a9fef626d03e28b1da5020a791e5c30002411c091f81d603d6",
}


@pytest.mark.parametrize("n", [3, 4])
def test_criterion_5_braid_theorem_type_a(n):
    iso = braid_isomorphism("A_alpha", n)
    # the pushrelation family r0 t_i r0 = t_i (t1...t_{n-1})^-1 is present
    names = iso.braid.generator_names
    texts = [r.text(names) for r in iso.braid.relators]
    assert any(t.startswith("r0 t1 r0 t1") for t in texts)
    t0 = time.perf_counter()
    rep = verify_isomorphism_pair(iso.fwd, iso.bwd, iso.braid.relators,
                                  iso.artin.relators)
    assert rep["pass"]
    assert time.perf_counter() - t0 < 120.0
    _assert_replayable(rep, iso)
    text = "".join(
        f"{key}[{i}] {res.status.value}\n{res.certificate.to_text()}"
        for key in ("fwd_relators", "bwd_relators", "bwd_fwd", "fwd_bwd")
        for i, res in enumerate(rep[key])
    )
    assert hashlib.sha256(text.encode()).hexdigest() == TYPE_A_DIGESTS[n]


# criterion 6 ---------------------------------------------------------


@pytest.mark.parametrize("family,n", [("C_alpha", 2), ("C_alpha", 3),
                                      ("G311", 1), ("G311", 2),
                                      ("G411", 1), ("G411", 2),
                                      ("G611", 1), ("G611", 2)], ids=str)
def test_criterion_6_gdaha_specializations(family, n):
    t0 = time.perf_counter()
    rep = gdaha_check(family, n)
    assert rep["pass"], rep["checks"]
    assert rep["checks"]["braid"]["pass"]
    assert rep["checks"]["charpoly"]["pass"]
    assert rep["checks"]["extra_generator"]["pass"]
    assert time.perf_counter() - t0 < 120.0


# criterion 7 ---------------------------------------------------------


def test_criterion_7_rank_one_table():
    t0 = time.perf_counter()
    rep = rank_one_specialization_check()
    assert rep["pass"]
    assert time.perf_counter() - t0 < 1.0


# criterion 8 ---------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_criterion_8_triple_dot_identities(n):
    t0 = time.perf_counter()
    rep = triple_dot_report(n)
    assert rep["pass"]
    for res in rep["results"].values():
        assert res.status is ProofStatus.PROVED
    assert time.perf_counter() - t0 < 60.0


# criterion 9 ---------------------------------------------------------
# the full-size randomized suites live in test_ring (1000 triples per
# ring mode), test_affine (500 word pairs), test_words (1000 words) and
# test_hecke (degenerations); certificate-replay soundness for criteria
# 4/5/8 is asserted inline above.  Compact re-assertions here keep the
# acceptance gate self-contained.


def test_criterion_9_ring_axioms_sample():
    mul = RingSpec(4).mul

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    @settings(max_examples=200, deadline=None)
    @given(*(st.tuples(st.integers(-20, 20), st.integers(-20, 20))
             for _ in range(3)))
    def inner(x, y, z):
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))

    inner()


def test_criterion_9_evaluate_word_homomorphism_sample():
    _, gens = build_generator_matrices("C_alpha", 2)
    letters = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([-1, 1])),
                       max_size=8)

    @settings(max_examples=200, deadline=None)
    @given(letters, letters)
    def inner(a, b):
        u, v = Word(a), Word(b)
        assert evaluate_word(u * v, gens) == \
            evaluate_word(u, gens) * evaluate_word(v, gens)

    inner()


def test_criterion_9_free_reduction_sample():
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([-1, 1])),
                    max_size=20))
    def inner(ls):
        once = free_reduce(ls)
        assert free_reduce(once) == once

    inner()


def test_criterion_9_cyclotomic_degeneration():
    for family in ("A_alpha", "C_alpha", "G311", "G411", "G611"):
        assert degeneration_check(family, 2)
