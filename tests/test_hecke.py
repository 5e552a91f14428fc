"""Laurent arithmetic, Hecke/GDAHA specialization, degenerations."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import crysref.hecke
from crysref.hecke import (
    GDAHA_LEGS,
    LaurentPoly,
    UniverseMismatch,
    build_gdaha,
    build_generic_hecke,
    degeneration_check,
    gdaha_check,
    hecke_to_text,
    rank_one_specialization_check,
    triple_dot_generator,
    triple_dot_report,
)
from crysref.prover import ProofStatus

UNI = ("x", "y")


def lp_const(c):
    return LaurentPoly.const(UNI, c)


lp_values = st.builds(
    lambda cs: sum(
        (LaurentPoly.var(UNI, "x", i - 2) * lp_const(c)
         for i, c in enumerate(cs)),
        LaurentPoly.zero(UNI),
    ),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(lp_values, lp_values, lp_values)
def test_laurent_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == LaurentPoly.zero(UNI)


def test_laurent_units_and_inverse():
    m = LaurentPoly.var(UNI, "x", -3) * lp_const(-1)
    assert m.is_unit_monomial()
    assert m * m.inverse() == lp_const(1)
    p = LaurentPoly.var(UNI, "x") + lp_const(1)
    assert not p.is_unit_monomial()
    with pytest.raises(Exception):
        p.inverse()


def test_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        LaurentPoly.const(("a",), 1) + LaurentPoly.const(("b",), 1)


HECKE_CASES = (
    [("C_alpha", n) for n in (1, 2, 3)]
    + [("A_alpha", n) for n in (3, 4)]
    + [(f, n) for f in ("G311", "G411", "G611") for n in (1, 2)]
)


@pytest.mark.parametrize("family,n", HECKE_CASES, ids=str)
def test_generic_hecke_builds(family, n):
    hp = build_generic_hecke(family, n)
    assert hp.braid_part.relators is not None
    # one root list per generator, all roots unit monomials
    assert len(hp.gen_roots) == hp.braid_part.num_generators
    for roots in hp.gen_roots:
        for r in roots:
            assert r.is_unit_monomial()
    text = hecke_to_text(hp)
    assert "charpoly" in text


def test_parameter_pair_counts():
    # pairs = generator conjugacy classes of the diagram, plus one for
    # the distinguished S0 word when it carries its own parameters
    assert build_generic_hecke("A_alpha", 3).parameter_pair_count == 1
    assert build_generic_hecke("C_alpha", 1).parameter_pair_count == 4
    assert build_generic_hecke("C_alpha", 2).parameter_pair_count == 5
    assert build_generic_hecke("G311", 2).parameter_pair_count == 4


def test_gdaha_legs():
    assert GDAHA_LEGS == {"D4": (2, 2, 2, 2), "E6": (3, 3, 3),
                          "E7": (2, 4, 4), "E8": (3, 6, 2)}
    hp = build_gdaha(GDAHA_LEGS["D4"], 2)
    assert hp.braid_part.num_generators >= 4


GDAHA_CASES = (
    [("C_alpha", n) for n in (1, 2, 3)]
    + [(f, n) for f in ("G311", "G411", "G611") for n in (1, 2)]
)


@pytest.mark.parametrize("family,n", GDAHA_CASES, ids=str)
def test_gdaha_specialization(family, n):
    rep = gdaha_check(family, n)
    assert rep["pass"], rep["checks"]
    assert rep["checks"]["braid"]["pass"]
    assert rep["checks"]["charpoly"]["pass"]
    assert rep["checks"]["extra_generator"]["pass"]


# SHA-256 of the certificate text of every proof in each check, recorded
# before the prover's search and hint resolver were folded onto one child
# routine.  Restructuring the prover must never change a certificate.
GDAHA_DIGESTS = {
    ("C_alpha", 1): "0caf0f1f29a625214c1b4b52ad907944b5b2fd038120ea74d27e90bf0fd90183",
    ("C_alpha", 2): "9b34e4884c5622e612f43628019218d3ac67beb6d489261cadbebc12645ac4ee",
    ("C_alpha", 3): "f6839fe926231b962beb843ebb6cdcb468a3438ffd10eddfd82fbde1322251cd",
    # the G(d,1,n) towers share their braid part, so their proofs agree
    **{(f, 1): "bd507c904d76b99e1197f233a7012ba8d9e892ce53893318191a606fde231627"
       for f in ("G311", "G411", "G611")},
    **{(f, 2): "e804b0c6d091ed41dcf9123117644b372a9d0cadf64df23e6ccc50e7eea8f868"
       for f in ("G311", "G411", "G611")},
}
TRIPLE_DOT_DIGESTS = {
    3: "a0184a366c77eed679baf984555f966d1632252f26ec38d43321fd07fe0d9590",
    4: "cb24da7705869c65995c8c93d0cd26aec44b45a2d11dd196c080bc569ae33bae",
}


def _digest(labelled_results):
    text = "".join(
        f"{label} {res.status.value}\n{res.certificate.to_text()}"
        for label, res in labelled_results
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family,n", GDAHA_CASES, ids=str)
def test_gdaha_certificates_are_pinned(family, n):
    checks = gdaha_check(family, n)["checks"]
    braid = checks["braid"]["results"]
    labelled = [(f"{key}[{i}]", res) for key in ("fwd", "bwd")
                for i, res in enumerate(braid[key])]
    labelled.append(("extra_generator", checks["extra_generator"]["result"]))
    assert _digest(labelled) == GDAHA_DIGESTS[family, n]


@pytest.mark.parametrize("n", sorted(TRIPLE_DOT_DIGESTS))
def test_triple_dot_certificates_are_pinned(n):
    results = triple_dot_report(n)["results"]
    assert _digest(sorted(results.items())) == TRIPLE_DOT_DIGESTS[n]


def test_rank_one_table():
    rep = rank_one_specialization_check()
    assert rep["pass"]
    units = [r["unit_factor"] for r in rep["results"]]
    # S0's quadratic matches up to the unit -q^2 T1^-2; the others exactly
    assert "q" in units[0] and units[1:] == ["1", "1", "1"]


def test_rank_one_mutation_fails_with_difference():
    from crysref.hecke import RANK_ONE_SUBSTITUTIONS

    # flip the sign of the second parameter image for s1: t21 -> +t21^-1
    mutated = []
    for name, parts, c in RANK_ONE_SUBSTITUTIONS:
        if name == "s1.2":
            mutated.append((name, parts, -c))
        else:
            mutated.append((name, parts, c))
    rep = rank_one_specialization_check(tuple(mutated))
    assert not rep["pass"]
    bad = [r for r in rep["results"] if not r["pass"]]
    assert bad and bad[0]["difference"] is not None


@pytest.mark.parametrize("n", [3, 4])
def test_triple_dot_identities(n):
    rep = triple_dot_report(n)
    assert rep["pass"]
    for res in rep["results"].values():
        assert res.status is ProofStatus.PROVED


def test_triple_dot_corrupted_word_not_proved():
    from crysref.presentations import artinize, build_group_presentation
    from crysref.prover import Budget, prove_trivial
    from crysref.words import Word

    n = 3
    artin = artinize(build_group_presentation("A_alpha", n))
    x = triple_dot_generator(n) * Word.gen(0)  # corrupt by a stray letter
    s1 = Word.gen(0)
    w = s1 * x * s1 * (x * s1 * x).inverse()
    res = prove_trivial(w, artin.relators, Budget.for_word(w))
    assert res.status is not ProofStatus.PROVED


@pytest.mark.parametrize("family", ["A_alpha", "C_alpha", "G311", "G411", "G611"])
def test_cyclotomic_degeneration(family):
    assert degeneration_check(family, 2)


def test_degeneration_fails_on_a_wrong_root_count(monkeypatch):
    # give the order-2 transposition s2 of G311 at n=2 three roots: the
    # specialised char poly is then H^3 - 1 = H - 1, which is not zero
    build = crysref.hecke.build_generic_hecke

    def three_roots(family, n):
        hp = build(family, n)
        roots = list(hp.gen_roots)
        assert len(roots[1]) == 2
        roots[1] += roots[1][:1]
        return dataclasses.replace(hp, gen_roots=tuple(roots))

    monkeypatch.setattr(crysref.hecke, "build_generic_hecke", three_roots)
    assert degeneration_check("G311", 2) is False
