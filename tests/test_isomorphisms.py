"""Braid-presentation isomorphisms: maps, hints, full proofs at small rank."""

import hashlib
import time

import pytest

from crysref.affine import build_generator_matrices, evaluate_word
from crysref.hints import (
    BWD_FWD,
    BWD_RELATORS,
    FWD_BWD,
    FWD_RELATORS,
    sphere_rank3_hints,
)
from crysref.isomorphisms import braid_isomorphism, braid_space_for
from crysref.prover import (
    ProofStatus,
    check_certificate,
    compose_maps,
    resolve_hint,
    verify_isomorphism_pair,
)
from crysref.words import Word


def test_space_routing():
    assert braid_space_for("C_alpha", 1) == ("FreeRank3", 1)
    assert braid_space_for("C_alpha", 3) == ("PuncturedSphere4", 3)
    assert braid_space_for("A_alpha", 2) == ("FreeRank3", 1)
    assert braid_space_for("A_alpha", 4) == ("TorusSpecial", 4)


def test_rank_one_is_identity_on_free_group():
    iso = braid_isomorphism("C_alpha", 1)
    assert not iso.braid.relators
    for g in range(3):
        assert iso.fwd.images[g] == Word.gen(g)
        assert iso.bwd.images[g] == Word.gen(g)


@pytest.mark.parametrize("family,n", [("C_alpha", 2), ("C_alpha", 3),
                                      ("C_alpha", 4), ("A_alpha", 3),
                                      ("A_alpha", 4)])
def test_maps_are_inverse_in_matrix_group(family, n):
    """Matrix-level sanity: images of relators die in W and the round
    trips are the identity in W (a consequence of — and an independent
    check on — the group-level proofs)."""
    iso = braid_isomorphism(family, n)
    _, gens = build_generator_matrices(family, n)
    artin_images = [evaluate_word(iso.fwd.images[g], gens)
                    for g in range(len(iso.braid.generator_names))]
    for rel in iso.braid.relators:
        assert evaluate_word(iso.fwd.apply(rel), gens).is_identity()
    for key, comp, k in [
        ("bf", compose_maps(iso.bwd, iso.fwd), len(iso.braid.generator_names)),
        ("fb", compose_maps(iso.fwd, iso.bwd), len(iso.artin.generator_names)),
    ]:
        side = iso.fwd if key == "bf" else None
        for g in range(k):
            w = comp.images[g] * Word.gen(g, -1)
            if key == "fb":
                assert evaluate_word(w, gens).is_identity()
            else:
                assert evaluate_word(iso.fwd.apply(w), gens).is_identity()


@pytest.mark.parametrize("family,n", [("C_alpha", 2), ("C_alpha", 3),
                                      ("A_alpha", 3)])
def test_full_isomorphism_proof_search_mode(family, n):
    iso = braid_isomorphism(family, n)
    rep = verify_isomorphism_pair(iso.fwd, iso.bwd, iso.braid.relators,
                                  iso.artin.relators)
    assert rep["pass"]
    # certificate-replay soundness for every proved result
    relmap = {"fwd_relators": iso.artin.relators,
              "bwd_relators": iso.braid.relators,
              "bwd_fwd": iso.braid.relators,
              "fwd_bwd": iso.artin.relators}
    words = {
        "fwd_relators": [iso.fwd.apply(r) for r in iso.braid.relators],
        "bwd_relators": [iso.bwd.apply(r) for r in iso.artin.relators],
        "bwd_fwd": [compose_maps(iso.bwd, iso.fwd).images[g] * Word.gen(g, -1)
                    for g in range(len(iso.braid.generator_names))],
        "fwd_bwd": [compose_maps(iso.fwd, iso.bwd).images[g] * Word.gen(g, -1)
                    for g in range(len(iso.artin.generator_names))],
    }
    for key, results in rep.items():
        if not isinstance(results, list):
            continue
        for w, res in zip(words[key], results):
            assert res.status is ProofStatus.PROVED
            assert check_certificate(res.certificate, w, relmap[key])


def test_rank3_hint_scripts_all_resolve():
    iso = braid_isomorphism("C_alpha", 3)
    for scripts, srcmap, srels, trels in [
        (FWD_RELATORS, iso.fwd, iso.braid.relators, iso.artin.relators),
        (BWD_RELATORS, iso.bwd, iso.artin.relators, iso.braid.relators),
    ]:
        assert len(scripts) == len(srels)
        for script, rel in zip(scripts, srels):
            image = srcmap.apply(rel)
            res = resolve_hint(image, trels, script)
            assert res.status is ProofStatus.PROVED, rel
            assert check_certificate(res.certificate, image, trels)


def test_rank3_replay_mode_is_fast_and_complete():
    iso = braid_isomorphism("C_alpha", 3)
    t0 = time.perf_counter()
    rep = verify_isomorphism_pair(iso.fwd, iso.bwd, iso.braid.relators,
                                  iso.artin.relators,
                                  hints=sphere_rank3_hints())
    assert rep["pass"]
    assert time.perf_counter() - t0 < 1.0


def test_hint_tables_cover_round_trips():
    assert len(BWD_FWD) == 6 and len(FWD_BWD) == 5


# SHA-256 of the certificate text of every proof in a full isomorphism
# check, recorded before the prover's insertion positions and cancel scan
# were pruned.  Pruning must only skip work, never change a certificate.
# Re-recorded when the search put the relator shifts in one canonical
# order (length, then letters), and the C3 hints followed the relators
# into the diagram order.
CERTIFICATE_DIGESTS = {
    ("C_alpha", 3, "hints"):
        "36cc10ae9cb4264f470c500c2c14567981f28752bb52eef388b20aae0d38021b",
    ("C_alpha", 2, "search"):
        "b2e8d0b5b3731f70ee579b39772eb3957f60aaf130752dbfa5fc63a9f015253c",
    ("C_alpha", 3, "search"):
        "7905a9e7792052177e998e0572bc4bfe05b1105075b4ed5b41ba6a199a40df45",
    ("A_alpha", 3, "search"):
        "45c2e5af1e7ef182efc4545374810ecd002bc28091c1b8640ebcc5521644c62c",
}


@pytest.mark.parametrize("family,n,mode", sorted(CERTIFICATE_DIGESTS))
def test_isomorphism_certificates_are_pinned(family, n, mode):
    iso = braid_isomorphism(family, n)
    hints = sphere_rank3_hints() if mode == "hints" else None
    rep = verify_isomorphism_pair(iso.fwd, iso.bwd, iso.braid.relators,
                                  iso.artin.relators, hints=hints)
    text = "".join(
        f"{key}[{i}] {res.status.value}\n{res.certificate.to_text()}"
        for key in ("fwd_relators", "bwd_relators", "bwd_fwd", "fwd_bwd")
        for i, res in enumerate(rep[key])
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == CERTIFICATE_DIGESTS[family, n, mode]


# SHA-256 of the generator images both ways, recorded before the end
# generators of the type-A map were left to the general formula.
BRAID_MAP_DIGESTS = {
    ("A_alpha", 3):
        "cada5a9e77f20c5a92a11d20689e8571e1984849189b4e0c9eda4ca413c9e8b3",
    ("A_alpha", 4):
        "2688f9054364a662775fb47523298b600b7d3b8e12ed1b882a6ba75d74ed7b6a",
    ("A_alpha", 5):
        "e84fcd2acf9671c07c7a54e3dfdfca325ab3e1bd970747027df6ab8ed51a2624",
    ("A_alpha", 6):
        "75683c222333f9e8abae7358c4b0744dae26626da381ff7a83af525aa5c4e64c",
    ("A_alpha", 7):
        "8ffbc269d923b3ac33456e1114d6203742870ddfa8824f52ccedf607f71fe572",
    ("A_alpha", 8):
        "576777d36a2b085f22053b1706c55923c082b18c7f0915225334bad0bde4f7e6",
    ("C_alpha", 1):
        "ce5836b165850298f8af153b688946b8f9e9a41114e4011f98d453dc270d953d",
    ("C_alpha", 2):
        "12ef0cd5188ac7ca3f5560160b6afc7565668fa09a22a51e9b4bc395693590f3",
    ("C_alpha", 3):
        "b166b01154092c200dfd1f9be05236a57be4814dd67748dc2171aca3fd202bf4",
    ("C_alpha", 4):
        "017bf01a350ffec04b9fd2655c5d666e969d5bc81d7874842e64f34702a3eb9a",
    ("C_alpha", 5):
        "daeff7da1466d4eab09088b9defb080d6932ef490778453a71c88fa96e02fa91",
    ("C_alpha", 6):
        "a5ba3b5482695beb65e7b7395bcad2c2bebc8312d436ed861c90088d3ae865cb",
    ("C_alpha", 7):
        "86865e11e4cc60cf08e0b247aa66786e16e58f43f12ed89853f5e8aa87f46020",
    ("C_alpha", 8):
        "33d34b51b674bc560c93118a732bf036a2557b53f6e3804b45342e619817f6cb",
}


@pytest.mark.parametrize("family,n", sorted(BRAID_MAP_DIGESTS), ids=str)
def test_braid_isomorphism_images_are_pinned(family, n):
    iso = braid_isomorphism(family, n)
    text = "".join(f"{src} -> {img.text(m.target_names)}\n"
                   for m in (iso.fwd, iso.bwd)
                   for src, img in zip(m.source_names, m.images))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == BRAID_MAP_DIGESTS[family, n]
