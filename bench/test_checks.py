"""Each independent check accepts a correct output and rejects a broken
one.  Run with ``python -m pytest bench`` from the repository root."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
from crysref.affine import enumerate_reflection_classes  # noqa: E402
from crysref.hecke import (  # noqa: E402
    gdaha_check, gdaha_family_data, triple_dot_generator, triple_dot_report,
)
from crysref.isomorphisms import braid_isomorphism  # noqa: E402
from crysref.presentations import abelianize, build_group_presentation  # noqa: E402
from crysref.prover import (  # noqa: E402
    Certificate, ProofResult, ProofStatus, verify_isomorphism_pair,
)
from crysref.words import Word  # noqa: E402


@pytest.fixture(scope="module")
def c2():
    iso = braid_isomorphism("C_alpha", 2)
    rep = verify_isomorphism_pair(iso.fwd, iso.bwd, iso.braid.relators,
                                  iso.artin.relators)
    return iso, rep


def _tamper(result, step_index, new_step):
    steps = list(result.certificate.steps)
    steps[step_index] = new_step
    return ProofResult(result.status, Certificate(tuple(steps)))


def test_braid_pair_accepts_the_real_report(c2):
    iso, rep = c2
    assert checks.braid_pair(rep, iso, "C_alpha", 2, checks.MatrixModel()) == []


def test_replayer_rejects_a_tampered_step(c2):
    iso, rep = c2
    i, res = next((i, r) for i, r in enumerate(rep["fwd_relators"])
                  if r.certificate.steps)
    kind = res.certificate.steps[0]
    bad = ("cancel", 0) if kind[0] == "insert" else ("insert", 0, 0, 0)
    broken = dict(rep, fwd_relators=list(rep["fwd_relators"]))
    broken["fwd_relators"][i] = _tamper(res, 0, bad)
    problems = checks.braid_pair(broken, iso, "C_alpha", 2,
                                 checks.MatrixModel())
    assert any("does not replay" in p for p in problems)


def test_replayer_rules():
    rel = ((0, 1), (1, 1), (0, -1), (1, -1))   # [a, b]
    word = rel
    # insert the inverse relator, then cancel everything
    steps = [("insert", 1, 0, 4)] + [("cancel", 3 - k) for k in range(4)]
    assert checks.replays_to_empty(steps, word, [rel])
    assert not checks.replays_to_empty(steps[:-1], word, [rel])
    assert not checks.replays_to_empty([("insert", 2, 0, 0)] + steps[1:],
                                       word, [rel])   # no relator 1
    assert not checks.replays_to_empty([("insert", 1, 4, 4)] + steps[1:],
                                       word, [rel])   # shift out of range
    assert not checks.replays_to_empty([("cancel", 0)], word, [rel])
    assert not checks.replays_to_empty([("reduce",)], (), [rel])


def test_unknown_verdict_is_rejected(c2):
    iso, rep = c2
    broken = dict(rep, bwd_relators=list(rep["bwd_relators"]))
    broken["bwd_relators"][0] = ProofResult(ProofStatus.UNKNOWN)
    problems = checks.braid_pair(broken, iso, "C_alpha", 2,
                                 checks.MatrixModel())
    assert any("UNKNOWN" in p for p in problems)


def test_matrix_model_rejects_a_nontrivial_word():
    model = checks.MatrixModel()
    assert model.is_identity("C_alpha", 2, ())
    assert model.is_identity("C_alpha", 2, ((0, 1), (0, -1)))
    assert not model.is_identity("C_alpha", 2, ((0, 1), (1, 1)))


def test_matrix_check_rejects_a_proof_of_a_nontrivial_word():
    # a certificate that does replay, but for the wrong presentation:
    # s1 s2 s1^-1 s2^-1 is not trivial in Artin(C_alpha 2)
    word = ((0, 1), (1, 1), (0, -1), (1, -1))
    steps = (("insert", 1, 0, 4),) + tuple(("cancel", 3 - k) for k in range(4))
    res = ProofResult(ProofStatus.PROVED, Certificate(steps))
    problems = checks.proofs([res], [word], [word], "fake",
                             checks.MatrixModel(), ("C_alpha", 2))
    assert problems == ["fake[0]: word is not the identity matrix"]


def test_class_check():
    out = enumerate_reflection_classes("C_alpha", 2, bound=2)
    assert checks.classes(out, "C_alpha", 2, 2, 5) == []
    assert checks.classes(out, "C_alpha", 2, 2, 4)   # wrong count
    assert checks.classes(out[1:], "C_alpha", 2, 2, 4)   # window sum short


def test_abelianization_check():
    pres = build_group_presentation("G411", 2)
    divisors = abelianize(pres)
    assert checks.abelianization(divisors, pres, "G411 2") == []
    assert checks.abelianization(divisors[:-1], pres, "G411 2")
    assert checks.abelianization([2, 2, 8], pres, "G411 2")


def test_triple_dot_check():
    rep = triple_dot_report(4)
    x = triple_dot_generator(4)
    assert checks.triple_dot(rep, 4, x, checks.MatrixModel()) == []
    results = dict(rep["results"])
    name = next(iter(results))
    results[name] = ProofResult(ProofStatus.PROVED, Certificate(()))
    assert checks.triple_dot(dict(rep, results=results), 4, x,
                             checks.MatrixModel())


def test_gdaha_check():
    rep = gdaha_check("C_alpha", 2)
    data = gdaha_family_data("C_alpha", 2)
    assert checks.gdaha(rep, "C_alpha", 2, data, checks.MatrixModel()) == []
    failing = dict(rep, checks=dict(rep["checks"]))
    failing["checks"]["charpoly"] = dict(rep["checks"]["charpoly"], **{"pass": False})
    assert checks.gdaha(failing, "C_alpha", 2, data, checks.MatrixModel())


def test_apply_map_reduces():
    images = [((1, 1),), ((1, -1),)]
    assert checks.apply_map(images, ((0, 1), (1, 1))) == ()
    assert checks.reduce_freely(Word.gen(0).letters + ((0, -1),)) == ()
