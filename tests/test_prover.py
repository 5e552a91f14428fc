"""Word-problem prover: certificates, replay, hints, obstructions."""

import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import crysref
from crysref.affine import build_generator_matrices, evaluate_word
from crysref.presentations import artinize, build_group_presentation
from crysref.prover import (
    Budget,
    Certificate,
    GeneratorMap,
    ProofStatus,
    check_certificate,
    compose_maps,
    prove_trivial,
    replay,
    resolve_hint,
    symmetrized_relators,
    verify_homomorphism,
)
from crysref.isomorphisms import braid_isomorphism
from crysref.prover import (
    _build_certificate,
    _encode,
    _joins,
    _reduce,
    _relator_chunks,
    _shifted,
)
from crysref.words import Word, free_reduce, parse_word

NAMES = ("a", "b", "c")
# a small dihedral-ish presentation: a^2, b^2, (ab)^3
REL = (
    parse_word("a a", NAMES),
    parse_word("b b", NAMES),
    parse_word("a b a b a b", NAMES),
)


def test_trivial_word_immediately_proved():
    res = prove_trivial(Word(), REL)
    assert res.status is ProofStatus.PROVED
    assert res.certificate.steps == ()


def test_empty_word_shares_one_result():
    assert prove_trivial(Word(), REL) is prove_trivial(Word(), ())


def test_simple_proof_and_replay():
    w = parse_word("a b a b a b a a b b", NAMES)
    res = prove_trivial(w, REL)
    assert res.status is ProofStatus.PROVED
    assert check_certificate(res.certificate, w, REL)
    # the certificate fails against a different word
    assert not check_certificate(res.certificate, parse_word("a b", NAMES), REL)


def test_abelian_obstruction_disproves():
    res = prove_trivial(parse_word("a", NAMES), REL)
    assert res.status is ProofStatus.DISPROVED
    assert res.certificate is None


def test_commutator_not_obstructed_but_unknown_in_free_group():
    # [a, b] has trivial abelianization but is nontrivial with no relators
    res = prove_trivial(parse_word("a b a^-1 b^-1", NAMES), ())
    assert res.status is ProofStatus.UNKNOWN
    assert res.reason == ("search budget exhausted: no moves left within "
                          "max_word_length and max_depth")


def test_unknown_under_tiny_budget():
    w = parse_word("a b a b a b", NAMES) ** 3
    res = prove_trivial(w, REL, Budget(max_word_length=2, max_depth=1,
                                       max_states=5))
    assert res.status is ProofStatus.UNKNOWN


@pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf", "1e308"])
def test_bad_budget_scale_raises_value_error(monkeypatch, value):
    monkeypatch.setenv("CRYSREF_BUDGET_SCALE", value)
    with pytest.raises(ValueError, match="^CRYSREF_BUDGET_SCALE must be"):
        Budget.for_word(parse_word("a a", NAMES))


def test_budget_scale_that_overflows_a_long_word_raises_value_error(monkeypatch):
    # 200,000 * 8e302 is finite, so the scale passes env_budget_scale;
    # the word's length budget (4 * 60,000 + 32) * 8e302 is not
    monkeypatch.setenv("CRYSREF_BUDGET_SCALE", "8e302")
    with pytest.raises(ValueError, match="^CRYSREF_BUDGET_SCALE must be"):
        Budget.for_word(Word([(0, 1)] * 60_000))


def test_certificate_text_round_trip():
    w = parse_word("a b a b a b a a", NAMES)
    res = prove_trivial(w, REL)
    assert res.status is ProofStatus.PROVED
    text = res.certificate.to_text()
    again = Certificate.from_text(text)
    assert again == res.certificate
    assert check_certificate(again, w, REL)


def test_certificate_text_rejects_misnumbered_steps():
    text = "step 0: insert R0@0 at 0\nstep 2: cancel at 0\n"
    with pytest.raises(ValueError, match="expected step 1"):
        Certificate.from_text(text)


def test_replay_rejects_malformed_step():
    cert = Certificate((("insert", 999, 0, 0),))
    with pytest.raises(ValueError):
        replay(cert, parse_word("a a", NAMES), REL)


def test_symmetrized_relators_closure():
    variants = symmetrized_relators(REL)
    # 2 variants per relator (itself + inverse)
    assert len(variants) == 6
    assert variants[0].letters == REL[0].letters
    assert variants[1].letters == REL[0].inverse().letters


def test_resolve_hint_produces_strict_certificate():
    w = parse_word("a b a b a b", NAMES)
    res = resolve_hint(w, REL, [2])
    assert res.status is ProofStatus.PROVED
    assert check_certificate(res.certificate, w, REL)


def test_resolve_hint_bad_index():
    res = resolve_hint(parse_word("a a", NAMES), REL, [17])
    assert res.status is ProofStatus.UNKNOWN


def test_resolve_hint_names_the_relator_that_has_the_shifts():
    # every shift of relator 1 is relator 0's, so its moves are all under
    # index 0: a hint naming 1 finds none and says where they are
    r = parse_word("a b a b", NAMES)
    res = resolve_hint(r, [r, r], [1])
    assert res.status is ProofStatus.UNKNOWN
    assert res.reason == ("hint relator 1 is relator 0 up to shift and "
                          "inversion; its moves are under that index")
    assert resolve_hint(r, [r, r], [0]).status is ProofStatus.PROVED
    # a relator with no letters has no shift at all
    res = resolve_hint(r, [Word(), r], [0])
    assert res.reason == "empty relator in hint"


def test_cyclic_invariance_of_proofs():
    w = parse_word("a b a b a b a a", NAMES)
    base = prove_trivial(w, REL)
    for k in range(1, len(w.letters)):
        shifted = Word(w.letters[k:] + w.letters[:k])
        # the default budget at twice the scale
        res = prove_trivial(shifted, REL,
                            Budget(8 * len(shifted) + 64, 192, 400_000))
        assert res.status is base.status is ProofStatus.PROVED


def test_generator_map_apply_and_compose():
    f = GeneratorMap(("x",), NAMES, (parse_word("a b", NAMES),))
    w = Word.gen(0) * Word.gen(0, -1)
    assert f.apply(Word.gen(0, -1)) == parse_word("b^-1 a^-1", NAMES)
    g = GeneratorMap(NAMES, NAMES, tuple(Word.gen(i) for i in range(3)))
    comp = compose_maps(g, f)
    assert comp.apply(Word.gen(0)) == parse_word("a b", NAMES)


def test_verify_homomorphism_reports_per_relator():
    pres = build_group_presentation("C_alpha", 1)
    ident = GeneratorMap(pres.generator_names, pres.generator_names,
                         tuple(Word.gen(i) for i in range(3)))
    results = verify_homomorphism(ident, pres.relators, pres.relators)
    assert len(results) == len(pres.relators)
    assert all(r.status is ProofStatus.PROVED for r in results)


def test_proved_words_in_artin_group():
    artin = artinize(build_group_presentation("C_alpha", 2))
    # braid relator consequence: s1 s2 s1 s2 (s2 s1 s2 s1)^-1
    w = parse_word("s1 s2 s1 s2 s1^-1 s2^-1 s1^-1 s2^-1", artin.generator_names)
    res = prove_trivial(w, artin.relators)
    assert res.status is ProofStatus.PROVED
    assert check_certificate(res.certificate, w, artin.relators)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(range(6)), max_size=4))
def test_replay_soundness_on_random_relator_products(picks):
    # any product of conjugated relators must be provable and replayable
    variants = symmetrized_relators(REL)
    w = Word()
    for i in picks:
        g = Word.gen(i % 3)
        w = w * g * variants[i] * g.inverse()
    # the default budget at twice the scale
    res = prove_trivial(w, REL, Budget(8 * len(w) + 64, 192, 400_000))
    if res.status is ProofStatus.PROVED:
        assert check_certificate(res.certificate, w, REL)


def _decode(seq):
    """The letter tuple of an ``_encode`` string."""
    return tuple([(ord(c) >> 1, 1 if ord(c) & 1 else -1) for c in seq])


def _insert_and_reduce_full_scan(seq, chunk, pos):
    """Reference for ``_reduce`` on seq with chunk inserted at pos: cancel
    the leftmost inverse pair, rescanning the whole word from index 0."""
    work = list(seq[:pos]) + list(chunk) + list(seq[pos:])
    steps = []
    i = 0
    while i < len(work) - 1:
        a, b = work[i], work[i + 1]
        if a[0] == b[0] and a[1] == -b[1]:
            steps.append(("cancel", i))
            del work[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(work), steps


LETTERS = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))


@settings(max_examples=500, deadline=None)
@given(st.lists(LETTERS, max_size=14), st.lists(LETTERS, max_size=10),
       st.data())
def test_insert_and_reduce_matches_full_scan(raw, chunk, data):
    # the stack reduction must agree with a scan from index 0, word and
    # cancel steps alike, on any seq and chunk (reduced or not) and any
    # position
    seq, chunk = tuple(raw), tuple(chunk)
    pos = data.draw(st.integers(0, len(seq)), label="pos")
    reduced, cancels = _reduce(_encode(seq[:pos] + chunk + seq[pos:]))
    assert (_decode(reduced), cancels) == \
        _insert_and_reduce_full_scan(seq, chunk, pos)


# ---------------------------------------------------------------------
# the string child routine against a tuple reference


def _seam_positions_reference(seq, chunk):
    """Insertion positions as the tuple prover chose them: both ends, and
    every seam where chunk's first or last letter cancels against seq."""
    head, tail = chunk[0], chunk[-1]
    positions = {0, len(seq)}
    for p, (g, e) in enumerate(seq):
        if (g, -e) == tail:
            positions.add(p)
        if (g, -e) == head:
            positions.add(p + 1)
    return sorted(positions)


def _children_reference(seq, variants):
    """(v, s, pos, new) over letter tuples: every distinct cyclic shift,
    first occurrence kept, in (length, letters) order, at every seam
    position, inserted and freely reduced by the full-scan reference."""
    first = {}
    for v, variant in enumerate(variants):
        ls = variant.letters
        for s in range(len(ls)):
            first.setdefault(ls[s:] + ls[:s], (v, s))
    for chunk in sorted(first, key=lambda c: (len(c), c)):
        v, s = first[chunk]
        for pos in _seam_positions_reference(seq, chunk):
            yield v, s, pos, _insert_and_reduce_full_scan(seq, chunk, pos)[0]


RELATORS = st.lists(st.lists(LETTERS, min_size=1, max_size=6).map(Word)
                    .filter(bool), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(LETTERS, max_size=14).map(free_reduce), RELATORS,
       st.integers(0, 24))
@example(seq=free_reduce([(1, 1), (0, -1), (2, 1), (0, 1)]),
         relators=[parse_word("a b a^-1", NAMES)], limit=24)
@example(seq=free_reduce([(0, 1), (1, -1), (0, -1), (1, 1)]),
         relators=[parse_word("a b a^-1 c", NAMES)], limit=24)
def test_joins_match_tuple_reference(seq, relators, limit):
    # relators that are not cyclically reduced (a b a^-1) give chunks that
    # are not freely reduced: their raw ends must still pick the positions;
    # a move longer than limit keeps its size but is not joined
    variants = symmetrized_relators(relators)
    chunks = _relator_chunks(tuple(relators))[1]
    got = list(_joins(_encode(seq), chunks, limit))
    want = list(_children_reference(seq, variants))
    assert [m[:3] for m in got] == [m[:3] for m in want]
    assert [m[3] for m in got] == [len(m[3]) for m in want]
    assert [None if m[4] is None else _decode(m[4]) for m in got] == \
        [m[3] if len(m[3]) <= limit else None for m in want]


# ---------------------------------------------------------------------
# the hint beam bound against a resolver that joins every move


def _shared_relator_reason_reference(relators, r):
    """The reason for a hint step naming relator r when it has no chunk:
    the first earlier relator that has it among its shifts or those of its
    inverse, read off the letters."""
    def shifts(w):
        ls = w.letters
        return {ls[s:] + ls[:s] for s in range(len(ls))}

    for q in range(r):
        if relators[r].letters in shifts(relators[q]) | shifts(relators[q].inverse()):
            return (f"hint relator {r} is relator {q} up to shift and "
                    "inversion; its moves are under that index")
    return "empty relator in hint"


def _resolve_hint_full_join(word, relators, hint):
    """Reference: the hint resolver without the beam bound.  It joins and
    ranks every move of every beam word; returns (status, reason,
    certificate text)."""
    variants, table = _relator_chunks(tuple(relators))
    beam = [_encode(word.letters)]
    history = []
    for r in hint:
        if not 0 <= r < len(relators):
            return ProofStatus.UNKNOWN, f"bad hint index {r}", None
        chunks = [c for c in table if c[0] >> 1 == r]
        candidates = {}
        for seq in beam:
            for v, s, pos, size, new in _joins(seq, chunks, sys.maxsize):
                key = (size, v, s, pos)
                prev = candidates.get(new)
                if prev is None or key < prev[4]:
                    candidates[new] = (seq, v, s, pos, key)
        if not candidates:
            return (ProofStatus.UNKNOWN,
                    _shared_relator_reason_reference(relators, r), None)
        beam = sorted(candidates, key=lambda w: (candidates[w][4], w))[:8]
        history.append({w: candidates[w] for w in beam})
    if "" in beam:
        cert = _build_certificate(reversed(history), "", variants)
        return ProofStatus.PROVED, "", cert.to_text()
    return ProofStatus.UNKNOWN, "hint did not reach the empty word", None


@st.composite
def hinted_words(draw):
    """A relator set with duplicates (a copy, maybe shifted or inverted,
    of a drawn relator), a product of conjugated relators and its hint,
    or else a random hint, out-of-range indices included."""
    relators = draw(RELATORS)
    for _ in range(draw(st.integers(0, 2))):
        copy = Word(_shifted(draw(st.sampled_from(relators)), draw(st.integers(0, 5))))
        if draw(st.booleans()):
            copy = copy.inverse()
        relators.insert(draw(st.integers(0, len(relators))), copy)
    variants = symmetrized_relators(relators)
    word, hint = Word(), []
    for u, i in draw(st.lists(st.tuples(st.lists(LETTERS, max_size=4),
                                        st.integers(0, 9)), min_size=1, max_size=6)):
        u, i = Word(u), i % len(variants)
        word = word * u * variants[i] * u.inverse()
        hint.append(i >> 1)
    if draw(st.booleans()):
        hint = draw(st.lists(st.integers(-1, len(relators)), max_size=5))
    return relators, word, hint


@settings(max_examples=500, deadline=None)
@given(hinted_words())
def test_bounded_beam_matches_full_join(case):
    relators, word, hint = case
    res = resolve_hint(word, relators, hint)
    text = res.certificate.to_text() if res.certificate else None
    assert (res.status, res.reason, text) == \
        _resolve_hint_full_join(word, relators, hint)


# ---------------------------------------------------------------------
# certificate text and replay on arbitrary input

# step numbers and operands: small ints, any non-negative int, or any run
# of Unicode decimal digits (which ``\d`` and ``int`` both accept)
NUMERALS = st.one_of(st.integers(0, 12).map(str), st.integers(0).map(str),
                     st.from_regex(r"\d{1,6}", fullmatch=True))


@st.composite
def certificate_texts(draw):
    """Certificate-like text: mostly well-formed lines, numbered in order
    or not, padded or not, mixed with blank and arbitrary lines."""
    lines = []
    for k in range(draw(st.integers(0, 6))):
        num = draw(st.one_of(st.just(str(k)), NUMERALS))
        line = draw(st.one_of(
            st.builds(f"step {num}: insert R{{}}@{{}} at {{}}".format,
                      NUMERALS, NUMERALS, NUMERALS),
            st.builds(f"step {num}: cancel at {{}}".format, NUMERALS),
            st.sampled_from(["", "   ", f"step {num}: cancel at -1",
                             f"step {num}: insert R1 at 0"]),
            st.text(max_size=24),
        ))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line)
    sep = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    return sep.join(lines) + draw(st.sampled_from(["", "\n"]))


INTS = st.one_of(st.integers(-3, 12), st.integers())
STEPS = st.one_of(st.tuples(st.just("insert"), INTS, INTS, INTS),
                  st.tuples(st.just("cancel"), INTS))


@settings(max_examples=500, deadline=None)
@given(certificate_texts(), st.lists(LETTERS, max_size=8).map(Word))
def test_certificate_text_parses_or_raises_value_error(text, word):
    try:
        cert = Certificate.from_text(text)
    except ValueError:
        return
    assert Certificate.from_text(cert.to_text()) == cert
    assert check_certificate(cert, word, REL) in (True, False)


@settings(max_examples=500, deadline=None)
@given(st.lists(STEPS, max_size=8).map(tuple),
       st.lists(LETTERS, max_size=8).map(Word), st.one_of(st.just(REL), RELATORS))
def test_check_certificate_never_raises(steps, word, relators):
    assert check_certificate(Certificate(steps), word, relators) in (True, False)


# ---------------------------------------------------------------------
# the search sees the relators only up to order and inversion


def _reordered(relators):
    """The relators reversed, every other one inverted."""
    return [r if i % 2 else r.inverse() for i, r in enumerate(reversed(relators))]


def _inserted_letters(res, relators):
    """The status and steps of a proof, each insert naming the letters it
    splices in rather than its ``Rv@s`` label."""
    variants = symmetrized_relators(relators)
    steps = res.certificate.steps if res.certificate else ()
    return res.status, res.reason, [
        ("insert", _shifted(variants[step[1]], step[2]), step[3])
        if step[0] == "insert" else step for step in steps]


def test_search_ignores_relator_order_and_orientation():
    iso = braid_isomorphism("C_alpha", 3)
    relators = iso.artin.relators
    other = _reordered(relators)
    for r in iso.braid.relators:
        word = iso.fwd.apply(r)
        res, alt = prove_trivial(word, relators), prove_trivial(word, other)
        assert res.status is ProofStatus.PROVED
        assert check_certificate(alt.certificate, word, other)
        assert _inserted_letters(res, relators) == _inserted_letters(alt, other)


@settings(max_examples=100, deadline=None)
@given(RELATORS, st.lists(st.tuples(st.lists(LETTERS, max_size=3),
                                    st.integers(0, 5)), min_size=1, max_size=3))
def test_search_ignores_relator_order_on_random_sets(relators, conjugates):
    variants = symmetrized_relators(relators)
    word = Word()
    for u, i in conjugates:
        u = Word(u)
        word = word * u * variants[i % len(variants)] * u.inverse()
    other = _reordered(relators)
    budget = Budget(16, 12, 300)
    assert _inserted_letters(prove_trivial(word, relators, budget), relators) \
        == _inserted_letters(prove_trivial(word, other, budget), other)


WIDE_LETTERS = st.tuples(st.integers(0, 300), st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(WIDE_LETTERS, max_size=6).map(tuple), max_size=8))
def test_encoding_preserves_letter_order(words):
    # generator indices past 127 included: states are str, not bytes
    encoded = [_encode(w) for w in words]
    assert [_decode(x) for x in encoded] == words
    assert [_decode(x) for x in sorted(encoded)] == sorted(words)


def test_generators_past_127_are_proved_and_replay():
    artin = artinize(build_group_presentation("A_alpha", 200))
    # (s150 s151)^3 = (s151 s150)^3, from the one braid relator of the pair;
    # the other relators are left out to keep the abelian check small
    w = parse_word("s150 s151 s150 s151 s150 s151 "
                   "s150^-1 s151^-1 s150^-1 s151^-1 s150^-1 s151^-1",
                   artin.generator_names)
    rels = [r for r in artin.relators if {g for g, _ in r.letters} <= {149, 150}]
    assert [r.text(artin.generator_names) for r in rels] == \
        ["s150 s151 s150 s151^-1 s150^-1 s151^-1"]
    for res in (prove_trivial(w, rels), resolve_hint(w, rels, [0, 0])):
        assert res.status is ProofStatus.PROVED
        assert check_certificate(res.certificate, w, rels)


@pytest.mark.parametrize("budget,reason", [
    (Budget(max_word_length=6, max_depth=20, max_states=5),
     "popped more than 5 states (max_states)"),
    (Budget(max_word_length=4, max_depth=20, max_states=5),
     "no moves left within max_word_length and max_depth"),
])
def test_unknown_names_the_limit_hit(budget, reason):
    # s1 and s2 do not commute in the C2 Artin group, so only a limit ends
    # the search
    artin = artinize(build_group_presentation("C_alpha", 2))
    w = parse_word("s1 s2 s1^-1 s2^-1", artin.generator_names)
    res = prove_trivial(w, artin.relators, budget)
    assert res.status is ProofStatus.UNKNOWN
    assert res.reason == f"search budget exhausted: {reason}"


@pytest.mark.parametrize("family,n", [("A_alpha", 3), ("C_alpha", 2), ("G311", 3),
                                      ("G411", 3), ("G611", 3)], ids=str)
def test_proved_words_are_identity_matrices(family, n):
    # soundness oracle: every Proved certificate replays, and its word is
    # the identity under the affine matrix model of the group
    pres = build_group_presentation(family, n)
    _, gens = build_generator_matrices(family, n)
    letters = st.lists(
        st.tuples(st.integers(0, pres.num_generators - 1), st.sampled_from((1, -1))),
        max_size=4,
    ).map(Word)
    conjugate = st.builds(
        lambda u, r, e: u * (r if e == 1 else r.inverse()) * u.inverse(),
        letters, st.sampled_from(pres.relators), st.sampled_from((1, -1)),
    )
    products = st.lists(conjugate, min_size=1, max_size=3).map(
        lambda ws: Word([x for w in ws for x in w.letters]))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(products, letters))
    def inner(w):
        res = prove_trivial(w, pres.relators, Budget(32, 16, 500))
        if res.status is ProofStatus.PROVED:
            assert check_certificate(res.certificate, w, pres.relators)
            assert evaluate_word(w, gens).is_identity()

    inner()


# proves the forward image of A_alpha 4 braid relator 9, the deepest search
# of the braid theorem, under an address-space limit; prints its status and
# whether its certificate replays
_A4_DEEPEST_PROOF = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))
from crysref.isomorphisms import braid_isomorphism
from crysref.prover import check_certificate, prove_trivial
iso = braid_isomorphism("A_alpha", 4)
word = iso.fwd.apply(iso.braid.relators[9])
res = prove_trivial(word, iso.artin.relators)
print(res.status.value, res.certificate is not None
      and check_certificate(res.certificate, word, iso.artin.relators))
"""


def test_deepest_a4_proof_fits_in_300_mb():
    # a search that stored every child of each popped state needs about
    # 1.9M states here, far beyond the limit
    src = os.path.dirname(os.path.dirname(crysref.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _A4_DEEPEST_PROOF],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "proved True\n"
