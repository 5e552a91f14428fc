"""Free-group words: reduction, confluence, cyclic operations."""

from hypothesis import given, settings, strategies as st

from crysref.words import Word, free_reduce, parse_word

letters = st.tuples(st.integers(min_value=0, max_value=4),
                    st.sampled_from([-1, 1]))
letter_lists = st.lists(letters, max_size=30)
words = st.builds(Word, letter_lists)

NAMES = ("s1", "s2", "s3", "s4", "s5")


@settings(max_examples=1000, deadline=None)
@given(letter_lists)
def test_free_reduction_confluence(ls):
    # reducing is idempotent and splitting at any point then rejoining
    # reaches the same normal form
    once = free_reduce(ls)
    assert free_reduce(once) == once
    for cut in range(0, len(ls) + 1, max(1, len(ls) // 3)):
        left, right = free_reduce(ls[:cut]), free_reduce(ls[cut:])
        assert free_reduce(left + right) == once


@settings(max_examples=500, deadline=None)
@given(words, words)
def test_group_laws(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert (u * u.inverse()) == Word()
    assert u * Word() == u


@settings(max_examples=500, deadline=None)
@given(words, st.integers(min_value=-3, max_value=3))
def test_powers(u, k):
    expected = Word()
    base = u if k >= 0 else u.inverse()
    for _ in range(abs(k)):
        expected = expected * base
    assert u ** k == expected


@settings(max_examples=500, deadline=None)
@given(words, st.integers(min_value=0, max_value=10))
def test_cyclic_normal_form_shift_invariant(u, k):
    k %= len(u) or 1
    shifted = Word(u.letters[k:] + u.letters[:k])
    assert shifted.cyclic_normal_form() == u.cyclic_normal_form()


@settings(max_examples=500, deadline=None)
@given(words)
def test_text_round_trip(u):
    assert parse_word(u.text(NAMES), NAMES) == u


def test_parse_word_explicit():
    w = parse_word("s1 s2^-1 s1", NAMES)
    assert w.letters == ((0, 1), (1, -1), (0, 1))
    w2 = parse_word("", NAMES)
    assert w2 == Word()


def test_exponent_sums():
    w = parse_word("s1 s2 s1 s3^-1", NAMES)
    assert w.exponent_sums(5) == [2, 1, -1, 0, 0]


def test_conjugate_and_cyclic_reduce():
    u = parse_word("s2", NAMES)
    g = parse_word("s1 s3", NAMES)
    c = g * u * g.inverse()
    assert c == parse_word("s1 s3 s2 s3^-1 s1^-1", NAMES)
    assert c.cyclic_reduce() == u
