from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from coverext.words import Word, format_word, parse_word

from oracles import free_reduce, power_iterated, substitute_iterated

ALPHABET = ("a", "b", "c")

letters = st.tuples(st.sampled_from(ALPHABET), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=12).map(
    lambda ls: Word(tuple((n, s) for n, s in ls))
)


def test_identity_and_gen():
    e = Word.identity()
    assert e.is_identity()
    assert e.length() == 0
    assert format_word(e) == ""
    g = Word.gen("a", 3)
    assert list(g.letters()) == [("a", 1)] * 3
    assert Word.gen("a", 0).is_identity()


@given(st.lists(letters, max_size=20))
def test_normalization_matches_stack_reduction(ls):
    w = Word(tuple(ls))
    assert list(w.letters()) == free_reduce(ls)


@given(words, words, words)
def test_associative(u, v, t):
    assert (u * v) * t == u * (v * t)


@given(words)
def test_inverse_cancels(w):
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


@given(words, words)
def test_inverse_antihomomorphism(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()


@given(words)
def test_powers(w):
    assert w**0 == Word.identity()
    assert w**3 == w * w * w
    assert w**-2 == w.inverse() * w.inverse()


@given(words)
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w)) == w


@given(words, words)
def test_substitute_is_homomorphism(u, v):
    mapping = {
        "a": parse_word("x y"),
        "b": parse_word("y^-1"),
        "c": parse_word("x^2 y x^-1"),
    }
    assert (u * v).substitute(mapping) == u.substitute(mapping) * v.substitute(mapping)


def test_parse_examples():
    w = parse_word("alpha1 alpha2^-1 alpha1^2")
    assert list(w.letters()) == [
        ("alpha1", 1),
        ("alpha2", -1),
        ("alpha1", 1),
        ("alpha1", 1),
    ]
    assert parse_word("a^0 b") == parse_word("b")
    assert parse_word("") == Word.identity()
    assert parse_word("  a   b  ") == parse_word("a b")


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_word("a^")
    with pytest.raises(ValueError):
        parse_word("1a")
    with pytest.raises(ValueError):
        parse_word("a b", alphabet=("a",))


def test_generators_listing():
    w = parse_word("b a b^-1")
    assert set(w.generators()) == {"a", "b"}


images = st.lists(st.tuples(st.sampled_from(("x", "y")), st.integers(-2, 2)), max_size=5).map(
    lambda ls: Word(tuple(ls))
)


@given(words, st.fixed_dictionaries({g: images for g in ALPHABET}))
def test_substitute_matches_iterated_products(w, mapping):
    assert w.substitute(mapping) == substitute_iterated(w, mapping)


@given(words, st.integers(-6, 6))
def test_power_matches_iterated_products(w, k):
    assert w**k == power_iterated(w, k)


def test_list_syllables_become_tuples():
    w = Word([["a", 1], ["b", -1], ["b", 3]])
    assert w == parse_word("a b^2")
    assert all(type(syl) is tuple for syl in w.syllables)
    assert hash(w) == hash(parse_word("a b^2"))
