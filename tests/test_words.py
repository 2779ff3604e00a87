import random

import pytest

from growthlab.words import Word, WordSyntaxError

from util import word_inverse, word_names, word_rename


def test_parse_and_str_round_trip():
    w = Word.parse("x^2 y^-1 x")
    assert str(w) == "x^2 y^-1 x"
    assert Word.parse(str(w)) == w
    # a value type, not a tuple: equal words hash equal, a word never
    # equals its letter tuple, and the repr names the field
    assert hash(Word.parse(str(w))) == hash(w)
    assert len({w, Word.parse("x^2 y^-1 x")}) == 1
    assert Word.parse("x") != (("x", 1),)
    assert repr(Word.parse("x")) == "Word(letters=(('x', 1),))"


def test_parse_merges_adjacent_runs():
    assert Word.parse("x x") == Word.parse("x^2")
    assert Word.parse("x x^-1 y") == Word.parse("y")
    assert Word.parse("x^3 x^-3") == Word()


def test_identity_prints_as_marker():
    assert str(Word()) == "<identity>"


def test_parse_rejects_bad_letters():
    with pytest.raises(WordSyntaxError):
        Word.parse("x^0")
    with pytest.raises(WordSyntaxError):
        Word.parse("2x")
    with pytest.raises(WordSyntaxError):
        Word.parse("x^")


def test_of_drops_zero_exponents():
    assert Word.of([("x", 2), ("y", 0), ("x", -2)]) == Word()


def test_inverse_and_product():
    w = Word.parse("x y^-2")
    assert w * word_inverse(w) == Word()
    assert word_inverse(word_inverse(w)) == w
    x, y = Word.parse("x"), Word.parse("y")
    assert str(x * y * word_inverse(x) * word_inverse(y)) == "x y x^-1 y^-1"
    assert x * x * word_inverse(x) * word_inverse(x) == Word()
    assert str(y * x * word_inverse(y)) == "y x y^-1"


def test_concat_is_associative_on_random_words():
    rng = random.Random(11)
    names = ["x", "y", "z"]
    for _ in range(300):
        ws = []
        for _ in range(3):
            pairs = [(rng.choice(names), rng.choice([-2, -1, 1, 2]))
                     for _ in range(rng.randrange(5))]
            ws.append(Word.of(pairs))
        a, b, c = ws
        assert (a * b) * c == a * (b * c)


def test_rename_and_names():
    w = Word.parse("x y x^-1")
    assert word_names(w) == {"x", "y"}
    assert str(word_rename(w, {"x": "a"})) == "a y a^-1"
