import random
from collections import Counter

import pytest

from growthlab.words import Word, WordSyntaxError

from util import OVER_LONG, reference_parse, word_inverse, word_names, word_rename


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


@pytest.mark.parametrize("text, message", [
    (f"x^{OVER_LONG}", "exponent of 'x' is too long"),
    (f"y x^-{OVER_LONG}", "exponent of 'x' is too long"),
    # the first bad token still wins, on either side
    (f"x^{OVER_LONG} y^0", "exponent of 'x' is too long"),
    (f"y^0 x^{OVER_LONG}", "zero exponent in 'y^0'"),
])
def test_over_long_exponent_is_a_syntax_error(text, message):
    # int() refuses the digits with a plain ValueError; the parser names
    # the letter and does not echo the digits
    for _ in range(2):
        with pytest.raises(WordSyntaxError) as info:
            Word.parse(text)
        assert str(info.value) == message


def _outcome(parse, text):
    """The parsed word, or the syntax error's type and message."""
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [
    # Unicode decimal digits, leading zeros and a signed zero exponent
    "x^\u0661", "x^-\u0663\u0660", "x^-007", "x^007 y^-0", "x^-0",
    # keywords are names; a non-ASCII name and misplaced carets are not
    "if", "if^2 else^-1 None", "\u00e9", "x\u00e9^2", "x^", "^2", "2x",
    "x^+2", "x^^2", "x^2^3", "x^1.5",
    # tabs, newlines and other whitespace separate tokens
    "x\ty\nz^-1", "\t x \n\n y^2 \r\n", "x\u00a0y", "", " \t\n",
    # the first bad token wins: a zero exponent before a bad letter, and
    # a bad letter before a zero exponent
    "x^0 2x", "y x^0 x^", "2x x^0", "x x^-1 y^0",
    "x x^-1", "x^3 x^-3 y", "x_1^3 _y^-2 A9",
])
def test_parse_matches_reference_loop(text):
    want = _outcome(reference_parse, text)
    # twice: the letter memo keeps values, never a raised error
    assert _outcome(Word.parse, text) == want
    assert _outcome(Word.parse, text) == want


def test_first_bad_token_wins():
    with pytest.raises(WordSyntaxError, match=r"^zero exponent in 'x\^0'$"):
        Word.parse("x^0 2x")
    with pytest.raises(WordSyntaxError, match=r"^bad letter '2x'$"):
        Word.parse("2x x^0")


def test_parse_matches_reference_on_seeded_corpus():
    rng = random.Random(24)
    names = ["x", "y", "t", "t1", "e2", "_a", "if", "A9"]
    exps = ["", "", "^1", "^-1", "^2", "^-12", "^0", "^-0", "^007",
            "^\u0662", "^", "^+3"]
    bad = ["2x", "^2", "\u00e9", "x^^2", "x-1", "x^2^2"]
    seps = [" ", " ", "  ", "\t", "\n", " \t ", "\u00a0"]
    kinds = Counter()
    for _ in range(3000):
        toks = [rng.choice(bad) if rng.random() < 0.03
                else rng.choice(names) + rng.choice(exps)
                for _ in range(rng.randrange(7))]
        text = "".join(tok + rng.choice(seps) for tok in toks)
        want = _outcome(reference_parse, text)
        assert _outcome(Word.parse, text) == want, repr(text)
        kinds[want[1].split()[0] if isinstance(want, tuple) else "word"] += 1
    # the corpus reaches both errors and plenty of words
    assert kinds["bad"] > 100 and kinds["zero"] > 100 and kinds["word"] > 1000


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
