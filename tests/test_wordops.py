"""Word-kernel behaviour.

The random-input tests compare each kernel function with an independent
reference: expand the flat word into signed unit letters and free-reduce
them with a stack.
"""

import random
from itertools import chain

from growthlab import _purewords as pure
from growthlab.words import Word

from util import reference_pow_word, word_length


def flat_word(pairs):
    """The reduced flat word of (gen, exp) runs, merged by ``Word.of``."""
    return tuple(chain.from_iterable(Word.of(pairs).letters))


def random_word(rng, rank=3, max_runs=6):
    return flat_word((rng.randrange(rank), rng.choice([-3, -2, -1, 1, 2, 3]))
                     for _ in range(rng.randrange(max_runs + 1)))


def assert_reduced(w):
    for i in range(0, len(w), 2):
        assert w[i + 1] != 0
        if i >= 2:
            assert w[i] != w[i - 2]


def letters(w):
    """The flat word as a list of (gen, +1 or -1) unit letters."""
    out = []
    for i in range(0, len(w), 2):
        g, e = w[i], w[i + 1]
        out += [(g, 1 if e > 0 else -1)] * abs(e)
    return out


def inverse_letters(w):
    return [(g, -s) for g, s in reversed(letters(w))]


def reduce_letters(seq):
    """Free-reduce unit letters with a stack and pack them into a flat word."""
    stack = []
    for g, s in seq:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    out = []
    for g, s in stack:
        if out and out[-2] == g:
            out[-1] += s
        else:
            out += [g, s]
    return tuple(out)


def test_concat_matches_reference_on_random_words():
    rng = random.Random(21)
    for _ in range(800):
        a = random_word(rng)
        b = random_word(rng)
        got = pure.concat_reduce(a, b)
        assert got == reduce_letters(letters(a) + letters(b))
        assert_reduced(got)


def long_word(rng, pairs):
    """A reduced word of exactly `pairs` pairs over three generators."""
    out = []
    for _ in range(pairs):
        g = rng.choice([h for h in range(3) if not out or h != out[-2]])
        out += [g, rng.choice([-3, -2, -1, 1, 2, 3])]
    return tuple(out)


def word_after(rng, g, max_runs=4):
    """A random word, empty or starting with a generator other than g."""
    w = random_word(rng, max_runs=max_runs)
    return w if not w or w[0] != g else w[2:]


def inverse(w):
    return reduce_letters(inverse_letters(w))


def cascade_cases(rng):
    """(a, b, a*b) with b = inverse(suffix of a) . w, one per shape:
    full absorption of a, full absorption of b, a partial merge at depth
    >= 3, and a single-pair b."""
    a = long_word(rng, rng.randrange(3, 8))
    n = len(a) // 2
    # a is absorbed: b = a^-1 w, w nonempty
    w = ()
    while not w:
        w = word_after(rng, a[0])
    yield a, inverse(a) + w, w
    # b is absorbed: b = inverse of the last k pairs of a
    k = rng.randrange(1, n)
    yield a, inverse(a[-2 * k:]), a[:-2 * k]
    # k >= 2 pairs cancel whole, then the pair before them merges in part
    k = rng.randrange(2, n)
    g, e = a[-2 * k - 2], a[-2 * k - 1]
    e2 = rng.choice([x for x in (-3, -2, -1, 1, 2, 3) if x != -e])
    tail = word_after(rng, g)
    b = inverse(a[-2 * k:]) + (g, e2) + tail
    yield a, b, a[:-2 * k - 2] + (g, e + e2) + tail
    # a single-pair b on the last generator of a
    e2 = rng.choice((-3, -2, -1, 1, 2, 3, -a[-1]))
    yield a, (a[-2], e2), a[:-2] + ((a[-2], a[-1] + e2) if a[-1] + e2 else ())


def test_concat_matches_reference_on_cascades():
    rng = random.Random(27)
    for _ in range(300):
        for a, b, expected in cascade_cases(rng):
            assert_reduced(b)
            got = pure.concat_reduce(a, b)
            assert got == expected == reduce_letters(letters(a) + letters(b))
            assert_reduced(got)


def test_invert_matches_reference_on_cascades():
    rng = random.Random(28)
    for _ in range(300):
        for a, b, ab in cascade_cases(rng):
            for w in (a, b, ab):
                assert pure.invert_word(w) == reduce_letters(inverse_letters(w))
            assert pure.concat_reduce(ab, pure.invert_word(b)) == a


def test_substitute_matches_reference_on_cascades():
    # generators 0 and 1 map to a and b, so every 0 1 seam cascades
    rng = random.Random(29)
    for _ in range(300):
        for a, b, _ab in cascade_cases(rng):
            images = [a, b, random_word(rng)]
            word = flat_word(
                (rng.randrange(2), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randrange(1, 6)))
            seq = []
            for g, s in letters(word):
                seq += letters(images[g]) if s > 0 else inverse_letters(images[g])
            got = pure.substitute(word, images, [pure.invert_word(w) for w in images])
            assert got == reduce_letters(seq)
            assert_reduced(got)


def test_concat_cancels_inverses_exactly():
    rng = random.Random(22)
    for _ in range(200):
        a = random_word(rng)
        b = random_word(rng)
        assert pure.concat_reduce(a, pure.invert_word(a)) == ()
        ab = pure.concat_reduce(a, b)
        assert pure.concat_reduce(ab, pure.invert_word(b)) == a


def test_invert_matches_reference():
    rng = random.Random(23)
    for _ in range(300):
        a = random_word(rng)
        assert pure.invert_word(a) == reduce_letters(inverse_letters(a))


def test_pow_matches_reference():
    # the unit-letter reference, and the kernel's former loop from the
    # empty word; a**1 is a itself
    rng = random.Random(24)
    for _ in range(150):
        a = random_word(rng, max_runs=4)
        for e in range(-12, 13):
            unit = letters(a) if e > 0 else inverse_letters(a)
            assert pure.pow_word(a, e) == reduce_letters(unit * abs(e))
            assert pure.pow_word(a, e) == reference_pow_word(a, e)
        assert pure.pow_word(a, 1) is a


def test_substitute_matches_reference():
    rng = random.Random(25)
    for _ in range(300):
        a = random_word(rng, rank=3)
        images = [random_word(rng, rank=4) for _ in range(3)]
        got = pure.substitute(a, images, [pure.invert_word(w) for w in images])
        seq = []
        for g, s in letters(a):
            seq += letters(images[g]) if s > 0 else inverse_letters(images[g])
        assert got == reduce_letters(seq)
        assert_reduced(got)


def test_substitute_can_collapse_everything():
    a = (0, 1, 1, 1)
    images = [(2, 1), (2, -1)]
    assert pure.substitute(a, images, [pure.invert_word(w) for w in images]) == ()


def test_word_length_matches_reference():
    rng = random.Random(26)
    for _ in range(300):
        a = random_word(rng)
        assert word_length(a) == len(letters(a))


def test_big_exponents_flow_through():
    # exponents far beyond machine-word range must not truncate anywhere
    big = 2 ** 80
    a = (0, big)
    assert pure.concat_reduce(a, a) == (0, 2 * big)
    assert pure.pow_word((0, 1), big) == (0, big)
    assert word_length(a) == big
    assert pure.free_key_payload(a) == b"1:%d" % big
