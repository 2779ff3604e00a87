"""Word-kernel behaviour.

The random-input tests compare each kernel function with an independent
reference: expand the flat word into signed unit letters and free-reduce
them with a stack.
"""

import random

from growthlab import _purewords as pure


def random_word(rng, rank=3, max_runs=6):
    pairs = [(rng.randrange(rank), rng.choice([-3, -2, -1, 1, 2, 3]))
             for _ in range(rng.randrange(max_runs + 1))]
    return pure.normalize_pairs(pairs)


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
    rng = random.Random(24)
    for _ in range(150):
        a = random_word(rng, max_runs=4)
        for e in (-6, -2, -1, 0, 1, 2, 3, 9):
            unit = letters(a) if e > 0 else inverse_letters(a)
            assert pure.pow_word(a, e) == reduce_letters(unit * abs(e))


def test_substitute_matches_reference():
    rng = random.Random(25)
    for _ in range(300):
        a = random_word(rng, rank=3)
        images = [random_word(rng, rank=4) for _ in range(3)]
        got = pure.substitute(a, images)
        seq = []
        for g, s in letters(a):
            seq += letters(images[g]) if s > 0 else inverse_letters(images[g])
        assert got == reduce_letters(seq)
        assert_reduced(got)


def test_substitute_can_collapse_everything():
    a = (0, 1, 1, 1)
    images = [(2, 1), (2, -1)]
    assert pure.substitute(a, images) == ()


def test_word_length_matches_reference():
    rng = random.Random(26)
    for _ in range(300):
        a = random_word(rng)
        assert pure.word_length(a) == len(letters(a))


def test_big_exponents_flow_through():
    # exponents far beyond machine-word range must not truncate anywhere
    big = 2 ** 80
    a = (0, big)
    assert pure.concat_reduce(a, a) == (0, 2 * big)
    assert pure.pow_word((0, 1), big) == (0, big)
    assert pure.word_length(a) == big
    assert pure.free_key_payload(a) == b"1:%d" % big
