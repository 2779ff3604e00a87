"""Shared builders for the test suite: engines under test and seeded
random words/elements."""

from growthlab.engines import (
    AbelianEngine,
    BS1Engine,
    FreeEngine,
    KleinEngine,
    SemidirectEngine,
)
from growthlab.words import Word

TORUS_AUTO = ({"x": "y", "y": "x y"}, {"x": "y x^-1", "y": "x"})
ROT4_AUTO = ({"e1": "e2", "e2": "e1^-1"}, {"e1": "e2^-1", "e2": "e1"})
FIB_AUTO = ({"e1": "e1^2 e2", "e2": "e1 e2"},
            {"e1": "e1 e2^-1", "e2": "e1^-1 e2^2"})


def torus_engine():
    return SemidirectEngine(FreeEngine(2), *TORUS_AUTO)


def rot4_engine():
    return SemidirectEngine(AbelianEngine(2), *ROT4_AUTO)


def fib_engine():
    return SemidirectEngine(AbelianEngine(2), *FIB_AUTO)


def nested_bs1_engine():
    """Extension of bs1 (m = 2) by the involution a -> a^-1, t -> a t."""
    flip = {"a": "a^-1", "t": "a t"}
    return SemidirectEngine(BS1Engine(2), flip, flip)


def nested_torus_engine():
    """Extension of the torus group by conjugation with x."""
    return SemidirectEngine(
        torus_engine(),
        {"t": "x t x^-1", "x": "x", "y": "x y x^-1"},
        {"t": "x^-1 t x", "x": "x", "y": "x^-1 y x"})


def family_engines():
    """One engine per family plus split-extension variants."""
    return [
        FreeEngine(2),
        FreeEngine(3),
        AbelianEngine(1),
        AbelianEngine(3),
        KleinEngine(),
        BS1Engine(2),
        BS1Engine(-3),
        torus_engine(),
        rot4_engine(),
        fib_engine(),
    ]


def bs1_normal_form(m, num, e, shift):
    """The BS(1, m) element num / m^e at shift, in normal form: e >= 0,
    and e = 0 or m does not divide num."""
    if num == 0:
        return (0, 0, shift)
    if e < 0:
        num *= m ** (-e)
        e = 0
    while e > 0 and num % m == 0:
        num //= m
        e -= 1
    return (num, e, shift)


def bs1_multiply_reference(m, a, b):
    """BS(1, m) product by the general formula: bring both numerators to
    the exponent max(e1, e2 - s1, 0), add them and normalise."""
    n1, e1, s1 = a
    n2, e2, s2 = b
    d1, d2 = e1, e2 - s1
    ee = max(d1, d2, 0)
    num = n1 * m ** (ee - d1) + n2 * m ** (ee - d2)
    return bs1_normal_form(m, num, ee, s1 + s2)


def reference_balls(engine, gens, radius):
    """Reference BFS for the tests, independent of `ball_sizes`: yields
    the set of elements of the ball of each radius 0..radius (one set,
    grown in place), keyed by element equality and multiplied with
    `engine.multiply` only.  Stop iterating to stop the search."""
    alphabet = []
    for g in gens:
        for el in (g, engine.invert(g)):
            if el != engine.identity and el not in alphabet:
                alphabet.append(el)
    seen = {engine.identity}
    frontier = [engine.identity]
    yield seen
    for _ in range(radius):
        nxt = []
        for el in frontier:
            for a in alphabet:
                prod = engine.multiply(el, a)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        yield seen


def random_word(rng, names, max_len=5):
    pairs = []
    for _ in range(rng.randrange(max_len + 1)):
        name = rng.choice(names)
        exp = rng.choice([-3, -2, -1, 1, 2, 3])
        pairs.append((name, exp))
    return Word.of(pairs)


def random_element(rng, engine, max_len=5):
    return engine.evaluate_word(random_word(rng, list(engine.gen_names), max_len))


def insert_trivial_pair(rng, word, names):
    """The same group element spelled with a g g^-1 stutter inserted."""
    pairs = list(word.letters)
    name = rng.choice(names)
    exp = rng.choice([-2, -1, 1, 2])
    pos = rng.randrange(len(pairs) + 1)
    noisy = pairs[:pos] + [(name, exp), (name, -exp)] + pairs[pos:]
    return Word.of(noisy)
