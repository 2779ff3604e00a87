"""The paper's claim is uniform over every finite generating set, so this
sweep runs ``analyze(·, 3.0, 2)`` on every two-element set of distinct
reduced words of length <= 2 on each seeded engine, and pins what it
answers: the histogram of variants and the least certified bound."""

from collections import Counter
from itertools import combinations

import pytest

from growthlab.witness import analyze
from growthlab.words import Word

from test_witness import SEEDED_BUILDERS


def short_words(names, max_length):
    """The nonempty reduced words of length <= max_length over the
    generators ``names``, by length, then letter by letter in the order
    of ``names`` with each generator before its inverse."""
    letters = [(g, e) for g in names for e in (1, -1)]
    level = [[letter] for letter in letters]
    words = list(level)
    for _ in range(max_length - 1):
        level = [w + [(g, e)] for w in level for g, e in letters if w[-1] != (g, -e)]
        words += level
    return [Word.of(w) for w in words]


# per engine: the variant histogram over its two-word sets (630 on three
# generators, 2,016 on four) and the least bound, as (hypothesis,
# max_A_length), or None where no set is certified to grow.  The
# suspect host's NonCyclicPair row certifies pairs of a virtually
# abelian kernel on trust (CHANGES.md FOUND 59), so certifying only on a
# proven hypothesis on K (ROADMAP item 2) will move it
SWEEP = {
    "torus_engine": (
        {"NonCyclicPair": 592, "VirtuallyNilpotentDiagnosis": 38}, (3.0, 6)),
    "unipotent_free_engine": (
        {"NonCyclicPair": 378, "PeriodicConjugacy": 118,
         "VirtuallyNilpotentDiagnosis": 134}, (3.0, 6)),
    "flip_free_engine": (
        {"NonCyclicPair": 160, "PeriodicConjugacy": 360,
         "VirtuallyNilpotentDiagnosis": 110}, (3.0, 4)),
    "nested_torus_engine": (
        {"NonCyclicPair": 1624, "VirtuallyNilpotentDiagnosis": 392}, (3.0, 6)),
    "nested_identity_engine": (
        {"KernelChainEscape": 176, "NonCyclicPair": 664, "PeriodicConjugacy": 552,
         "VirtuallyNilpotentDiagnosis": 624}, (2.0, 16)),
    "suspect_host_engine": (
        {"NonCyclicPair": 544, "PeriodicConjugacy": 544,
         "VirtuallyNilpotentDiagnosis": 928}, (3.0, 4)),
    "rot4_engine": (
        {"PeriodicConjugacy": 480, "VirtuallyNilpotentDiagnosis": 150}, None),
    "shear_engine": (
        {"PeriodicConjugacy": 352, "VirtuallyNilpotentDiagnosis": 278}, None),
    "fib_engine": (
        {"SpectralExponential": 496, "VirtuallyNilpotentDiagnosis": 134}, (2.0, 5)),
    "slow_fib_engine": (
        {"SpectralExponential": 488, "VirtuallyNilpotentDiagnosis": 142}, (2.0, 6)),
    "klein_base_engine": (
        {"Inconclusive": 312, "VirtuallyNilpotentDiagnosis": 318}, None),
    "bs1_flip_engine": (
        {"Inconclusive": 448, "VirtuallyNilpotentDiagnosis": 182}, None),
}


def test_short_words():
    # x, x^-1, y, y^-1, then the twelve reduced words of length two
    words = [str(w) for w in short_words(("x", "y"), 2)]
    assert words == [
        "x", "x^-1", "y", "y^-1",
        "x^2", "x y", "x y^-1", "x^-2", "x^-1 y", "x^-1 y^-1",
        "y x", "y x^-1", "y^2", "y^-1 x", "y^-1 x^-1", "y^-2"]


def test_sweep_covers_the_seeded_engines():
    assert list(SWEEP) == [build.__name__ for build in SEEDED_BUILDERS]


@pytest.mark.parametrize("build", SEEDED_BUILDERS, ids=lambda b: b.__name__)
def test_two_word_sets(build):
    eng = build()
    histogram, least = SWEEP[build.__name__]
    variants = Counter()
    bounds = []
    for pair in combinations(short_words(eng.gen_names, 2), 2):
        cert = analyze(eng, list(pair), 3.0, 2)
        variants[cert.variant] += 1
        if cert.bound is not None:
            bounds.append(cert.bound)
    assert dict(variants) == histogram
    # every certificate claims growth: its bound exceeds 1
    assert all(b > 1 for b in bounds)
    if least is None:
        assert bounds == []
    else:
        hypothesis, length = least
        assert min(bounds) == hypothesis ** (1 / length)
