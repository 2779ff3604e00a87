"""Word-kernel behaviour, plus cross-checks between the compiled kernel
and the pure fallback.

The behaviour tests run against the pure kernel always and against the
compiled one when it is built; only the compiled kernel's tests skip
without it.
"""

import os
import random
import subprocess
import sys

import pytest

from growthlab import _purewords as pure


@pytest.fixture
def fast():
    return pytest.importorskip("growthlab._fastwords")


@pytest.fixture(params=["pure", "fast"])
def kernel(request):
    if request.param == "pure":
        return pure
    return request.getfixturevalue("fast")


def random_word(rng, rank=3, max_runs=6):
    pairs = [(rng.randrange(rank), rng.choice([-3, -2, -1, 1, 2, 3]))
             for _ in range(rng.randrange(max_runs + 1))]
    return pure.normalize_pairs(pairs)


def assert_reduced(w):
    for i in range(0, len(w), 2):
        assert w[i + 1] != 0
        if i >= 2:
            assert w[i] != w[i - 2]


def test_normalize_is_shared(fast):
    # the compiled module reuses the pure normalizer outright
    assert fast.normalize_pairs is pure.normalize_pairs


def test_concat_parity_on_random_words(fast):
    rng = random.Random(21)
    for _ in range(800):
        a = random_word(rng)
        b = random_word(rng)
        got = fast.concat_reduce(a, b)
        assert got == pure.concat_reduce(a, b)
        assert_reduced(got)


def test_concat_cancels_inverses_exactly(kernel):
    rng = random.Random(22)
    for _ in range(200):
        a = random_word(rng)
        b = random_word(rng)
        assert kernel.concat_reduce(a, kernel.invert_word(a)) == ()
        ab = kernel.concat_reduce(a, b)
        assert kernel.concat_reduce(ab, kernel.invert_word(b)) == a


def test_invert_parity(fast):
    rng = random.Random(23)
    for _ in range(300):
        a = random_word(rng)
        assert fast.invert_word(a) == pure.invert_word(a)


def test_pow_parity(fast):
    rng = random.Random(24)
    for _ in range(150):
        a = random_word(rng, max_runs=4)
        for e in (-6, -2, -1, 0, 1, 2, 3, 9):
            assert fast.pow_word(a, e) == pure.pow_word(a, e)


def test_substitute_parity(fast):
    rng = random.Random(25)
    for _ in range(300):
        a = random_word(rng, rank=3)
        images = [random_word(rng, rank=4) for _ in range(3)]
        got = fast.substitute(a, images)
        assert got == pure.substitute(a, images)
        assert_reduced(got)


def test_substitute_can_collapse_everything(kernel):
    a = (0, 1, 1, 1)
    images = [(2, 1), (2, -1)]
    assert kernel.substitute(a, images) == ()


def test_word_length_parity(fast):
    rng = random.Random(26)
    for _ in range(300):
        a = random_word(rng)
        assert fast.word_length(a) == pure.word_length(a)


def test_big_exponents_flow_through(kernel):
    # exponents beyond C integer range must not truncate anywhere
    big = 2 ** 80
    a = (0, big)
    assert kernel.concat_reduce(a, a) == (0, 2 * big)
    assert kernel.pow_word((0, 1), big) == (0, big)
    assert kernel.word_length(a) == big
    assert kernel.free_key_payload(a) == b"1:%d" % big


def test_free_key_payload_parity(fast):
    rng = random.Random(27)
    for _ in range(300):
        a = random_word(rng)
        assert fast.free_key_payload(a) == pure.free_key_payload(a)


def test_env_override_selects_pure_kernel():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pure.__file__)))
    env = dict(os.environ, GROWTHLAB_PURE="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import growthlab.wordops as w; "
         "print(w.HAVE_COMPILED, w.substitute.__module__)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["False", "growthlab._purewords"]


def test_default_selection_prefers_compiled_kernel(fast):
    from growthlab import wordops

    if os.environ.get("GROWTHLAB_PURE") == "1":
        assert not wordops.HAVE_COMPILED
    else:
        assert wordops.HAVE_COMPILED
        assert wordops.concat_reduce is fast.concat_reduce
