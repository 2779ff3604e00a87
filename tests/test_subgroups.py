import random

import pytest

from growthlab.engines import (
    AbelianEngine,
    BS1Engine,
    FreeEngine,
    KleinEngine,
    UnsupportedFamilyError,
)
from growthlab.subgroups import is_cyclic_pair
from growthlab.words import Word

from util import embed, random_element, rot4_engine, spec_id, torus_engine


def ev(eng, text):
    return eng.evaluate_word(Word.parse(text))


FREE2 = FreeEngine(2)


# ---------------------------------------------------------------------------
# cyclic-pair decisions


def _small_shift_element(rng, eng):
    # free-base automorphism images grow fast, so keep |shift| <= 1
    kernel = random_element(rng, eng.base, max_len=2)
    el = embed(kernel)
    e = rng.randrange(-1, 2)
    if e:
        return eng.multiply(el, eng.power(eng.generator("t"), e))
    return el


def test_cyclic_pair_is_symmetric_and_accepts_powers():
    rng = random.Random(24)
    engines = [FREE2, AbelianEngine(2), KleinEngine(), BS1Engine(2),
               BS1Engine(-3), torus_engine(), rot4_engine()]
    for eng in engines:
        for _ in range(60):
            if eng.family == "semidirect":
                u = _small_shift_element(rng, eng)
                v = _small_shift_element(rng, eng)
            else:
                u = random_element(rng, eng, max_len=3)
                v = random_element(rng, eng, max_len=3)
            try:
                assert is_cyclic_pair(eng, u, eng.power(u, rng.randrange(-3, 4)))
                assert is_cyclic_pair(eng, u, v) == is_cyclic_pair(eng, v, u)
            except UnsupportedFamilyError:
                pytest.fail(f"unexpected unsupported family for {spec_id(eng)}")


def test_cyclic_pair_free_examples():
    assert is_cyclic_pair(FREE2, ev(FREE2, "x^2"), ev(FREE2, "x^-3"))
    assert not is_cyclic_pair(FREE2, ev(FREE2, "x"), ev(FREE2, "y"))
    assert not is_cyclic_pair(FREE2, ev(FREE2, "y x^-1"), ev(FREE2, "x"))


def test_cyclic_pair_abelian_uses_rank():
    eng = AbelianEngine(2)
    assert is_cyclic_pair(eng, (2, 4), (3, 6))
    assert not is_cyclic_pair(eng, (1, 0), (0, 1))


def test_cyclic_pair_klein():
    eng = KleinEngine()
    a = eng.generator("a")
    t = eng.generator("t")
    assert not is_cyclic_pair(eng, a, t)
    assert is_cyclic_pair(eng, eng.power(a, 2), eng.power(a, -5))


def test_cyclic_pair_semidirect_mixed_shift():
    eng = torus_engine()
    t = ev(eng, "t")
    x = ev(eng, "x")
    assert not is_cyclic_pair(eng, t, x)
    assert is_cyclic_pair(eng, t, eng.power(t, 3))


def test_cyclic_pair_bs1_nonzero_shift():
    # BS(1, m) is torsion-free, so a pair with a nonzero shift is cyclic
    # iff it commutes and u^q v^-p = e
    eng = BS1Engine(2)
    a = eng.generator("a")
    t = eng.generator("t")
    at = eng.multiply(a, t)
    assert not is_cyclic_pair(eng, t, at)
    assert is_cyclic_pair(eng, t, eng.power(t, 3))
    assert is_cyclic_pair(eng, at, eng.power(at, -2))
    # kernel-only pairs stay decidable
    assert is_cyclic_pair(eng, a, eng.power(a, 3))
