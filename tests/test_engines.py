import hashlib
import inspect
import random
from collections import Counter

import pytest

from growthlab.engines import (
    AbelianEngine,
    BS1Engine,
    FreeEngine,
    GroupSpecError,
    KleinEngine,
    SemidirectEngine,
    MAX_BASE_RANK,
    UnknownGeneratorError,
    _FAMILIES,
    build_engine,
    cyclic_peel,
    parse_group_spec,
    split_units,
)
from growthlab.spectra import MAX_DEGREE
from growthlab.words import Word

from util import (
    FIB_AUTO,
    OVER_LONG,
    ROT4_AUTO,
    TORUS_AUTO,
    bs1_multiply_reference,
    bs1_normal_form,
    embed,
    family_engines,
    flat_to_units,
    insert_trivial_pair,
    klein_automorphisms,
    mat_pow_signed,
    nested_bs1_engine,
    nested_torus_engine,
    random_element,
    random_word,
    reference_apply_level,
    reference_auto_power,
    reference_conjugacy_test,
    reference_element_word,
    reference_level_at,
    reference_power,
    spec_id,
    torus_engine,
    tower_engine,
    units_to_flat,
    word_inverse,
)


# ---------------------------------------------------------------------------
# an independent free-reduction oracle


def stack_reduce(units):
    out = []
    for u in units:
        if out and out[-1] == -u:
            out.pop()
        else:
            out.append(u)
    return out


def test_free_normal_form_matches_stack_oracle():
    rng = random.Random(101)
    eng = FreeEngine(2)
    for _ in range(500):
        units = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))]
        word = Word.of([(eng.gen_names[abs(u) - 1], 1 if u > 0 else -1)
                        for u in units])
        got = flat_to_units(eng.evaluate_word(word))
        assert got == stack_reduce(units)


def test_units_flat_round_trip():
    rng = random.Random(102)
    for _ in range(200):
        units = stack_reduce(
            [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(10))])
        assert flat_to_units(units_to_flat(units)) == units


def test_units_to_flat_reduces_unreduced_units():
    # cancellations cascade across runs: x y y^-1 x^-1 is the identity
    assert units_to_flat([1, 2, -2, -1]) == ()
    assert units_to_flat([1, 2, -2, 1, -3]) == (0, 2, 2, -1)
    rng = random.Random(103)
    for _ in range(300):
        units = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))]
        assert flat_to_units(units_to_flat(units)) == stack_reduce(units)


# ---------------------------------------------------------------------------
# group axioms, one seeded suite per engine


@pytest.mark.parametrize("engine", family_engines(), ids=spec_id)
def test_group_axioms_random_triples(engine):
    rng = random.Random(7)
    e = engine.identity
    for _ in range(1000):
        a = random_element(rng, engine)
        b = random_element(rng, engine)
        c = random_element(rng, engine)
        assert engine.multiply(engine.multiply(a, b), c) == \
            engine.multiply(a, engine.multiply(b, c))
        assert engine.multiply(a, e) == a
        assert engine.multiply(e, a) == a
        assert engine.multiply(a, engine.invert(a)) == e
        assert engine.multiply(engine.invert(a), a) == e


@pytest.mark.parametrize("engine", family_engines(), ids=spec_id)
def test_power_matches_repeated_multiplication(engine):
    rng = random.Random(8)
    for _ in range(100):
        a = random_element(rng, engine, max_len=3)
        k = rng.randrange(-6, 7)
        acc = engine.identity
        step = a if k >= 0 else engine.invert(a)
        for _ in range(abs(k)):
            acc = engine.multiply(acc, step)
        assert engine.power(a, k) == acc


@pytest.mark.parametrize("engine", family_engines(), ids=spec_id)
def test_power_matches_the_reference_loop(engine):
    # the shared square-and-multiply loop gives the power the engines'
    # former loop gave, and a**1 is a itself; two unit letters keep a
    # shift of at most 2, so a torus power needs levels up to 24 only
    rng = random.Random(35)
    names = engine.gen_names
    for _ in range(20):
        a = engine.evaluate_word(Word.of(
            (rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randrange(3))))
        for k in range(-12, 13):
            assert engine.power(a, k) == reference_power(
                engine.multiply, engine.invert, engine.identity, a, k), k
        assert engine.power(a, 1) is a


@pytest.mark.parametrize("engine", family_engines(), ids=spec_id)
def test_canonical_key_separates_and_identifies(engine):
    rng = random.Random(9)
    names = list(engine.gen_names)
    for _ in range(300):
        w = random_word(rng, names)
        a = engine.evaluate_word(w)
        noisy = insert_trivial_pair(rng, w, names)
        assert engine.evaluate_word(noisy) == a
        assert engine.canonical_key(engine.evaluate_word(noisy)) == \
            engine.canonical_key(a)
        b = random_element(rng, engine)
        if a != b:
            assert engine.canonical_key(a) != engine.canonical_key(b)


@pytest.mark.parametrize("engine", family_engines(), ids=spec_id)
def test_evaluate_word_is_homomorphic(engine):
    rng = random.Random(10)
    names = list(engine.gen_names)
    for _ in range(200):
        w1 = random_word(rng, names)
        w2 = random_word(rng, names)
        assert engine.evaluate_word(w1 * w2) == engine.multiply(
            engine.evaluate_word(w1), engine.evaluate_word(w2))
        assert engine.evaluate_word(word_inverse(w1)) == \
            engine.invert(engine.evaluate_word(w1))


@pytest.mark.parametrize("engine", family_engines(), ids=spec_id)
def test_element_to_word_round_trips(engine):
    rng = random.Random(12)
    for _ in range(200):
        a = random_element(rng, engine)
        assert engine.evaluate_word(engine.element_to_word(a)) == a


@pytest.mark.parametrize(
    "engine", family_engines() + [nested_torus_engine(), nested_bs1_engine(), tower_engine()],
    ids=spec_id)
def test_word_letters_spell_the_reference_word(engine):
    # element_to_word reads the family's word_letters; the reference
    # builds the same Word with Word.of, rename and *
    rng = random.Random(18)
    for el in [engine.identity] + [random_element(rng, engine, 6) for _ in range(80)]:
        assert engine.element_to_word(el) == reference_element_word(engine, el), el


def shifted_element(rng, engine):
    """A random element; in a split extension its shift is +-1..3."""
    a = random_element(rng, engine)
    if engine.family != "semidirect":
        return a
    t = engine.generator("t")
    return engine.multiply(embed(engine.kernel_part(a)),
                           engine.power(t, rng.choice([-3, -2, -1, 1, 2, 3])))


@pytest.mark.parametrize(
    "engine", family_engines() + [nested_bs1_engine(), nested_torus_engine()],
    ids=spec_id)
def test_multiplier_agrees_with_multiply(engine):
    # pair by pair: products((a,), (b,)) is exactly [a*b], which a Counter
    # over a whole E x L cannot pin to its pair; 4 right factors against
    # shifts +-1..3 put every (shift, letter) group of a split extension
    # through the single-element path
    rng = random.Random(13)
    right = [shifted_element(rng, engine) for _ in range(4)]
    for _ in range(300):
        a = shifted_element(rng, engine)
        for b in right:
            assert list(engine.products((a,), (b,))) == [engine.multiply(a, b)]


@pytest.mark.parametrize(
    "engine", family_engines() + [nested_bs1_engine(), nested_torus_engine()],
    ids=spec_id)
def test_products_agree_with_multiply(engine):
    # the letters mix the generators (several per shift in a split
    # extension, zero coordinates in a lattice) with random elements
    rng = random.Random(13)
    letters = [engine.generator(n) for n in engine.gen_names]
    letters += [shifted_element(rng, engine) for _ in range(4)]
    many = {shifted_element(rng, engine) for _ in range(60)}
    if engine.family == "klein":
        assert {j % 2 for _, j in many} == {0, 1}
    if engine.family == "semidirect":
        assert len({engine.shift(x) for x in many}) >= 3
    for elements in (set(), {shifted_element(rng, engine)}, many):
        expected = [engine.multiply(x, a) for x in elements for a in letters]
        assert Counter(engine.products(elements, letters)) == Counter(expected)


# ---------------------------------------------------------------------------
# family-specific relations


def test_klein_defining_relation():
    eng = KleinEngine()
    a = eng.generator("a")
    t = eng.generator("t")
    lhs = eng.multiply(eng.multiply(t, a), eng.invert(t))
    assert lhs == eng.invert(a)
    assert [eng.evaluate_word(r) for r in eng.relators] == [eng.identity]


@pytest.mark.parametrize("m", [2, -2, 3, 5, -7])
def test_bs1_defining_relation(m):
    eng = BS1Engine(m)
    a = eng.generator("a")
    t = eng.generator("t")
    lhs = eng.multiply(eng.multiply(t, a), eng.invert(t))
    assert lhs == eng.power(a, m)
    assert [eng.evaluate_word(r) for r in eng.relators] == [eng.identity]


def bs1_branch(m, a, b):
    """Which case of the product formula BS1Engine.multiply takes."""
    n1, e1, s1 = a
    n2, e2, s2 = b
    d2 = e2 - s1
    if e1 > d2:
        return "e1 > d2, e1 = 0" if e1 == 0 else "e1 > d2, e1 > 0"
    if d2 > e1:
        if e2:
            return "d2 > e1, e2 > 0"
        return "d2 > e1, e2 = 0, m | n2 != 0" if n2 and n2 % m == 0 else "d2 > e1, e2 = 0"
    return "e1 = d2, sum 0" if n1 + n2 == 0 else "e1 = d2"


@pytest.mark.parametrize("m", [2, -2, 3, -3, 5, -7])
def test_bs1_multiply_matches_reference(m):
    rng = random.Random(14 + m)
    eng = BS1Engine(m)
    elements = [bs1_normal_form(m, rng.randint(-2 * m * m, 2 * m * m),
                                rng.randint(0, 3), rng.randint(-3, 3))
                for _ in range(40)]
    # x * (x^-1 t^s) = t^s: numerators that cancel to 0
    partners = [eng.multiply(eng.invert(x), (0, 0, rng.randint(-2, 2)))
                for x in elements]
    pairs = [(x, y) for x in elements for y in elements] + list(zip(elements, partners))
    seen = set()
    for a, b in pairs:
        seen.add(bs1_branch(m, a, b))
        assert eng.multiply(a, b) == bs1_multiply_reference(m, a, b), (a, b)
    assert seen >= {"e1 > d2, e1 = 0", "e1 > d2, e1 > 0", "e1 = d2, sum 0",
                    "e1 = d2", "d2 > e1, e2 > 0", "d2 > e1, e2 = 0, m | n2 != 0"}


def test_bs1_rejects_unit_multiplier():
    with pytest.raises(GroupSpecError):
        build_engine({"family": "bs1", "m": 1})


def test_abelian_commutes():
    eng = AbelianEngine(3)
    rng = random.Random(13)
    for _ in range(100):
        a = random_element(rng, eng)
        b = random_element(rng, eng)
        assert eng.multiply(a, b) == eng.multiply(b, a)


# ---------------------------------------------------------------------------
# free conjugacy against a rotation oracle


def cyclic_core(units):
    """Peel inverse end pairs off reduced unit letters."""
    while len(units) >= 2 and units[0] == -units[-1]:
        units = units[1:-1]
    return units


def brute_conjugate(a, b) -> bool:
    """Free words are conjugate iff their cyclically reduced cores are
    rotations of each other."""
    ca, cb = cyclic_core(flat_to_units(a)), cyclic_core(flat_to_units(b))
    if len(ca) != len(cb):
        return False
    return not ca or any(ca[r:] + ca[:r] == cb for r in range(len(ca)))


def assert_conjugator(eng, d, a, b):
    assert d is not None
    assert eng.multiply(eng.multiply(d, a), eng.invert(d)) == b


def test_free_conjugacy_finds_a_conjugator():
    rng = random.Random(31)
    eng = FreeEngine(3)
    for _ in range(300):
        a = random_element(rng, eng)
        c = random_element(rng, eng)
        b = eng.multiply(eng.multiply(c, a), eng.invert(c))
        assert_conjugator(eng, eng.conjugacy_test(a, b), a, b)


def test_free_conjugacy_agrees_with_rotation_oracle():
    rng = random.Random(32)
    eng = FreeEngine(2)
    outcomes = set()
    for _ in range(1500):
        a, b = (stack_reduce([rng.choice([1, -1, 2, -2])
                              for _ in range(rng.randrange(7))])
                for _ in range(2))
        a, b = units_to_flat(a), units_to_flat(b)
        d = eng.conjugacy_test(a, b)
        expected = brute_conjugate(a, b)
        outcomes.add(expected)
        assert (d is not None) == expected
        if expected:
            assert_conjugator(eng, d, a, b)
    assert outcomes == {True, False}


def test_cyclic_peel_splits_off_inverse_end_runs():
    rng = random.Random(33)
    eng = FreeEngine(3)
    assert cyclic_peel(()) == ((), ())
    assert cyclic_peel((0, 3, 1, 1, 0, -1)) == ((0, 1), (0, 2, 1, 1))
    assert cyclic_peel((0, 1, 1, 1, 0, -3)) == ((0, 1), (1, 1, 0, -2))
    assert cyclic_peel((1, 10 ** 30, 0, 1, 1, -10 ** 30)) == ((1, 10 ** 30), (0, 1))
    for _ in range(500):
        a = random_element(rng, eng)
        p, core = cyclic_peel(a)
        assert eng.multiply(eng.multiply(p, core), eng.invert(p)) == a
        # cyclically reduced: the end runs are not inverse letters
        assert len(core) < 4 or core[0] != core[-2] or core[1] * core[-1] > 0
        assert cyclic_core(flat_to_units(a)) == flat_to_units(core)


def test_free_conjugacy_matches_the_unit_letter_reference():
    # peeling whole runs and cutting cores at run ends gives the
    # conjugator that unit letters gave: exponents of several units;
    # proper powers, whose cores match at several rotations (the least
    # one wins); and cores whose first and last runs share letter and
    # sign, so that a run of b's core spans the end of a's core
    rng = random.Random(34)
    eng = FreeEngine(3)

    def word(runs):
        return eng.evaluate_word(Word.of(
            (rng.choice(eng.gen_names), rng.choice([-5, -2, -1, 1, 2, 3]))
            for _ in range(runs)))

    pairs = []
    for _ in range(4000):
        a = word(rng.randrange(6))
        b = word(rng.randrange(6))
        if rng.random() < 0.5:
            c = word(rng.randrange(5))
            b = eng.multiply(eng.multiply(c, a), eng.invert(c))
        pairs.append((a, b))
    for i in range(3000):
        a = eng.power(word(rng.randrange(1, 5)), 1 + i % 3)
        if i % 2 and len(a) > 2 and a[-2] != a[0]:
            a += a[:2]  # an end run with the first run's letter and sign
        c = word(rng.randrange(4))
        b = eng.multiply(eng.multiply(c, a), eng.invert(c))
        pairs.append((a, eng.multiply(b, word(1)) if i % 5 == 0 else b))
    found = []
    for a, b in pairs:
        d = eng.conjugacy_test(a, b)
        assert d == reference_conjugacy_test(a, b), (a, b)
        found.append(d is not None)
    assert 1000 < sum(found[:4000]) < 3000
    assert 2000 < sum(found[4000:]) < 3000
    # x^2 y x^3 against x^5 y: the x^5 run spans the end of a's core
    assert eng.conjugacy_test((0, 2, 1, 1, 0, 3), (0, 5, 1, 1)) == (1, -1, 0, -2)


def test_free_conjugacy_costs_no_letter_per_unit():
    # x^100000 y against y x^100000: the one cut that the y run allows is
    # tried, with no list of unit letters; trying every rotation of
    # 100001 unit letters takes about a minute
    eng = FreeEngine(2)
    assert eng.conjugacy_test((0, 10 ** 5, 1, 1), (1, 1, 0, 10 ** 5)) == (0, -100000)
    assert eng.conjugacy_test((0, 10 ** 30, 1, 1), (1, 1, 0, 10 ** 30)) == (0, -10 ** 30)
    assert eng.conjugacy_test((0, 10 ** 5, 1, 1), (1, 1, 0, -10 ** 5)) is None


def test_split_units_cuts_at_most_one_run():
    rng = random.Random(36)
    eng = FreeEngine(3)
    for _ in range(300):
        flat = random_element(rng, eng, 6)
        units = flat_to_units(flat)
        for r in range(len(units) + 1):
            head, tail = split_units(flat, r)
            assert flat_to_units(head) == units[:r]
            assert flat_to_units(tail) == units[r:]
            # whole runs on each side, but for the one cut
            assert len(head) + len(tail) <= len(flat) + 2
    assert split_units((0, 10 ** 20, 1, -2), 10 ** 20 + 1) == ((0, 10 ** 20, 1, -1), (1, -1))


@pytest.mark.parametrize("a, b, conjugate", [
    ("x y x y", "y x y x", True),
    ("x y x y", "y^-1 x y x y y", True),
    ("x^3", "y x^3 y^-1", True),
    ("x^3", "x^-3", False),
    ("x y", "x y^-1", False),
    ("x^2 y", "x y^2", False),
    ("x y x^-1 y^-1", "y^-1 x y x^-1", True),
    ("x y x^-1 y^-1", "y x y^-1 x^-1", False),
    ("x^2 y^2", "x y x y", False),
    ("x", "x", True),
    ("", "", True),
    ("", "x y x^-1", False),
    ("x y x^-1", "", False),
])
def test_free_conjugacy_named_cases(a, b, conjugate):
    eng = FreeEngine(2)
    wa, wb = eng.evaluate_word(Word.parse(a)), eng.evaluate_word(Word.parse(b))
    assert brute_conjugate(wa, wb) == conjugate
    d = eng.conjugacy_test(wa, wb)
    if conjugate:
        assert_conjugator(eng, d, wa, wb)
    else:
        assert d is None


# ---------------------------------------------------------------------------
# split extensions


def test_semidirect_conjugation_realizes_automorphism():
    eng = torus_engine()
    t = eng.generator("t")
    x = eng.generator("x")
    y = eng.generator("y")
    assert eng.multiply(eng.multiply(t, x), eng.invert(t)) == y
    assert eng.multiply(eng.multiply(t, y), eng.invert(t)) == \
        eng.multiply(x, y)


def test_semidirect_auto_power_inverse_law():
    eng = torus_engine()
    rng = random.Random(14)
    base = eng.base
    for _ in range(150):
        el = random_element(rng, base)
        k = rng.randrange(-8, 9)
        assert eng.auto_power(eng.auto_power(el, k), -k) == el


# automorphisms whose level tables are checked against the word path:
# free bases (torus, unipotent) and abelian ranks 1-3, periodic and Anosov
LEVEL_AUTOS = [
    (FreeEngine(2), TORUS_AUTO),
    (FreeEngine(2), ({"x": "x", "y": "y x"}, {"x": "x", "y": "y x^-1"})),
    (AbelianEngine(1), ({"e1": "e1^-1"}, {"e1": "e1^-1"})),
    (AbelianEngine(2), ROT4_AUTO),
    (AbelianEngine(2), FIB_AUTO),
    (AbelianEngine(3), ({"e1": "e2", "e2": "e3", "e3": "e1"},
                        {"e1": "e3", "e2": "e1", "e3": "e2"})),
    (AbelianEngine(3), ({"e1": "e2", "e2": "e3", "e3": "e1 e2"},
                        {"e1": "e1^-1 e3", "e2": "e1", "e3": "e2"})),
]


@pytest.mark.parametrize("base, auto", LEVEL_AUTOS,
                         ids=[f"{spec_id(b)}-{i}" for i, (b, _) in enumerate(LEVEL_AUTOS)])
def test_auto_power_levels_match_word_path(base, auto):
    # a fresh engine, queried in shuffled order, so levels are built
    # from either side and from gaps of several steps
    eng = SemidirectEngine(base, *auto)
    rng = random.Random(16)
    ks = list(range(-7, 8))
    rng.shuffle(ks)
    elements = [random_element(rng, base, 4) for _ in range(12)]
    for k in ks:
        for el in elements:
            got = eng.auto_power(el, k)
            assert got == reference_auto_power(eng, el, k), (k, el)
            assert eng.auto_power(got, -k) == el


def klein_shear_engine():
    # a -> a^-1, t -> a^2 t^-1, the last of klein_automorphisms()
    return SemidirectEngine(KleinEngine(), *klein_automorphisms()[-1])


def bs1_shear_engine():
    # a -> a^-1, t -> a t is an involution of BS(1, 3)
    shear = {"a": "a^-1", "t": "a t"}
    return SemidirectEngine(BS1Engine(3), shear, dict(shear))


@pytest.mark.parametrize("build", [nested_torus_engine, nested_bs1_engine, tower_engine,
                                   klein_shear_engine, bs1_shear_engine],
                         ids=lambda b: b.__name__)
def test_nested_levels_match_word_round_trip(build):
    # a level on a klein, bs1 or nested base takes the generic
    # apply_level, along the element's letters; the reference spells the
    # element as a Word first, and both use the engine's own level
    eng = build()
    rng = random.Random(17)
    elements = [random_element(rng, eng.base, 5) for _ in range(15)]
    for k in range(-3, 4):
        for el in elements:
            assert eng.auto_power(el, k) == reference_apply_level(eng, el, k), (k, el)


# (automorphism, matrix with the generator images as columns): rot4, fib
# and the rank-3 companion of t^3 - t - 1 from LEVEL_AUTOS
MATRIX_AUTOS = [
    (ROT4_AUTO, [[0, -1], [1, 0]]),
    (FIB_AUTO, [[2, 1], [1, 1]]),
    (LEVEL_AUTOS[-1][1], [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
]


@pytest.mark.parametrize("auto, m", MATRIX_AUTOS, ids=["rot4", "fib", "rank3"])
def test_auto_matrix_rows_are_matrix_powers(auto, m):
    # over an abelian base level k is the rows of the matrix of alpha^k
    eng = SemidirectEngine(AbelianEngine(len(m)), *auto)
    for k in (3, -3, 1, -1, 2, -2):
        rows = eng.level_at(k)
        assert rows == tuple(map(tuple, mat_pow_signed(m, k))), k
        # the stored level itself, not a copy
        assert eng.level_at(k) is rows


@pytest.mark.parametrize(
    "engine", [e for e in family_engines() if e.family == "semidirect"]
    + [nested_torus_engine(), tower_engine(), nested_bs1_engine()], ids=spec_id)
def test_level_at_matches_the_one_step_walk(engine):
    # binary_power on levels +-1 gives the levels that a walk one step at
    # a time gives, level 0 (the identity level) included; each is
    # stored once and returned as the same object
    for k in range(-12, 13):
        level = engine.level_at(k)
        assert level == reference_level_at(engine, k), k
        assert engine.level_at(k) is level


def test_level_at_far_powers_in_closed_form():
    # alpha^k(y) = y x^k over F2 x| (x -> x, y -> y x), and [[1, k], [0, 1]]
    # over Z^2 x| [[1, 1], [0, 1]]: k = 10^18 costs about 60 products
    k = 10 ** 18
    free = SemidirectEngine(FreeEngine(2), {"x": "x", "y": "y x"},
                            {"x": "x", "y": "y x^-1"})
    assert free.level_at(k) == ([(0, 1), (1, 1, 0, k)], [(0, -1), (0, -k, 1, -1)])
    assert free.level_at(-k) == ([(0, 1), (1, 1, 0, -k)], [(0, -1), (0, k, 1, -1)])
    assert free.auto_power((1, 2), k) == (1, 1, 0, k, 1, 1, 0, k)
    lattice = SemidirectEngine(AbelianEngine(2), {"e1": "e1", "e2": "e1 e2"},
                               {"e1": "e1", "e2": "e1^-1 e2"})
    assert lattice.level_at(k) == ((1, k), (0, 1))
    assert lattice.level_at(-k) == ((1, -k), (0, 1))
    # only the requested levels are stored, beside 0 and +-1
    assert set(free._levels) == set(lattice._levels) == {0, 1, -1, k, -k}


def test_deep_free_levels():
    # levels +-26 of the torus automorphism hold images of ~300 k and
    # ~500 k flat entries; the engine builds them like any other level
    eng = torus_engine()
    x = eng.base.generator("x")
    w, k = eng.evaluate_word(Word.parse("t^26 x"))
    assert k == 26 and len(w) == 300100
    assert hashlib.sha256(repr(w).encode()).hexdigest() == (
        "ea368c8a1d4cb4bedafd88c7986508510b21c44de83939b4ae3e2584f0f6f147")
    fwd = bwd = x
    for _ in range(26):
        fwd, bwd = eng.auto_power(fwd, 1), eng.auto_power(bwd, -1)
    assert fwd == w
    assert eng.auto_power(x, -26) == bwd


def test_semidirect_auto_power_is_automorphic():
    eng = torus_engine()
    rng = random.Random(15)
    base = eng.base
    for _ in range(150):
        el1 = random_element(rng, base)
        el2 = random_element(rng, base)
        k = rng.randrange(-6, 7)
        assert eng.auto_power(base.multiply(el1, el2), k) == base.multiply(
            eng.auto_power(el1, k), eng.auto_power(el2, k))


def test_semidirect_rejects_broken_inverse():
    with pytest.raises(GroupSpecError):
        build_engine({
            "family": "semidirect",
            "base": {"family": "free", "rank": 2},
            "automorphism": {"forward": {"x": "y", "y": "x y"},
                             "backward": {"x": "x", "y": "y"}},
        })


def test_klein_automorphisms_are_accepted():
    for forward, backward in klein_automorphisms():
        SemidirectEngine(KleinEngine(), forward, backward)


def test_free_rank_four_names():
    assert FreeEngine(4).gen_names == ("x1", "x2", "x3", "x4")
    assert FreeEngine(3).gen_names == ("x", "y", "z")


def test_semidirect_renames_clashing_base_generator():
    eng = build_engine({
        "family": "semidirect",
        "base": {"family": "klein"},
        "automorphism": {"forward": {"a": "a", "t": "t"},
                         "backward": {"a": "a", "t": "t"}},
    })
    assert eng.gen_names[0] == "t"
    assert set(eng.gen_names) > {"t", "a"}
    assert len(set(eng.gen_names)) == 3


# ---------------------------------------------------------------------------
# spec parsing


def test_spec_round_trip_through_build():
    engines = family_engines()
    assert {engine.family for engine in engines} == set(_FAMILIES)
    for engine in engines:
        again = build_engine(engine.spec_dict())
        assert again.spec_dict() == engine.spec_dict()
        assert spec_id(again) == spec_id(engine)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_family_table_names_each_class(family):
    # the table is keyed by each class's own family name; every class
    # but the split extension is built from its spec_keys in the order
    # __init__ takes them, while the split extension's spec holds a base
    # spec and one automorphism where __init__ takes the built base and
    # the two maps
    cls = _FAMILIES[family]
    assert cls.family == family
    if family != "semidirect":
        assert cls.spec_keys == tuple(inspect.signature(cls).parameters)
    else:
        assert cls.spec_keys == ("base", "automorphism")


def test_parse_group_spec_rejects_garbage():
    with pytest.raises(GroupSpecError):
        parse_group_spec("not json")
    with pytest.raises(GroupSpecError):
        parse_group_spec({"family": "free"})
    with pytest.raises(GroupSpecError):
        parse_group_spec({"family": "free", "rank": 0})
    with pytest.raises(GroupSpecError):
        parse_group_spec({"family": "free", "rank": 2, "extra": 1})


@pytest.mark.parametrize("source, message", [
    (f'{{"family": "free", "rank": {OVER_LONG}}}', "invalid JSON: integer literal too long"),
    (f'{{"family": "bs1", "m": -{OVER_LONG}}}', "invalid JSON: integer literal too long"),
    (b'{"family": "free", "rank": 2, "\xff": 1}',
     "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 31: "
     "invalid start byte"),
])
def test_parse_group_spec_rejects_unreadable_json(source, message):
    # int() past its digit limit and bytes that are not UTF-8 raise
    # ValueErrors that are not JSONDecodeErrors
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec(source)
    assert str(info.value) == message


def test_unknown_generator_raises():
    eng = FreeEngine(2)
    with pytest.raises(UnknownGeneratorError) as info:
        eng.evaluate_word(Word.parse("z"))
    # the error names itself, so every caller prints it as it is
    assert str(info.value) == "unknown generator 'z'"


def test_spec_dict_is_a_fresh_copy():
    # editing one result, down to a map's image word, changes neither
    # the engine nor the next result
    eng = nested_torus_engine()
    spec = eng.spec_dict()
    spec["automorphism"]["forward"]["t"] = "x"
    spec["base"]["automorphism"]["backward"].clear()
    spec["base"]["base"]["rank"] = 5
    again = eng.spec_dict()
    assert again != spec
    assert again == build_engine(again).spec_dict()
    assert eng.base.automorphism["backward"] == {"x": "y x^-1", "y": "x"}


def test_split_base_ceiling_is_the_spectral_degree_ceiling():
    # the action on an abelian base of rank r has a characteristic
    # polynomial of degree r, which spectra bounds by MAX_DEGREE
    assert MAX_BASE_RANK == MAX_DEGREE
    ident = {f"e{i + 1}": f"e{i + 1}" for i in range(MAX_BASE_RANK)}
    SemidirectEngine(AbelianEngine(MAX_BASE_RANK), ident, ident)
    # the count is checked before the maps are read
    with pytest.raises(GroupSpecError) as info:
        SemidirectEngine(AbelianEngine(MAX_BASE_RANK + 1), ident, ident)
    assert str(info.value) == (
        f"split extension base has {MAX_BASE_RANK + 1} generators, "
        f"above the ceiling {MAX_BASE_RANK}")


def test_tower_past_the_base_ceiling_builds_no_level(monkeypatch):
    # an identity tower of depth 129 over Z puts 129 generators in its
    # top base; the count is read off the parsed spec, so the tower is
    # refused with the first failing level's message before any level
    spec, names = {"family": "free", "rank": 1}, ["x"]
    for _ in range(MAX_BASE_RANK + 1):
        ident = {n: n for n in names}
        spec = {"family": "semidirect", "base": spec,
                "automorphism": {"forward": ident, "backward": ident}}
        # each level renames t, t1, t2, ... of its base to t1, t2, t3, ...
        names = ["t", *(f"t{int(n[1:] or 0) + 1}" if n[0] == "t" else n for n in names)]

    def refuse(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr("growthlab.engines.SemidirectEngine", refuse)
    with pytest.raises(GroupSpecError) as info:
        build_engine(spec)
    assert str(info.value) == (
        f"split extension base has {MAX_BASE_RANK + 1} generators, "
        f"above the ceiling {MAX_BASE_RANK}")


def test_torus_auto_spec_survives_json():
    eng = SemidirectEngine(FreeEngine(2), *TORUS_AUTO)
    spec = eng.spec_dict()
    assert spec["automorphism"]["forward"] == {"x": "y", "y": "x y"}
    assert spec_id(build_engine(spec)) == spec_id(eng)
