import random

import pytest

from growthlab.engines import AbelianEngine, FreeEngine, KleinEngine
from growthlab.growth import (
    GrowthError,
    GrowthTable,
    ball_sizes,
    rescale_lower_bound,
)
from growthlab.words import Word

from util import (
    family_engines,
    fib_engine,
    nested_bs1_engine,
    nested_torus_engine,
    random_element,
    reference_balls,
    spec_id,
    torus_engine,
)


def gens_of(engine, *texts):
    return [engine.evaluate_word(Word.parse(t)) for t in texts]


# ---------------------------------------------------------------------------
# closed forms and oracles


def test_free2_matches_closed_form():
    eng = FreeEngine(2)
    table = ball_sizes(eng, gens_of(eng, "x", "y"), 10)
    assert table.counts == [2 * 3 ** n - 1 for n in range(11)]


def test_abelian2_matches_closed_form():
    eng = AbelianEngine(2)
    table = ball_sizes(eng, gens_of(eng, "e1", "e2"), 6)
    assert table.counts == [2 * n * n + 2 * n + 1 for n in range(7)]
    assert table.counts[:4] == [1, 5, 13, 25]


def test_klein_counts_at_twenty():
    eng = KleinEngine()
    table = ball_sizes(eng, gens_of(eng, "a", "t"), 20)
    assert table.counts[20] == 841
    est = table.estimates()
    assert abs(est[20] - 841 ** (1 / 20)) < 1e-12


def test_klein_matches_closed_form_at_depth():
    eng = KleinEngine()
    table = ball_sizes(eng, gens_of(eng, "a", "t"), 60)
    assert table.counts == [2 * n * n + 2 * n + 1 for n in range(61)]


def test_abelian3_matches_closed_form_at_depth():
    eng = AbelianEngine(3)
    table = ball_sizes(eng, gens_of(eng, "e1", "e2", "e3"), 12)
    assert table.counts == [
        (2 * n + 1) * (2 * n * n + 2 * n + 3) // 3 for n in range(13)]


def test_anosov_extension_seeded_gens_match_reference():
    # fib_engine's matrix is [[2, 1], [1, 1]]; the seeded generators
    # carry shifts, so each sphere spans several shift groups
    eng = fib_engine()
    rng = random.Random(41)
    gens = [random_element(rng, eng, max_len=3) for _ in range(2)]
    assert any(eng.shift(g) for g in gens)
    table = ball_sizes(eng, gens, 6)
    assert table.counts == [len(ball) for ball in reference_balls(eng, gens, 6)]


@pytest.mark.parametrize(
    "engine", family_engines() + [nested_bs1_engine(), nested_torus_engine()],
    ids=spec_id)
def test_counts_match_reference_bfs(engine):
    # bs1's relator t a t^-1 a^-2 has odd length, so with the standard
    # generators some products of S_n fall back into S_n
    rng = random.Random(31)
    radius = 5
    for gens in ([random_element(rng, engine, max_len=2) for _ in range(2)],
                 [engine.generator(n) for n in engine.gen_names]):
        table = ball_sizes(engine, gens, radius)
        assert table.counts == [
            len(ball) for ball in reference_balls(engine, gens, radius)]


@pytest.mark.parametrize("budget, counts, truncated", [
    (16, [1, 5], True),
    (17, [1, 5, 17], True),
    (52, [1, 5, 17], True),
    (53, [1, 5, 17, 53], False),
])
def test_budget_boundaries(budget, counts, truncated):
    # radius n completes iff gamma(n) <= budget
    eng = FreeEngine(2)
    table = ball_sizes(eng, gens_of(eng, "x", "y"), 3, budget=budget)
    assert table.counts == counts
    assert table.radius == len(counts) - 1
    assert table.truncated is truncated


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("radius", [0, 3])
def test_budget_below_one_is_rejected(budget, radius):
    # gamma(0) = 1 exceeds such a budget, so not even radius 0 completes
    eng = FreeEngine(2)
    with pytest.raises(GrowthError, match="^budget must be positive$"):
        ball_sizes(eng, gens_of(eng, "x", "y"), radius, budget=budget)


def test_notes_for_identity_and_coincident_generators():
    eng = FreeEngine(2)
    assert ball_sizes(eng, gens_of(eng, "x", "y"), 2).notes == []
    assert ball_sizes(eng, [eng.identity], 2).notes == [
        "identity generator ignored",
        "generating set not free of coincidences",
    ]
    coincident = ball_sizes(eng, gens_of(eng, "x", "x^-1"), 3)
    assert coincident.notes == ["generating set not free of coincidences"]
    assert coincident.counts == [1, 3, 5, 7]


def test_identity_generator_gives_flat_table():
    eng = FreeEngine(2)
    table = ball_sizes(eng, [eng.identity], 5)
    assert table.counts == [1] * 6
    assert any("identity" in note for note in table.notes)


def test_quotient_comparison_free_to_abelian():
    free = FreeEngine(2)
    ab = AbelianEngine(2)
    tf = ball_sizes(free, gens_of(free, "x", "y"), 8)
    ta = ball_sizes(ab, gens_of(ab, "e1", "e2"), 8)
    # the abelianization quotient can only merge elements
    for n in range(9):
        assert ta.counts[n] <= tf.counts[n]


def test_generating_subset_monotonicity():
    eng = FreeEngine(2)
    small = ball_sizes(eng, gens_of(eng, "x"), 6)
    big = ball_sizes(eng, gens_of(eng, "x", "y"), 6)
    for n in range(7):
        assert small.counts[n] <= big.counts[n]


# ---------------------------------------------------------------------------
# table mechanics


def test_estimates_and_submultiplicativity():
    eng = FreeEngine(2)
    table = ball_sizes(eng, gens_of(eng, "x", "y"), 8)
    est = table.estimates()
    assert est[0] is None
    for n in range(1, 9):
        assert abs(est[n] - table.counts[n] ** (1 / n)) < 1e-12
    for m in range(9):
        for n in range(9):
            if m + n <= 8:
                assert table.counts[m + n] <= table.counts[m] * table.counts[n]


def test_tsv_shape():
    eng = FreeEngine(2)
    table = ball_sizes(eng, gens_of(eng, "x", "y"), 3)
    lines = table.to_tsv().splitlines()
    assert lines[0] == "n\tgamma\tupper_estimate"
    assert lines[1] == "0\t1\t"
    assert lines[2].startswith("1\t5\t5.0")
    assert len(lines) == 5


def test_budget_truncation():
    eng = FreeEngine(2)
    table = ball_sizes(eng, gens_of(eng, "x", "y"), 10, budget=20)
    assert table.truncated
    assert table.radius < 10
    assert table.counts == [1, 5, 17][: table.radius + 1]


def test_zero_radius():
    eng = FreeEngine(2)
    table = ball_sizes(eng, gens_of(eng, "x", "y"), 0)
    assert table.counts == [1]
    assert table.to_tsv() == "n\tgamma\tupper_estimate\n0\t1\t\n"


def test_negative_radius_rejected():
    eng = FreeEngine(2)
    with pytest.raises(GrowthError):
        ball_sizes(eng, gens_of(eng, "x"), -1)


def test_thread_counts_agree():
    eng = torus_engine()
    gens = gens_of(eng, "t", "x")
    t1 = ball_sizes(eng, gens, 5, threads=1)
    t2 = ball_sizes(eng, gens, 5, threads=2)
    t8 = ball_sizes(eng, gens, 5, threads=8)
    assert t1.counts == t2.counts == t8.counts
    assert t1.to_tsv() == t2.to_tsv() == t8.to_tsv()


def test_searches_leave_engine_attributes_and_match_reference():
    # alphabet B shares no letter with A, and A's second run must not
    # see anything left over from the searches before it
    eng = torus_engine()
    attrs = set(vars(eng))
    set_a = gens_of(eng, "t", "x")
    set_b = gens_of(eng, "t x", "y^2 t^-1")
    for gens in (set_a, set_b, set_a):
        table = ball_sizes(eng, gens, 5)
        assert table.counts == [
            len(ball) for ball in reference_balls(eng, gens, 5)]
    assert set(vars(eng)) == attrs


def test_repeat_runs_are_identical():
    eng = torus_engine()
    gens = gens_of(eng, "t", "x")
    a = ball_sizes(eng, gens, 5)
    b = ball_sizes(eng, gens, 5)
    assert a.to_tsv() == b.to_tsv()


def test_validate_rejects_bad_tables():
    with pytest.raises(GrowthError):
        GrowthTable(radius=1, counts=[2, 3]).validate()
    with pytest.raises(GrowthError):
        GrowthTable(radius=1, counts=[1, 0]).validate()
    with pytest.raises(GrowthError):
        # 10 > 5 * 1 breaks gamma(2) <= gamma(1) * gamma(1)
        GrowthTable(radius=2, counts=[1, 3, 10]).validate()


# ---------------------------------------------------------------------------
# bound rescaling


def test_rescale_lower_bound():
    assert abs(rescale_lower_bound(3.0, 6) - 3 ** (1 / 6)) < 1e-15
    assert rescale_lower_bound(2.0, 1) == 2.0
    with pytest.raises(GrowthError):
        rescale_lower_bound(2.0, 0)
