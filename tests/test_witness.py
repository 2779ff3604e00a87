"""Certificate search: golden analyses, branch bookkeeping, and the
periodic-class scan."""

import math
import random

import pytest

from growthlab.engines import (
    AbelianEngine,
    BS1Engine,
    FreeEngine,
    KleinEngine,
    SemidirectEngine,
    UnsupportedFamilyError,
)
from growthlab.subgroups import is_cyclic_pair
from growthlab import witness
from growthlab.witness import (
    INCONCLUSIVE,
    KERNEL_CHAIN_ESCAPE,
    NON_CYCLIC_PAIR,
    PERIODIC_CONJUGACY,
    SPECTRAL_EXPONENTIAL,
    VIRTUALLY_NILPOTENT_DIAGNOSIS,
    Certificate,
    WitnessError,
    analyze,
    combined_bound,
    pcc_scan,
)
from growthlab.words import Word

from util import fib_engine, rot4_engine, torus_engine

ALL_VARIANTS = {
    NON_CYCLIC_PAIR,
    KERNEL_CHAIN_ESCAPE,
    SPECTRAL_EXPONENTIAL,
    PERIODIC_CONJUGACY,
    VIRTUALLY_NILPOTENT_DIAGNOSIS,
    INCONCLUSIVE,
}


def klein_base_engine():
    # identity action on the Klein-bottle group; base t is renamed t1
    ident = {"a": "a", "t": "t"}
    return SemidirectEngine(KleinEngine(), dict(ident), dict(ident))


def bs1_flip_engine():
    # a -> a^-1 is an automorphism of BS(1,2)
    flip = {"a": "a^-1", "t": "t"}
    return SemidirectEngine(BS1Engine(2), dict(flip), dict(flip))


def shear_engine():
    return SemidirectEngine(
        AbelianEngine(2),
        {"e1": "e1", "e2": "e1 e2"},
        {"e1": "e1", "e2": "e1^-1 e2"})


def slow_fib_engine():
    # companion matrix [[0,1],[1,1]]: radius is the golden ratio, below
    # the expansion margin, so the analyzer must pass to a power
    return SemidirectEngine(
        AbelianEngine(2),
        {"e1": "e2", "e2": "e1 e2"},
        {"e1": "e1^-1 e2", "e2": "e1"})


def unipotent_free_engine():
    return SemidirectEngine(
        FreeEngine(2),
        {"x": "x", "y": "y x"},
        {"x": "x", "y": "y x^-1"})


def flip_free_engine():
    # x -> x^-1, y -> y^-1 is an involution of F2
    flip = {"x": "x^-1", "y": "y^-1"}
    return SemidirectEngine(FreeEngine(2), dict(flip), dict(flip))


def suspect_host_engine():
    # G = K x| Z with trivial outer action over K = Z^2 x|_{-I} Z; the
    # kernel K contains Klein-bottle pairs reachable by conjugation
    neg = {"e1": "e1^-1", "e2": "e2^-1"}
    kern = SemidirectEngine(AbelianEngine(2), dict(neg), dict(neg))
    ident = {"t": "t", "e1": "e1", "e2": "e2"}
    return SemidirectEngine(kern, dict(ident), dict(ident))


# ---------------------------------------------------------------------------
# bookkeeping helpers


def test_combined_bound_branches():
    assert combined_bound(3.0, "pair_in_kernel") == 3.0 ** 0.25
    assert combined_bound(3.0, "conjugate_pair") == 3.0 ** (1.0 / 6.0)
    assert combined_bound(2.0 ** 0.25, "infinite_kernel") == 2.0 ** (1.0 / 16.0)
    assert combined_bound(3.0, "chain", 2) == 3.0 ** 0.125
    assert combined_bound(3.0, "chain", 5) == 3.0 ** (1.0 / 14.0)


def test_combined_bound_rejects():
    with pytest.raises(WitnessError):
        combined_bound(1.0, "conjugate_pair")
    with pytest.raises(WitnessError):
        combined_bound(3.0, "no_such_branch")
    with pytest.raises(WitnessError):
        combined_bound(3.0, "chain")
    with pytest.raises(WitnessError):
        combined_bound(3.0, "chain", 0)


@pytest.mark.parametrize("u", [math.nan, math.inf, float("1e400")])
def test_non_finite_hypothesis_rejected(u):
    # NaN passed "u <= 1" and infinity made a bound that is not JSON
    with pytest.raises(WitnessError):
        combined_bound(u, "conjugate_pair")
    with pytest.raises(WitnessError):
        analyze(torus_engine(), ["t", "x"], u, 2)


def test_certificate_json_field_names():
    cert = Certificate(
        SPECTRAL_EXPONENTIAL,
        bound=1.25,
        matrix=((2, 1), (1, 1)),
        m=2.5,
        max_A_length=5,
        reverified=True,
    )
    out = cert.to_json()
    assert out == {
        "variant": SPECTRAL_EXPONENTIAL,
        "bound": 1.25,
        "matrix": [[2, 1], [1, 1]],
        "m": 2.5,
        "max_A_length": 5,
        "reverified": True,
    }
    small = Certificate(INCONCLUSIVE, diagnostics="d").to_json()
    assert small == {"variant": INCONCLUSIVE, "diagnostics": "d"}


# ---------------------------------------------------------------------------
# golden analyses


def test_torus_noncyclic_pair():
    eng = torus_engine()
    cert = analyze(eng, ["t", "x"], 3.0, 2)
    assert cert.variant == NON_CYCLIC_PAIR
    assert cert.u_word == "y x^-1"
    assert cert.v_word == "x"
    assert cert.max_A_length == 6
    assert cert.reverified is True
    assert cert.bound == pytest.approx(3.0 ** (1.0 / 6.0), rel=0, abs=1e-12)


def test_torus_accepts_word_objects():
    eng = torus_engine()
    cert = analyze(eng, [Word.parse("t"), Word.parse("x")], 3.0, 2)
    assert cert.variant == NON_CYCLIC_PAIR
    assert cert.u_word == "y x^-1"


def test_rot4_periodic_class():
    eng = rot4_engine()
    cert = analyze(eng, ["t", "e1"], 3.0, 2)
    assert cert.variant == PERIODIC_CONJUGACY
    assert cert.k_word == "e1"
    assert cert.n == 4
    assert cert.c_word == "<identity>"
    assert cert.reverified is True
    k_el = eng.base.evaluate_word(Word.parse(cert.k_word))
    assert eng.auto_power(k_el, cert.n) == k_el


def test_shear_periodic_class():
    # unipotent action fixes e1, so the class is periodic with n = 1
    cert = analyze(shear_engine(), ["t", "e2"], 3.0, 2)
    assert cert.variant == PERIODIC_CONJUGACY
    assert cert.k_word == "e1"
    assert cert.n == 1


def test_fib_spectral_certificate():
    cert = analyze(fib_engine(), ["t", "e1"], 3.0, 2)
    assert cert.variant == SPECTRAL_EXPONENTIAL
    assert cert.m == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-6)
    assert cert.bound == 2.0 ** 0.2
    assert cert.max_A_length == 5
    assert cert.matrix == ((2, 1), (1, 1))
    assert cert.reverified is True


def test_slow_expansion_takes_a_power():
    cert = analyze(slow_fib_engine(), ["t", "e1"], 3.0, 2)
    assert cert.variant == SPECTRAL_EXPONENTIAL
    assert cert.m == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-6)
    # golden ratio is under the margin; its square is not
    assert cert.bound == 2.0 ** (1.0 / 6.0)
    assert cert.max_A_length == 6


def test_unipotent_free_base_periodic_class():
    cert = analyze(unipotent_free_engine(), ["t", "y"], 3.0, 2)
    assert cert.variant == PERIODIC_CONJUGACY
    assert cert.k_word == "y x y^-1"
    assert cert.n == 1
    assert cert.c_word == "<identity>"


def _pcc_payload(k, n, diagnostics):
    return {"variant": PERIODIC_CONJUGACY, "k": k, "n": n, "c": "<identity>",
            "diagnostics": f"(i=0, [a0,a1]): {diagnostics}",
            "reverified": True}


@pytest.mark.parametrize("engine, gens, payload", [
    # conjugation inverts x0, from either side of the stable letter
    (flip_free_engine, ["t", "x"],
     _pcc_payload("x^-2", 2, "conjugation inverts x0")),
    (flip_free_engine, ["t^-1", "x"],
     _pcc_payload("x^-2", 2, "conjugation inverts x0")),
    # conjugation fixes x0 with the stable letter inverted
    (unipotent_free_engine, ["t^-1", "y"],
     _pcc_payload("y x^-1 y^-1", 1, "conjugation fixes x0")),
], ids=["inverts-t", "inverts-t-inverse", "fixes-t-inverse"])
def test_periodic_class_from_stable_conjugation(engine, gens, payload):
    assert analyze(engine(), gens, 3.0, 2).to_json() == payload


def test_abelian_generators_diagnosed():
    cert = analyze(rot4_engine(), ["e1", "e2"], 3.0, 2)
    assert cert.variant == VIRTUALLY_NILPOTENT_DIAGNOSIS
    assert "commutator" in cert.reason


def test_single_generator_diagnosed():
    cert = analyze(torus_engine(), ["t"], 3.0, 2)
    assert cert.variant == VIRTUALLY_NILPOTENT_DIAGNOSIS


def test_analyze_validation():
    eng = torus_engine()
    with pytest.raises(WitnessError):
        analyze(FreeEngine(2), ["x", "y"], 3.0, 2)
    with pytest.raises(WitnessError):
        analyze(eng, ["t", "x"], 1.0, 2)
    with pytest.raises(WitnessError):
        analyze(eng, ["t", "x"], 3.0, 0)
    with pytest.raises(WitnessError):
        analyze(eng, [], 3.0, 2)


# ---------------------------------------------------------------------------
# bases without a decision procedure stay inconclusive


def test_bs1_base_inconclusive():
    cert = analyze(bs1_flip_engine(), ["t", "a"], 3.0, 2)
    assert cert.variant == INCONCLUSIVE
    assert "no decision procedure for bs1 base" in cert.diagnostics
    assert "kernel pair skipped for bs1 base" in cert.diagnostics


def test_klein_base_inconclusive():
    cert = analyze(klein_base_engine(), ["t", "a", "t1"], 3.0, 2)
    assert cert.variant == INCONCLUSIVE
    assert "kernel pair skipped for klein base" in cert.diagnostics


def test_klein_bottle_pair_is_not_certified():
    # inside K = Z^2 x|_{-I} Z the elements t1 and its e1-conjugate have
    # equal squares without commuting; that subgroup grows polynomially
    eng = suspect_host_engine()
    x0 = eng.evaluate_word(Word.parse("t1"))
    a_el = eng.evaluate_word(Word.parse("e1 t"))
    x1 = eng.multiply(eng.multiply(a_el, x0), eng.invert(a_el))
    assert not eng.commute(x0, x1)
    assert eng.power(x0, 2) == eng.power(x1, 2)
    assert not is_cyclic_pair(eng, x0, x1)
    assert witness._klein_suspect(eng, x0, x1)
    cert, diag = witness._case(eng, [a_el], 3.0, 2, 0, (0, 0, 1, 1, x0))
    assert cert is None
    assert "KleinBottleSuspect" in diag


def test_find_relation_search():
    eng = AbelianEngine(2)
    assert witness._find_relation(eng, (1, 0), (-1, 0)) == (1, 1)
    assert witness._find_relation(eng, (2, 0), (-1, 0)) == (1, 2)
    assert witness._find_relation(eng, (1, 0), (0, 1)) is None


# ---------------------------------------------------------------------------
# determinism


def test_thread_schedules_agree():
    jobs = [
        (torus_engine(), ["t", "x"]),
        (rot4_engine(), ["t", "e1"]),
        (fib_engine(), ["t", "e1"]),
        (bs1_flip_engine(), ["t", "a"]),
    ]
    for eng, gens in jobs:
        seq = analyze(eng, gens, 3.0, 2, threads=1).to_json()
        for threads in (2, 8):
            assert analyze(eng, gens, 3.0, 2, threads=threads).to_json() == seq


def test_random_generating_sets_stay_classified():
    rng = random.Random(7)
    eng = torus_engine()
    names = ["t", "x", "y"]
    for _ in range(12):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            pairs = [(rng.choice(names), rng.choice([-1, 1]))
                     for _ in range(rng.randrange(1, 4))]
            gens.append(Word.of(pairs))
        cert = analyze(eng, gens, 3.0, 2)
        assert cert.variant in ALL_VARIANTS
        if cert.bound is not None:
            assert 1.0 < cert.bound <= 3.0
        assert analyze(eng, gens, 3.0, 2, threads=2).to_json() == cert.to_json()


# ---------------------------------------------------------------------------
# periodic-class scan


def test_pcc_scan_torus_finds_commutator():
    eng = torus_engine()
    res = pcc_scan(eng, 10, 6)
    assert res.exact is False
    assert res.note == "found within bounds"
    cert = res.certificate
    assert cert.k_word == "x y x^-1 y^-1"
    assert cert.n == 2
    assert cert.c_word == "<identity>"
    k_el = eng.base.evaluate_word(Word.parse(cert.k_word))
    assert eng.auto_power(k_el, 2) == k_el


def test_pcc_scan_torus_short_lengths_empty():
    res = pcc_scan(torus_engine(), 10, 3)
    assert res.certificate is None
    assert res.exact is False
    assert "none within bounds" in res.note


def test_pcc_scan_rot4_exact():
    res = pcc_scan(rot4_engine(), 10, 5)
    assert res.exact is True
    assert res.note == "exact cyclotomic test"
    assert res.certificate.k_word == "e1"
    assert res.certificate.n == 4
    tight = pcc_scan(rot4_engine(), 3, 5)
    assert tight.certificate is None
    assert tight.exact is True
    assert "smallest period 4 exceeds the bound" in tight.note


def test_pcc_scan_fib_exact_empty():
    res = pcc_scan(fib_engine(), 10, 5)
    assert res.certificate is None
    assert res.exact is True
    assert "no cyclotomic factor" in res.note


def test_pcc_scan_klein_base():
    res = pcc_scan(klein_base_engine(), 5, 3)
    assert res.exact is False
    assert res.certificate.k_word == "a^-1"
    assert res.certificate.n == 1


def test_pcc_scan_validation():
    with pytest.raises(WitnessError):
        pcc_scan(KleinEngine(), 5, 3)
    with pytest.raises(WitnessError):
        pcc_scan(torus_engine(), 0, 3)
    with pytest.raises(WitnessError):
        pcc_scan(torus_engine(), 5, 0)
    with pytest.raises(UnsupportedFamilyError):
        pcc_scan(bs1_flip_engine(), 5, 3)


def test_cyclically_reduced_word_stream():
    first = list(witness._cyclically_reduced_words(1, 2))
    assert first == [(0, 1), (0, -1), (0, 2), (0, -2)]
    two = list(witness._cyclically_reduced_words(2, 2))
    assert len(two) == 16
    assert len(set(two)) == 16
    for flat in two:
        letters, exps = flat[0::2], flat[1::2]
        assert all(a != b for a, b in zip(letters, letters[1:]))
        assert all(e != 0 for e in exps)
        assert sum(abs(e) for e in exps) <= 2
