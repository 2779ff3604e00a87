"""Certificate search: golden analyses, branch bookkeeping, and the
periodic-class scan."""

import itertools
import json
import math
import random
from collections import Counter

import pytest

from growthlab import engines
from growthlab.engines import (
    AbelianEngine,
    BS1Engine,
    FreeEngine,
    KleinEngine,
    SemidirectEngine,
    UnsupportedFamilyError,
)
from growthlab._exact import eliminate, poly_divmod, strip_cyclotomic
from growthlab.subgroups import is_cyclic_pair
from growthlab import spectra, witness, wordops
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
    pcc_scan,
)
from growthlab.spectra import (
    EXPONENTIAL,
    VIRTUALLY_NILPOTENT,
    char_poly,
    classify_abelian_by_cyclic,
    classify_char_poly,
    mat_mul,
    mat_vec,
)
from growthlab.growth import rescale_lower_bound
from growthlab.words import Word

from util import (
    TORUS_AUTO,
    block_diag,
    certify_digest,
    cyclically_reduced_words,
    elementary_product,
    fib_engine,
    first_of_orbit,
    flat_to_units,
    klein_automorphisms,
    mat_inv_unimodular,
    mat_scale,
    nested_bs1_engine,
    nested_torus_engine,
    random_element,
    reference_analyze,
    reference_chain_case,
    reference_commutators,
    reference_expansion_power,
    reference_klein_pcc,
    reference_lattice_coords,
    reference_pcc_scans,
    reference_returns,
    rot4_engine,
    spec_id,
    torus_engine,
    tower_engine,
)

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


def flip_unipotent_engine():
    # K = F2 x| Z of unipotent_free_engine, with stable letter s printed
    # t1, extended by the involution s -> s^-1, x -> x^-1, y -> y of K
    flip = {"t": "t^-1", "x": "x^-1", "y": "y"}
    return SemidirectEngine(unipotent_free_engine(), flip, dict(flip))


# ---------------------------------------------------------------------------
# bookkeeping helpers


@pytest.mark.parametrize("u", [math.nan, math.inf, float("1e400")])
def test_non_finite_hypothesis_rejected(u):
    # NaN passed "u <= 1" and infinity made a bound that is not JSON
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
    # `witness` without --json prints the keys in this order
    full = Certificate(
        reverified=False, diagnostics="g", reason="f", c_word="e", n=3,
        k_word="d", m=1.5, matrix=((1,),), depth=2, max_A_length=4,
        v_word="b", u_word="a", bound=1.1, variant=PERIODIC_CONJUGACY,
    ).to_json()
    assert list(full) == ["variant", "bound", "u", "v", "max_A_length",
                          "depth", "matrix", "m", "k", "n", "c", "reason",
                          "diagnostics", "reverified"]


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


def test_free_base_pair_hypothesis_is_capped_at_three():
    # <x, y> is F2 on a basis, whose growth rate is exactly 3, so u = 100
    # is not trusted on a free base: the bound is 3^(1/4), not 100^(1/4)
    eng = torus_engine()
    cert = analyze(eng, ["x", "y"], 100.0, 2)
    assert cert.to_json() == {
        "variant": NON_CYCLIC_PAIR, "bound": 1.3160740129524924, "u": "x",
        "v": "x y x^-1 y^-1", "max_A_length": 4, "reverified": True}
    assert cert.bound == rescale_lower_bound(3.0, 4)
    # the one-step pair of a chain takes the same cap; u <= 3 is kept
    assert analyze(eng, ["t", "x"], 100.0, 2).bound == rescale_lower_bound(3.0, 6)
    assert analyze(eng, ["x", "y"], 2.5, 2).bound == rescale_lower_bound(2.5, 4)


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


@pytest.mark.parametrize("build, gens", [
    (rot4_engine, ["t", "e1"]), (shear_engine, ["t", "e2"]),
], ids=["rot4", "shear"])
def test_root_of_unity_action_builds_no_orbit_lattice(monkeypatch, build, gens):
    # char(alpha^p) strips to 1, so the periodic class is returned from
    # it alone: no Hermite basis and no classification of R
    want = analyze(build(), gens, 3.0, 2).to_json()
    assert want["variant"] == PERIODIC_CONJUGACY

    def refuse(*args):
        raise AssertionError("the orbit lattice path ran")
    monkeypatch.setattr(spectra, "hermite_rows", refuse)
    monkeypatch.setattr(spectra, "classify_abelian_by_cyclic", refuse)
    witness._periodic_class.cache_clear()
    assert analyze(build(), gens, 3.0, 2).to_json() == want


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


def fib_flip_engine():
    # N = fib + [-1]: char(N) = (t^2 - 3t + 1)(t + 1) has a cyclotomic
    # factor and does not strip to 1
    return SemidirectEngine(
        AbelianEngine(3),
        {"e1": "e1^2 e2", "e2": "e1 e2", "e3": "e3^-1"},
        {"e1": "e1 e2^-1", "e2": "e1^-1 e2^2", "e3": "e3^-1"})


@pytest.mark.parametrize("gens, payload", [
    (["t", "e1"], {
        "variant": SPECTRAL_EXPONENTIAL, "bound": 1.148698354997035,
        "max_A_length": 5, "matrix": [[2, 1], [1, 1]], "m": 2.618033988749895,
        "diagnostics": "orbit lattice rank 2; expansion power 1", "reverified": True}),
    (["t", "e3"], {
        "variant": PERIODIC_CONJUGACY, "k": "e3", "n": 2, "c": "<identity>",
        "diagnostics": "(i=0, [a0,a1]): root-of-unity action", "reverified": True}),
], ids=["expanding-block", "finite-block"])
def test_mixed_action_is_decided_on_the_orbit_lattice(gens, payload):
    # a cyclotomic factor of char(N) alone decides nothing: the candidate
    # in the fib block expands, the one in the -1 block has period 2
    assert analyze(fib_flip_engine(), gens, 3.0, 2).to_json() == payload


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


def nested_identity_engine():
    # the nested bs1 extension times Z: letters t, t1, a, t2
    nested = nested_bs1_engine()
    ident = {g: g for g in nested.gen_names}
    return SemidirectEngine(nested, ident, dict(ident))


@pytest.mark.parametrize("gens, i, detail, relation", [
    (["a", "t2 t^2"], 1,
     "conjugation relation x1 = x0^2: polynomial invariant t - 2 is not "
     "monic at both ends, kernel not finitely generated", (-2, 1)),
    (["t t2^-1", "a^2"], 0,
     "sticking relation x0^-1 x1^2 = e: every monic-both-ends divisor of "
     "-1 + 2*t is a unit, forcing first Betti number 0 against a strictly "
     "ascending chain", (-1, 2)),
], ids=["conjugation", "sticking"])
def test_kernel_chain_relation_goldens(gens, i, detail, relation):
    eng = nested_identity_engine()
    assert analyze(eng, gens, 3.0, 2).to_json() == {
        "variant": KERNEL_CHAIN_ESCAPE, "bound": 1.0442737824274138,
        "max_A_length": 4, "depth": 3,
        "diagnostics": f"(i={i}, [a0,a1]): {detail}", "reverified": True}
    # the relation x0^a x1^b = e holds for x0 = [a0, a1], x1 = ai x0 ai^-1
    a0, a1 = (eng.evaluate_word(Word.parse(g)) for g in gens)
    x0 = eng.multiply(eng.multiply(a0, a1),
                      eng.multiply(eng.invert(a0), eng.invert(a1)))
    ai = (a0, a1)[i]
    x1 = eng.multiply(eng.multiply(ai, x0), eng.invert(ai))
    a, b = relation
    assert eng.multiply(eng.power(x0, a), eng.power(x1, b)) == eng.identity


def test_kernel_chain_escape_golden():
    # the centraliser of s in K holds the free group <x, y x y^-1> of
    # words phi fixes, so commuting is not transitive in K: the chain of
    # x0 = [a0, a1] = y x^2 y^-1 s^-2 under conjugation by a0 commutes
    # one step apart and not two.  The escape has depth 2 under every
    # cap d >= 2, so its bound is 3^(1/8), from its own length 2*2 + 4
    eng = flip_unipotent_engine()
    gens = ["y t t1", "t"]
    for d in (2, 3, 4):
        assert analyze(eng, gens, 3.0, d).to_json() == {
            "variant": KERNEL_CHAIN_ESCAPE, "bound": 1.147202690439877,
            "max_A_length": 8, "depth": 2,
            "diagnostics": "(i=0, [a0,a1]): chain elements at offsets 0 and 2 "
                           "do not commute", "reverified": True}, d
    a0, a1 = (eng.evaluate_word(Word.parse(g)) for g in gens)
    xs = [eng.multiply(eng.multiply(a0, a1),
                       eng.multiply(eng.invert(a0), eng.invert(a1)))]
    assert str(eng.element_to_word(xs[0])) == "y x^2 y^-1 t1^-2"
    for _ in range(2):
        xs.append(eng.multiply(eng.multiply(a0, xs[-1]), eng.invert(a0)))
    assert eng.commute(xs[0], xs[1]) and not eng.commute(xs[0], xs[2])
    assert xs[1] not in (xs[0], eng.invert(xs[0]))


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


def test_every_base_family_has_a_row():
    # a new family fails here instead of raising KeyError in a search
    assert set(witness._BASES) == set(engines._FAMILIES)


# ---------------------------------------------------------------------------
# bases without a decision procedure stay inconclusive


def test_bs1_base_inconclusive():
    cert = analyze(bs1_flip_engine(), ["t", "a"], 3.0, 2)
    assert cert.variant == INCONCLUSIVE
    assert "no decision procedure for bs1 base" in cert.diagnostics
    # BS(1, m) with |m| >= 2 grows exponentially: the skip names the
    # missing rule, not polynomial growth
    assert ("kernel pair skipped for bs1 base (no pair rule for a bs1 "
            "kernel yet)") in cert.diagnostics
    assert "polynomial" not in cert.diagnostics


def test_klein_base_inconclusive():
    cert = analyze(klein_base_engine(), ["t", "a", "t1"], 3.0, 2)
    assert cert.variant == INCONCLUSIVE
    assert ("kernel pair skipped for klein base (kernel may have "
            "polynomial growth)") in cert.diagnostics


def test_klein_bottle_pair_is_not_certified():
    # inside K = Z^2 x|_{-I} Z the elements t1 and e1 t1 have equal
    # squares without commuting; that subgroup grows polynomially, so
    # the one pair verdict withholds it on both paths that reach it: a
    # shift-0 row (length 4) and a one-step chain pair (length 6)
    eng = suspect_host_engine()
    x, y = (eng.evaluate_word(Word.parse(w)) for w in ("t1", "e1 t1"))
    assert not eng.commute(x, y)
    assert eng.power(x, 2) == eng.power(y, 2)
    assert not is_cyclic_pair(eng, x, y)
    suspect = ("(tag): KleinBottleSuspect: one-step subgroup is non-abelian "
               "with x0^2 = x1^2")
    for length in (4, 6):
        assert witness._kernel_pair(eng, x, y, length, 3.0, "(tag)") == (None, suspect)
    # _case reaches the verdict on both paths: row t1 against y, and row
    # a = e1 t, which conjugates x to e1^2 t1, another Klein-bottle pair
    assert witness._case(eng, [x], 3.0, 2, 0, (0, 0, 1, 1, y)) == (
        None, suspect.replace("(tag)", "(i=0, [a0,a0])"))
    a_el = eng.evaluate_word(Word.parse("e1 t"))
    assert witness._conj(eng, a_el, x) == eng.evaluate_word(Word.parse("e1^2 t1"))
    assert witness._case(eng, [a_el], 3.0, 2, 0, (0, 0, 1, 1, x)) == (
        None, suspect.replace("(tag)", "(i=0, [a0,a0])"))


def test_suspect_host_commuting_kernel_pair_is_not_certified():
    # [e1^3, t1^-1 e2^-1 t] = e2^-2 commutes with e1^3 inside Z^2, so the
    # kernel pair of row 0 certifies nothing; row 1 conjugates x0 to its
    # inverse, a periodic class
    cert = analyze(suspect_host_engine(), ["e1^3", "t1^-1 e2^-1 t", "t^-1 e2"],
                   3.0, 2)
    assert cert.to_json() == {
        "variant": PERIODIC_CONJUGACY, "k": "e1^6", "n": 2, "c": "t^2",
        "diagnostics": "(i=1, [a0,a1]): conjugation inverts x0",
        "reverified": True}


def test_klein_suspect_cannot_arise_over_klein_or_bs1_bases():
    # the proof in witness._undecided_case, the klein and bs1 track, and
    # the unique roots that keep witness._kernel_pair's guard from ever
    # firing on a free base, sampled on the kernel parts of x0, a
    # commutator of G, and x1 = a x0 a^-1.  Over a klein base both lie
    # in the abelian <a, t^2>, so they commute.  Over a bs1 or free base roots are unique, so a
    # non-commuting pair of the base, these two or two random elements,
    # has unequal squares; some sampled pairs do not commute
    rng = random.Random(23)
    flip = {"a": "a^-1", "t": "t"}
    engines = [SemidirectEngine(KleinEngine(), *auto) for auto in klein_automorphisms()]
    engines += [SemidirectEngine(BS1Engine(m), flip, flip) for m in (2, 3, -2)]
    engines += [torus_engine(), unipotent_free_engine()]
    for eng in engines:
        base = eng.base
        pairs = []
        for _ in range(20):
            g, h, a_el = (random_element(rng, eng, 3) for _ in range(3))
            x0 = eng.multiply(eng.multiply(g, h),
                              eng.multiply(eng.invert(g), eng.invert(h)))
            x1 = witness._conj(eng, a_el, x0)
            assert eng.shift(x0) == eng.shift(x1) == 0
            pairs.append((eng.kernel_part(x0), eng.kernel_part(x1)))
            if base.family != "klein":
                pairs.append((random_element(rng, base, 3), random_element(rng, base, 3)))
        noncommuting = [(x, y) for x, y in pairs if not base.commute(x, y)]
        assert bool(noncommuting) == (base.family != "klein"), spec_id(eng)
        for x, y in noncommuting:
            assert base.power(x, 2) != base.power(y, 2), spec_id(eng)


def test_find_relation_search():
    eng = AbelianEngine(2)
    assert witness._find_relation(eng, (1, 0), (-1, 0)) == (1, 1)
    assert witness._find_relation(eng, (2, 0), (-1, 0)) == (1, 2)
    assert witness._find_relation(eng, (1, 0), (0, 1)) is None


def _chain_path(eng, a_el, cert, diag):
    """The branch of the chain track that gave (cert, diag)."""
    if cert is None:
        return ("past window" if "beyond the certified window" in diag else
                "no relation" if "no relation was found" in diag else "klein")
    if cert.variant == NON_CYCLIC_PAIR:
        return NON_CYCLIC_PAIR
    if cert.variant == PERIODIC_CONJUGACY:
        eps = 1 if cert.diagnostics.endswith("fixes x0") else -1
        return ("stable", eps, eng.shift(a_el) > 0)
    if "do not commute" in cert.diagnostics:
        assert cert.depth >= 2
        return "escape"
    return "relation b=1" if "conjugation relation" in cert.diagnostics else "relation b>=2"


def test_chain_case_matches_reference():
    # the chain track decides each fact once (one one-step pair, one
    # commute test per depth, a table of the powers of x0, one conjugator
    # formula); the reference searches every pair, product and sign case.
    # Both answer alike on seeded rows a of nonzero shift and nontrivial
    # commutators x0, and the sweep reaches every branch of the track
    builders = [torus_engine, unipotent_free_engine, flip_free_engine,
                nested_torus_engine, nested_identity_engine, suspect_host_engine,
                nested_bs1_engine, tower_engine, flip_unipotent_engine]
    paths = Counter()

    def check(eng, a_el, x0, d):
        got = witness._chain_case(eng, a_el, x0, 3.0, d, "(tag)")
        assert got == reference_chain_case(eng, a_el, x0, 3.0, d, "(tag)"), \
            (spec_id(eng), a_el, x0, d)
        paths[_chain_path(eng, a_el, *got)] += 1
        return got[0]

    for build in builders:
        eng = build()
        rng = random.Random(29)
        for _ in range(300):
            a_el, g, h = (random_element(rng, eng, 4) for _ in range(3))
            x0 = eng.multiply(eng.multiply(g, h),
                              eng.multiply(eng.invert(g), eng.invert(h)))
            if eng.shift(a_el) == 0 or x0 == eng.identity:
                continue
            for d in (1, 2, 3, 5):
                check(eng, a_el, x0, d)
    # the seeded classes at p < 0 all have alpha^2 = 1, where alpha^-p(w)
    # = alpha^p(w); over the nested torus alpha is conjugation by x, of
    # infinite order, and on these two rows alpha^p(w) fails the re-check
    eng = nested_torus_engine()
    x0 = eng.evaluate_word(Word.parse("x y x^-1 y^-1"))
    for a, n, c in (("x y x^-1 y^-1 x t^-1", 1, "x^2 y x^-1 y^-1"),
                    ("t1 x t^-1", 2, "x^2 t^2")):
        cert = check(eng, eng.evaluate_word(Word.parse(a)), x0, 2)
        assert (cert.n, cert.c_word) == (n, c)
    assert set(paths) >= {
        NON_CYCLIC_PAIR, "escape", "past window", "relation b=1",
        "relation b>=2", "no relation",
        *(("stable", eps, p_pos) for eps in (1, -1) for p_pos in (True, False))}, paths


def test_chain_escape_beyond_the_cap_is_diagnosed():
    # row 0 of the escape golden escapes at depth 2, past the window of
    # d = 1, so it only diagnoses; row 1 then answers
    eng = flip_unipotent_engine()
    gens = ["y t t1", "t"]
    elems = [eng.evaluate_word(Word.parse(g)) for g in gens]
    cand = next(witness._commutators(eng, elems))
    assert witness._case(eng, elems, 3.0, 1, 0, cand) == (None, (
        "(i=0, [a0,a1]): chain escapes only at depth 2, beyond the certified "
        "window for d=1"))
    assert analyze(eng, gens, 3.0, 1).variant == PERIODIC_CONJUGACY


def test_abelian_chain_without_relation_is_diagnosed():
    # G = B x Z over B = Z^2 x|_A Z with A = [[2,1],[1,1]]: a0 = t t1 acts
    # on Z^2 by A, so the chain of x0 = [a0, a1] = (1, 1) runs through
    # A^s (1, 1), which commute, and x0, x1 = (3, 2) are independent
    fib = fib_engine()
    ident = {g: g for g in fib.gen_names}
    eng = SemidirectEngine(fib, ident, dict(ident))
    for d in (1, 2):
        cert = analyze(eng, ["t t1", "e1"], 3.0, d)
        assert cert.variant == INCONCLUSIVE
        assert cert.diagnostics.split("; ") == [
            f"(i=0, [{pair}]): chain stays abelian through depth {d + 1} and no "
            "relation was found with exponents up to 8"
            for pair in ("a0,a1", "a0,a1^-1", "a0^-1,a1", "a0^-1,a1^-1")]


def test_unconverged_root_iteration_is_diagnosed(monkeypatch):
    # R is unimodular with degree >= 1, so only the float root iteration
    # can fail in the abelian case; with no sweeps allowed it always does
    monkeypatch.setattr(spectra, "_ABERTH_MAX_SWEEPS", 0)
    spectra.classify_char_poly.cache_clear()
    try:
        cert = analyze(fib_engine(), ["t", "e1"], 3.0, 2)
    finally:
        monkeypatch.undo()
        spectra.classify_char_poly.cache_clear()
    assert cert.variant == INCONCLUSIVE
    assert cert.diagnostics.startswith(
        "(i=0, [a0,a1]): root iteration did not converge; "
        "(i=0, [a0,a1^-1]): root iteration did not converge; ")
    assert analyze(fib_engine(), ["t", "e1"], 3.0, 2).variant == SPECTRAL_EXPONENTIAL


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
# the on-demand search against the eager reference


# one engine builder per base family: free, nested, abelian periodic and
# Anosov, klein and bs1
SEEDED_BUILDERS = [
    torus_engine, unipotent_free_engine, flip_free_engine,
    nested_torus_engine, nested_identity_engine, suspect_host_engine,
    rot4_engine, shear_engine, fib_engine, slow_fib_engine,
    klein_base_engine, bs1_flip_engine,
]


def seeded_sets(eng, count=8):
    """``count`` seeded generating sets of two or three short words."""
    rng = random.Random(17)
    names = list(eng.gen_names)
    for _ in range(count):
        yield [Word.of([(rng.choice(names), rng.choice([-1, 1]))
                        for _ in range(rng.randrange(1, 4))])
               for _ in range(rng.randrange(2, 4))]


# sha256 of the certify paths' encoded outputs (``analyze``, ``pcc_scan``
# and ``alexander_polynomial``, see ``util.certify_outputs``) over these
# engines, pinned from the code before any of the three was sped up: a
# change that claims byte-identical outputs must keep it.  Re-pinned once
# since, when the skip diagnostic of a shift-0 row over a bs1 base changed
# its reason to "no pair rule for a bs1 kernel yet"
CERTIFY_SHA256 = (
    "b34f901255d6ed87e4aea19d1bfb97b34b57fed21c9a74de6e5945a023230c1f")


def test_certify_outputs_digest():
    builders = SEEDED_BUILDERS + [nested_bs1_engine, tower_engine]
    assert certify_digest(builders) == CERTIFY_SHA256


@pytest.mark.parametrize("build", SEEDED_BUILDERS, ids=lambda b: b.__name__)
def test_analyze_matches_eager_reference_on_seeded_sets(build):
    eng = build()
    for gens in seeded_sets(eng):
        assert analyze(eng, gens, 3.0, 2).to_json() == \
            reference_analyze(build(), gens, 3.0, 2).to_json(), gens


def test_noncyclic_pairs_on_seeded_sets_do_not_commute():
    # 30 sets per engine: the first 8 are those above, and the suspect
    # host's sets 9-30 hold three where a cyclic-pair test would certify
    # a commuting pair spanning Z^2
    pairs = 0
    for build in SEEDED_BUILDERS:
        eng = build()
        for gens in seeded_sets(eng, 30):
            cert = analyze(eng, gens, 3.0, 2)
            if cert.variant == NON_CYCLIC_PAIR:
                u, v = (eng.evaluate_word(Word.parse(w))
                        for w in (cert.u_word, cert.v_word))
                assert not eng.commute(u, v), (build.__name__, gens)
                pairs += 1
    assert pairs > 0


def test_noncyclic_pairs_over_a_nested_bs1_base_are_decided_non_cyclic():
    # the cyclic-pair decision answers every certified pair inside the
    # nested bs1 kernel, whose shifts in bs1 are nonzero, and agrees
    eng = nested_identity_engine()
    pairs = 0
    for gens in seeded_sets(eng, 60):
        cert = analyze(eng, gens, 3.0, 2)
        if cert.variant == NON_CYCLIC_PAIR:
            u, v = (eng.evaluate_word(Word.parse(w))
                    for w in (cert.u_word, cert.v_word))
            assert not is_cyclic_pair(eng, u, v), gens
            pairs += 1
    assert pairs == 27


def test_certificate_bounds_are_hypothesis_to_one_over_length():
    # bound = hypothesis^(1/max_A_length) on every branch: u for a pair
    # or a chain escape, 2 for an expanding action and 2^(1/4) for a
    # chain relation, whose max_A_length is 4.  The seeded sets reach
    # every branch but the chain escape, which the golden above adds at
    # two caps d, both above its depth 2
    u = 3.0
    runs = []
    for build in SEEDED_BUILDERS:
        eng = build()
        runs.extend((analyze(eng, gens, u, 2), 2) for gens in seeded_sets(eng))
    for d in (2, 3):
        runs.append((analyze(flip_unipotent_engine(), ["y t t1", "t"], u, d), d))
    seen = set()
    for cert, d in runs:
        if cert.variant == NON_CYCLIC_PAIR:
            assert cert.bound == u ** (1 / cert.max_A_length)
        elif cert.variant == SPECTRAL_EXPONENTIAL:
            assert cert.bound == 2 ** (1 / cert.max_A_length)
        elif cert.variant == KERNEL_CHAIN_ESCAPE and cert.depth <= d:
            assert cert.bound == u ** (1 / cert.max_A_length)
            assert cert.max_A_length == 2 * cert.depth + 4
        elif cert.variant == KERNEL_CHAIN_ESCAPE:
            assert cert.bound == (2 ** 0.25) ** (1 / cert.max_A_length)
            assert cert.bound == 2 ** (1 / 16)
        else:
            assert cert.bound is None
            continue
        seen.add((cert.variant, cert.depth is not None and cert.depth <= d))
    assert seen == {(NON_CYCLIC_PAIR, False), (SPECTRAL_EXPONENTIAL, False),
                    (KERNEL_CHAIN_ESCAPE, True), (KERNEL_CHAIN_ESCAPE, False)}


@pytest.mark.parametrize("build, gens, variant", [
    # kernel pairs skipped on every shift-0 row, then expanded
    (klein_base_engine, ["t", "a", "t1"], INCONCLUSIVE),
    (klein_base_engine, ["a", "t t1"], INCONCLUSIVE),
    (bs1_flip_engine, ["t", "a"], INCONCLUSIVE),
    (bs1_flip_engine, ["a", "a t", "t^-1"], INCONCLUSIVE),
    # a skipped row ahead of the row that certifies
    (fib_engine, ["e1", "t"], SPECTRAL_EXPONENTIAL),
    (rot4_engine, ["e2", "t", "e1"], PERIODIC_CONJUGACY),
    # every generator at shift 0 over an abelian base, and other sets
    # whose commutators all vanish
    (fib_engine, ["e1", "e2", "e1 e2^-1"], VIRTUALLY_NILPOTENT_DIAGNOSIS),
    (torus_engine, ["x y", "x y x y"], VIRTUALLY_NILPOTENT_DIAGNOSIS),
    (klein_base_engine, ["a", "a^2"], VIRTUALLY_NILPOTENT_DIAGNOSIS),
    (torus_engine, ["t", "x", "y"], NON_CYCLIC_PAIR),
    # a conjugation chain that escapes at depth 2
    (flip_unipotent_engine, ["y t t1", "t"], KERNEL_CHAIN_ESCAPE),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_analyze_matches_eager_reference(build, gens, variant):
    got = analyze(build(), gens, 3.0, 2).to_json()
    assert got["variant"] == variant
    assert got == reference_analyze(build(), gens, 3.0, 2).to_json()


def _multiply_calls(search, gens):
    eng = torus_engine()
    calls = []
    multiply = eng.multiply

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)

    eng.multiply = counting
    search(eng, gens, 3.0, 2)
    return len(calls)


def test_analyze_builds_commutators_on_demand():
    # the first candidate [t, x] certifies, so the other 11 commutators
    # of t, x, y are never built: evaluating the one-letter generators
    # takes no product, building [t, x] takes 3 and running its case 11,
    # 14 in all, and each further commutator would take 3 more (the
    # eager search takes 47)
    gens = ["t", "x", "y"]
    assert _multiply_calls(analyze, gens) < 17
    assert _multiply_calls(reference_analyze, gens) >= 17


@pytest.mark.parametrize("build", SEEDED_BUILDERS, ids=lambda b: b.__name__)
def test_commutators_match_the_four_sign_reference(build):
    # every sign of every pair, fresh inverses each time, c != e kept:
    # the lemma in _commutators' docstring makes the lazy stream equal
    eng = build()
    for gens in seeded_sets(eng, 30):
        elems = [eng.evaluate_word(w) for w in gens]
        assert list(witness._commutators(eng, elems)) == \
            reference_commutators(eng, elems), gens


def test_commuting_pair_costs_one_commutator():
    eng = torus_engine()
    counts = Counter()
    multiply, invert = eng.multiply, eng.invert

    def counting(name, op):
        def call(*args):
            counts[name] += 1
            return op(*args)
        return call

    eng.multiply = counting("multiply", multiply)
    eng.invert = counting("invert", invert)
    # x and x^3 commute: [x, x^3] = e costs 3 products, the other
    # three signs are skipped, and the reference builds all four (12)
    elems = [eng.evaluate_word(Word.parse(w)) for w in ("x", "x^3")]
    counts.clear()
    assert list(witness._commutators(eng, elems)) == []
    assert counts == {"multiply": 3, "invert": 2}
    assert len(reference_commutators(eng, elems)) == 0
    assert counts["multiply"] == 3 + 12
    # a non-commuting triple: all 12 commutators, each generator
    # inverted once
    elems = [eng.evaluate_word(Word.parse(w)) for w in ("t", "x", "y")]
    counts.clear()
    assert len(list(witness._commutators(eng, elems))) == 12
    assert counts == {"multiply": 36, "invert": 3}


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


def test_pcc_scan_steps_from_level_one():
    # alpha^n(k) is stepped one level-1 application at a time, and on
    # the torus (no power of M fixes a nonzero vector) only words with
    # zero exponent sums are stepped; the re-check applies level n once
    eng = torus_engine()
    calls = []
    auto_power = eng.auto_power

    def counting(el, k):
        calls.append(k)
        return auto_power(el, k)

    eng.auto_power = counting
    assert pcc_scan(eng, 12, 3).certificate is None
    assert calls == [1, 1]  # the images of x and y, for M
    calls.clear()
    res = pcc_scan(eng, 12, 4)
    assert (res.certificate.k_word, res.certificate.n) == ("x y x^-1 y^-1", 2)
    assert calls == [1, 1, 1, 1, 2]


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


def test_pcc_scan_klein_base_matches_reference_scan():
    # the closed form against a scan over the words a^i t^j with a
    # brute-force conjugator search, for every automorphism a -> a^+-1,
    # t -> a^k t^+-1 with |k| <= 2 and every pair of small bounds
    for auto in klein_automorphisms():
        eng = SemidirectEngine(KleinEngine(), *auto)
        for max_period in range(1, 6):
            for max_length in range(1, 5):
                assert pcc_scan(eng, max_period, max_length) == \
                    reference_klein_pcc(eng, max_period, max_length), (
                        spec_id(eng), max_period, max_length)


def test_pcc_scan_validation():
    with pytest.raises(WitnessError):
        pcc_scan(KleinEngine(), 5, 3)
    with pytest.raises(WitnessError):
        pcc_scan(torus_engine(), 0, 3)
    with pytest.raises(WitnessError):
        pcc_scan(torus_engine(), 5, 0)
    for eng in (bs1_flip_engine(), nested_torus_engine()):
        with pytest.raises(UnsupportedFamilyError):
            pcc_scan(eng, 5, 3)


def test_cyclically_reduced_word_stream():
    first = list(cyclically_reduced_words(1, 2))
    assert first == [(0, 1), (0, -1), (0, 2), (0, -2)]
    two = list(cyclically_reduced_words(2, 2))
    assert len(two) == 16
    assert len(set(two)) == 16
    for flat in two:
        letters, exps = flat[0::2], flat[1::2]
        assert all(a != b for a, b in zip(letters, letters[1:]))
        assert all(e != 0 for e in exps)
        assert sum(abs(e) for e in exps) <= 2


def test_pcc_scan_torus_auto_power_guard():
    # one auto_power per kept word and period: the torus scan keeps 17
    # of the 128 cyclically reduced words of length <= 4
    eng = torus_engine()
    calls = []
    auto_power = eng.auto_power

    def counting(el, k):
        calls.append(k)
        return auto_power(el, k)

    eng.auto_power = counting
    res = pcc_scan(eng, 8, 4)
    assert res.certificate.k_word == "x y x^-1 y^-1"
    assert len(calls) <= 17 * 8


def _unit_rank(u):
    return 2 * u - 2 if u > 0 else -2 * u - 1


@pytest.mark.parametrize("rank", [2, 3])
def test_cyclically_reduced_stream_is_ordered_and_closed(rank):
    # the orbit argument in pcc_scan rests on these two properties
    stream = [flat_to_units(w) for w in cyclically_reduced_words(rank, 5)]
    keys = [(len(u), [_unit_rank(x) for x in u]) for u in stream]
    assert keys == sorted(keys)
    assert len(set(map(tuple, stream))) == len(stream)
    seen = set(map(tuple, stream))
    for u in stream:
        inv = [-x for x in reversed(u)]
        for r in range(len(u)):
            assert tuple(u[r:] + u[:r]) in seen
            assert tuple(inv[r:] + inv[:r]) in seen


@pytest.mark.parametrize("rank, max_length", [(1, 8), (2, 8), (3, 6), (4, 5)])
def test_orbit_words_are_the_filtered_stream(rank, max_length):
    # the words pcc_scan tests on a free base, in the order it tests them
    want = list(filter(first_of_orbit, cyclically_reduced_words(rank, max_length)))
    assert list(witness._orbit_words(rank, max_length)) == want


def _compose(f, g):
    """Images of f o g from the image lists of f and g."""
    f_inv = [wordops.invert_word(w) for w in f]
    return [wordops.substitute(w, f, f_inv) for w in g]


def _nielsen_products(rank, count=3, seed=15):
    """Forward and backward maps of ``count`` seeded products of five
    Nielsen moves on F_rank."""
    rng = random.Random(seed)
    free = FreeEngine(rank)
    ident = [(i, 1) for i in range(rank)]
    out = []
    for _ in range(count):
        fwd, bwd = ident, ident
        for _ in range(5):
            i, j = rng.sample(range(rank), 2)
            kind = rng.randrange(4)
            step, back = list(ident), list(ident)
            if kind == 0:
                step[i], back[i] = (i, 1, j, 1), (i, 1, j, -1)
            elif kind == 1:
                step[i], back[i] = (j, 1, i, 1), (j, -1, i, 1)
            elif kind == 2:
                step[i] = back[i] = (i, -1)
            else:
                step[i], step[j] = (j, 1), (i, 1)
                back = step
            fwd, bwd = _compose(fwd, step), _compose(back, bwd)
        out.append(tuple({n: str(free.element_to_word(w)) for n, w in zip(free.gen_names, imgs)}
                         for imgs in (fwd, bwd)))
    return out


def _scan_engines():
    """Automorphisms of F2 and F3: torus (tribonacci on F3), unipotent,
    inner by a short word, a swap with inversion, and seeded products of
    Nielsen moves."""
    f2 = [
        TORUS_AUTO,
        ({"x": "x", "y": "y x"}, {"x": "x", "y": "y x^-1"}),
        ({"x": "x y^-1 x y x^-1", "y": "x y x^-1"},
         {"x": "y x^-1 x x y^-1", "y": "y x^-1 y x y^-1"}),
        ({"x": "y^-1", "y": "x^-1"}, {"x": "y^-1", "y": "x^-1"}),
    ] + _nielsen_products(2)
    f3 = [
        ({"x": "y", "y": "z", "z": "x y"}, {"x": "z x^-1", "y": "x", "z": "y"}),
        ({"x": "x", "y": "y x", "z": "z y"},
         {"x": "x", "y": "y x^-1", "z": "z x y^-1"}),
        ({"x": "x z x z^-1 x^-1", "y": "x z y z^-1 x^-1", "z": "x z x^-1"},
         {"x": "z^-1 x z", "y": "z^-1 x^-1 y x z", "z": "z^-1 x^-1 z x z"}),
        ({"x": "y^-1", "y": "x^-1", "z": "z^-1"},
         {"x": "y^-1", "y": "x^-1", "z": "z^-1"}),
    ] + _nielsen_products(3)
    return ([SemidirectEngine(FreeEngine(2), *a) for a in f2]
            + [SemidirectEngine(FreeEngine(3), *a) for a in f3])


def test_orbit_scan_matches_full_scan():
    for eng in _scan_engines():
        full = reference_pcc_scans(eng, 6, 5)
        for (max_period, max_length), want in full.items():
            assert pcc_scan(eng, max_period, max_length) == want, (
                spec_id(eng), max_period, max_length)


# automorphisms of F2 and F3 whose abelianizations return vectors at
# different periods: none (torus), every n (unipotent), even n (swap),
# multiples of 3 (permutation), and the tribonacci map
RETURN_AUTOS = {
    "torus": (2, TORUS_AUTO),
    "unipotent": (2, ({"x": "x", "y": "y x"}, {"x": "x", "y": "y x^-1"})),
    "swap": (2, ({"x": "y", "y": "x"}, {"x": "y", "y": "x"})),
    "perm3": (3, ({"x": "y", "y": "z", "z": "x"}, {"x": "z", "y": "x", "z": "y"})),
    "tribonacci": (3, ({"x": "y", "y": "z", "z": "x y"},
                       {"x": "z x^-1", "y": "x", "z": "y"})),
}


@pytest.mark.parametrize("name", RETURN_AUTOS)
def test_abelian_returns_match_stepping(name):
    # the periods decided once per scan against M^n v stepped for every
    # word and every n, over each cyclically reduced word of length <= 4
    rank, auto = RETURN_AUTOS[name]
    eng = SemidirectEngine(FreeEngine(rank), *auto)
    words = list(cyclically_reduced_words(rank, 4))
    for max_period in range(1, 13):
        got = witness._abelian_returns(eng, max_period)
        want = reference_returns(eng, max_period)
        for w in words:
            assert list(got(w)) == want(w), (max_period, w)


def test_pcc_scan_decides_each_period_once(monkeypatch):
    # M^n - I is eliminated at most once per n and scan, and only when a
    # word with a nonzero exponent-sum vector first asks for n: the
    # unipotent scan passes at its first word x with n = 1
    calls = []

    def counting(rows, ncols=None):
        calls.append(len(rows))
        return eliminate(rows, ncols)

    monkeypatch.setattr(witness, "eliminate", counting)
    assert pcc_scan(unipotent_free_engine(), 4, 3).certificate.n == 1
    assert len(calls) == 1
    calls.clear()
    assert pcc_scan(torus_engine(), 8, 4).certificate.n == 2
    assert len(calls) == 8


def test_pcc_scan_on_f2_always_finds_a_class():
    # every automorphism of F2 sends [x, y] to a conjugate of
    # [x, y]^+-1 (Nielsen 1918), so alpha^2 fixes the class of [x, y],
    # a cyclically reduced word of length 4, and a scan with
    # max_period >= 2 and max_length >= 4 always certifies
    free = FreeEngine(2)
    comm = (0, 1, 1, 1, 0, -1, 1, -1)
    inverted = 0
    for fwd, bwd in _nielsen_products(2, count=50, seed=41):
        eng = SemidirectEngine(free, fwd, bwd)
        img = eng.auto_power(comm, 1)
        if free.conjugacy_test(comm, img) is None:
            assert free.conjugacy_test(wordops.invert_word(comm), img) is not None
            inverted += 1
        cert = pcc_scan(eng, 2, 4).certificate
        assert cert is not None and cert.n <= 2, fwd
    assert inverted > 10


# ---------------------------------------------------------------------------
# memoized abelian-base data


MEMOS = (classify_char_poly, witness._expansion_power, witness._periodic_class)


def test_memos_are_bounded():
    for memo in MEMOS:
        assert memo.cache_info().maxsize is not None, memo


# actions whose expansion power exceeds 1: the golden ratio and the
# plastic number are below the margin
SLOW_MATRICES = ([[0, 1], [1, 1]], [[0, 0, 1], [1, 0, 1], [0, 1, 0]])


# finite-order actions: rot4 and the 3-cycle perm3
FINITE_ORDER = ([[0, -1], [1, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
SHEAR = [[1, 1], [0, 1]]


def _orbit_cases(rng):
    """(N, v) pairs as ``_abelian_case`` meets them: seeded unimodular
    2x2 and 3x3 matrices M, some conjugates of SLOW_MATRICES, with
    random v; M + -M, whose eigenvalues lambda and -lambda collide under
    R^2, with v random or inside the first block; and P (A + [+-1]) P^-1
    with v in P's image of A's block, whose orbit lattice has rank 2 of
    3.  Then root-of-unity actions with random v: conjugates of rot4,
    perm3, the unipotent shear and the block sum of a finite-order block
    and the shear."""
    def vec(n):
        return [rng.randint(-2, 2) for _ in range(n)]

    for _ in range(100):
        n = rng.choice((2, 3))
        m = elementary_product(rng, n, rng.randint(2, 7))
        if rng.random() < 0.3:
            p = elementary_product(rng, n, rng.randint(1, 5))
            m = mat_mul(mat_mul(p, SLOW_MATRICES[n - 2]), mat_inv_unimodular(p))
        yield m, vec(n)
        both = block_diag(m, mat_scale(m, -1))
        yield both, vec(2 * n)
        yield both, vec(n) + [0] * n
        a = elementary_product(rng, 2, rng.randint(2, 7))
        p = elementary_product(rng, 3, rng.randint(1, 5))
        yield (mat_mul(mat_mul(p, block_diag(a, [[rng.choice((-1, 1))]])),
                       mat_inv_unimodular(p)),
               list(mat_vec(p, vec(2) + [0])))
    for _ in range(20):
        for m in FINITE_ORDER + (SHEAR, block_diag(rng.choice(FINITE_ORDER), SHEAR)):
            p = elementary_product(rng, len(m), rng.randint(1, 5))
            yield mat_mul(mat_mul(p, m), mat_inv_unimodular(p)), vec(len(m))


def test_expansion_power_matches_krylov_reference():
    # K from char(R) alone equals the Krylov search for v's own
    # annihilator under each power of R, computed afresh for each
    # polynomial
    witness._expansion_power.cache_clear()
    rng = random.Random(23)
    exponential = deficient = collided = 0
    for n_mat, v in _orbit_cases(rng):
        if not any(v):
            continue
        basis = witness._invariant_lattice(n_mat, v)
        r_mat = witness._restricted_matrix(n_mat, basis)
        cls = classify_abelian_by_cyclic(r_mat)
        if cls.kind != EXPONENTIAL:
            continue
        v_coords = reference_lattice_coords(basis, v)
        k_pow = witness._expansion_power(cls.char.coeffs)
        assert k_pow == reference_expansion_power(r_mat, v_coords), (n_mat, v)
        exponential += 1
        deficient += len(basis) < len(v)
        collided += len(basis) == len(v) >= 4 and k_pow > 1
    assert exponential > 150 and deficient > 40 and collided > 10


def test_root_of_unity_action_restricts_to_a_virtually_nilpotent_one():
    # the theorem behind the shortcut in _abelian_case: R is N on an N-
    # and N^-1-invariant lattice, so char(R) divides char(N) in Z[t]
    # (Gauss's lemma), and when char(N) strips to 1 the lattice path can
    # only classify R as VirtuallyNilpotent
    rng = random.Random(25)
    finite = deficient = 0
    for n_mat, v in _orbit_cases(rng):
        if not any(v):
            continue
        char_n = char_poly(n_mat).coeffs
        is_finite = witness._periodic_class(tuple(map(tuple, n_mat)))[2]
        assert is_finite == (strip_cyclotomic(char_n)[0] == [1]), n_mat
        basis = witness._invariant_lattice(n_mat, v)
        r_mat = witness._restricted_matrix(n_mat, basis)
        char_r = char_poly(r_mat).coeffs
        assert not any(poly_divmod(list(char_n), list(char_r))[1]), (n_mat, v)
        if is_finite:
            assert classify_abelian_by_cyclic(r_mat).kind == VIRTUALLY_NILPOTENT, (n_mat, v)
            finite += 1
            deficient += len(basis) < len(v)
    assert finite > 200 and deficient > 100


def _outcome(coords, basis, target):
    try:
        return coords(basis, target)
    except AssertionError as exc:
        return str(exc)


def _one_target_coords(basis, target):
    return witness._lattice_coords(basis, [target])[0]


def test_lattice_coords_match_fraction_reference():
    # substitution down the Hermite pivots against a rational solve, on
    # the images N b of the basis, integer combinations of it, and
    # random targets, some in the span but not the lattice, some outside
    rng = random.Random(24)
    outcomes = Counter()
    for n_mat, v in _orbit_cases(rng):
        if not any(v):
            continue
        basis = witness._invariant_lattice(n_mat, v)
        targets = [v] + [list(mat_vec(n_mat, b)) for b in basis]
        coeffs = [rng.randint(-3, 3) for _ in basis]
        targets.append([sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(v))])
        targets += [[rng.randint(-3, 3) for _ in v] for _ in range(3)]
        for target in targets:
            want = _outcome(reference_lattice_coords, basis, target)
            assert _outcome(_one_target_coords, basis, target) == want, (basis, target)
            outcomes[want if isinstance(want, str) else "coords"] += 1
    assert outcomes["lattice coordinates are not integral"] > 200
    assert outcomes["target vector lies outside the lattice"] > 300
    assert outcomes["coords"] > 1000


def _short_words(names):
    """Every reduced word of length 1 or 2 over the generators."""
    units = [(g, e) for g in names for e in (1, -1)]
    words = [Word.of([u]) for u in units]
    words += [Word.of([u, w]) for u in units for w in units
              if u != (w[0], -w[1])]
    return list(dict.fromkeys(words))


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _pcc_bytes(result):
    cert = result.certificate
    return json.dumps([cert and cert.to_json(), result.exact, result.note])


@pytest.mark.parametrize("build", [rot4_engine, shear_engine, fib_engine,
                                   slow_fib_engine], ids=lambda b: b.__name__)
def test_memo_state_changes_no_answer(build):
    eng = build()
    sets = list(itertools.combinations(_short_words(eng.gen_names), 2))
    cold = []
    for gens in sets:
        _clear_memos()
        cold.append(json.dumps(analyze(eng, gens, 3.0, 2).to_json()))
    warm = [json.dumps(analyze(eng, gens, 3.0, 2).to_json()) for gens in sets]
    assert warm == cold
    bounds = [(1, 1), (3, 1), (8, 2)]
    cold = []
    for max_period, max_length in bounds:
        _clear_memos()
        cold.append(_pcc_bytes(pcc_scan(eng, max_period, max_length)))
    assert [_pcc_bytes(pcc_scan(eng, *b)) for b in bounds] == cold
