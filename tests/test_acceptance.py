"""Acceptance gate: the eight shipping criteria, one test each, with a
printed verdict line per criterion."""

import hashlib
import json
import math
import random
import time

import pytest

from growthlab._exact import strip_cyclotomic
from growthlab.cli import main as cli_main
from growthlab.engines import FreeEngine, KleinEngine
from growthlab.growth import ball_sizes
from growthlab.laurent import (
    NOT_FG,
    LaurentPoly,
    alexander_polynomial,
    divides,
    fg_kernel_obstruction,
    laurent_gcd,
    sticking_contradiction,
)
from growthlab.spectra import (
    IntPoly,
    char_poly,
    fixed_vector_of_power,
    mahler_gap_threshold,
    spectral_radius,
)
from growthlab.subgroups import is_cyclic_pair
from growthlab.witness import (
    INCONCLUSIVE,
    KERNEL_CHAIN_ESCAPE,
    NON_CYCLIC_PAIR,
    PERIODIC_CONJUGACY,
    SPECTRAL_EXPONENTIAL,
    analyze,
)
from growthlab.words import Word

from util import (
    at_matrix,
    family_engines,
    fib_engine,
    random_element,
    reference_balls,
    rot4_engine,
    torus_engine,
)

TORUS_SPEC = {
    "family": "semidirect",
    "base": {"family": "free", "rank": 2},
    "automorphism": {
        "forward": {"x": "y", "y": "x y"},
        "backward": {"x": "y x^-1", "y": "x"},
    },
}

# sha256 of the 50 word lists the survey selects, one set per line with
# its words joined by " | "
SURVEY_SHA256 = (
    "ad2d6ded98489ab261ae1c62f7d88fd3cdce9a9227cd7ce89415ccae5d4d8938")


def verdict(line):
    print(line, flush=True)


# ---------------------------------------------------------------------------
# shared computations, produced once


@pytest.fixture(scope="module")
def free2_table():
    eng = FreeEngine(2)
    gens = [eng.generator("x"), eng.generator("y")]
    return ball_sizes(eng, gens, 10)


@pytest.fixture(scope="module")
def klein_table():
    eng = KleinEngine()
    gens = [eng.generator("a"), eng.generator("t")]
    return ball_sizes(eng, gens, 20)


@pytest.fixture(scope="module")
def torus_survey():
    """The golden witness run plus 50 random verified generating sets,
    each with its certificate and radius-6 growth table."""
    start = time.monotonic()
    eng = torus_engine()
    golden = analyze(eng, ["t", "x"], 3.0, 2)
    x_el = eng.evaluate_word(Word.parse("x"))
    t_el = eng.evaluate_word(Word.parse("t"))

    def generates(elems):
        return any(x_el in ball and t_el in ball
                   for ball in reference_balls(eng, elems, 6))

    rng = random.Random(5005)
    names = ["t", "x", "y"]
    runs = []
    while len(runs) < 50:
        words = []
        for _ in range(rng.randrange(2, 5)):
            pairs = [(rng.choice(names), rng.choice([-1, 1]))
                     for _ in range(rng.randrange(1, 5))]
            words.append(Word.of(pairs))
        elems = [eng.evaluate_word(w) for w in words]
        if not generates(elems):
            continue
        cert = analyze(eng, words, 3.0, 2)
        table = ball_sizes(eng, elems, 6)
        runs.append((words, cert, table))
    return {
        "engine": eng,
        "golden": golden,
        "runs": runs,
        "elapsed": time.monotonic() - start,
    }


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_free_ball_counts(free2_table):
    start = time.monotonic()
    eng = FreeEngine(2)
    gens = [eng.generator("x"), eng.generator("y")]
    counts = [len(ball) for ball in reference_balls(eng, gens, 6)]
    assert counts == [2 * 3 ** n - 1 for n in range(7)]
    assert free2_table.counts == [2 * 3 ** n - 1 for n in range(11)]
    est10 = free2_table.estimates()[10]
    assert 3.0 <= est10 <= 3.25
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    verdict(f"criterion 1: PASS (gamma matches 2*3^n-1, estimate(10)={est10:.4f})")


def test_criterion_2_klein_polynomial_growth(klein_table):
    est = klein_table.estimates()
    for n in range(6, 21):
        assert est[n] < est[n - 1], f"criterion 2: FAIL (estimate rose at n={n})"
    assert est[20] < 1.35, (
        f"criterion 2: FAIL (estimate(20)={est[20]:.10f} is not below 1.35; "
        f"gamma(20)={klein_table.counts[20]})")
    verdict(f"criterion 2: PASS (estimate(20)={est[20]:.10f})")


def test_criterion_3_alexander_goldens():
    start = time.monotonic()
    klein = alexander_polynomial(["t x t^-1 x"])
    torus = alexander_polynomial(["t x t^-1 x^-1"])
    bs12 = alexander_polynomial(["t x t^-1 x^-2"])
    assert klein.format() == "1 + t"
    assert torus.format() == "-1 + t"
    assert bs12.format() == "-2 + t"
    assert fg_kernel_obstruction(klein) != NOT_FG
    assert fg_kernel_obstruction(torus) != NOT_FG
    assert fg_kernel_obstruction(bs12) == NOT_FG
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    verdict("criterion 3: PASS (t+1, t-1, t-2 with NotFG)")


def test_criterion_4_sticking_exhaustive():
    start = time.monotonic()
    checked = 0
    for alpha in range(-10, 11):
        for beta in range(-10, 11):
            if alpha == 0 or abs(beta) < 2:
                continue
            if math.gcd(alpha, beta) != 1:
                continue
            assert sticking_contradiction(alpha, beta).contradiction
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    verdict(f"criterion 4: PASS ({checked} coprime pairs, {elapsed:.3f}s)")


def test_criterion_5_witness_survey(torus_survey):
    golden = torus_survey["golden"]
    assert golden.variant == NON_CYCLIC_PAIR
    assert golden.max_A_length <= 6
    assert abs(golden.bound - 3.0 ** (1.0 / 6.0)) < 1e-12
    assert abs(golden.bound - 1.2009369551760027) < 1e-12
    for words, cert, table in torus_survey["runs"]:
        label = ", ".join(str(w) for w in words)
        assert cert.variant != INCONCLUSIVE, (
            f"criterion 5: FAIL (inconclusive on {{{label}}}: {cert.diagnostics})")
        if cert.bound is not None:
            for n in range(1, table.radius + 1):
                assert table.estimates()[n] >= cert.bound, (
                    f"criterion 5: FAIL (estimate below bound on {{{label}}})")
    # the generating sets the survey draws, pinned: a change to the
    # engines or to the reference BFS must not change the selection
    selection = "\n".join(" | ".join(str(w) for w in words)
                          for words, _, _ in torus_survey["runs"])
    assert hashlib.sha256(selection.encode()).hexdigest() == SURVEY_SHA256
    assert torus_survey["elapsed"] < 300.0
    verdict(
        f"criterion 5: PASS (golden bound {golden.bound:.10f}, 50 random "
        f"sets certified in {torus_survey['elapsed']:.1f}s)")


def test_criterion_6_spectra_goldens():
    start = time.monotonic()
    fib = char_poly([[2, 1], [1, 1]])
    assert strip_cyclotomic(fib.coeffs)[0] != [1]
    assert abs(spectral_radius(fib) - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-6
    rot = char_poly([[0, -1], [1, 0]])
    assert strip_cyclotomic(rot.coeffs)[0] == [1]
    assert fixed_vector_of_power([[0, -1], [1, 0]], 4) == (1, 0)
    cert = analyze(rot4_engine(), ["t", "e1"], 3.0, 2)
    assert cert.variant == PERIODIC_CONJUGACY
    assert cert.k_word == "e1"
    assert cert.n == 4
    gap = mahler_gap_threshold(3)
    offenders = []
    for degree in (1, 2, 3):
        for packed in range(9 ** degree):
            coeffs = []
            q = packed
            for _ in range(degree):
                coeffs.append(q % 9 - 4)
                q //= 9
            poly = IntPoly(tuple(coeffs) + (1,))
            radius = spectral_radius(poly)
            if 1.0 < radius <= gap and \
                    strip_cyclotomic(poly.coeffs)[0] != [1]:
                offenders.append(poly.format())
    assert offenders == []
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    verdict(f"criterion 6: PASS (819 polynomials swept in {elapsed:.1f}s)")


def reverify_certificate(engine, cert):
    if cert.variant == NON_CYCLIC_PAIR:
        uel = engine.evaluate_word(Word.parse(cert.u_word))
        vel = engine.evaluate_word(Word.parse(cert.v_word))
        assert not is_cyclic_pair(engine, uel, vel)
        assert cert.bound > 1.0
    elif cert.variant == PERIODIC_CONJUGACY:
        base = engine.base
        k_el = base.evaluate_word(Word.parse(cert.k_word))
        c_el = base.evaluate_word(Word.parse(cert.c_word))
        lhs = engine.auto_power(k_el, cert.n)
        rhs = base.multiply(base.multiply(c_el, k_el), base.invert(c_el))
        assert lhs == rhs
    elif cert.variant == SPECTRAL_EXPONENTIAL:
        poly = char_poly([list(row) for row in cert.matrix])
        assert abs(spectral_radius(poly) - cert.m) < 1e-9
        assert cert.m > 1.0
        assert cert.bound > 1.0
    elif cert.variant == KERNEL_CHAIN_ESCAPE:
        assert cert.bound > 1.0
        assert cert.depth >= 1
    assert cert.reverified is True


def test_criterion_7_property_suites(free2_table, klein_table, torus_survey):
    rng = random.Random(7007)
    for eng in family_engines():
        for _ in range(1000):
            a = random_element(rng, eng, max_len=4)
            b = random_element(rng, eng, max_len=4)
            c = random_element(rng, eng, max_len=4)
            assert eng.multiply(eng.multiply(a, b), c) == \
                eng.multiply(a, eng.multiply(b, c))
            assert eng.multiply(a, eng.identity) == a
            assert eng.multiply(eng.invert(a), a) == eng.identity

    free2_table.validate()
    klein_table.validate()
    for _, _, table in torus_survey["runs"]:
        table.validate()

    def random_poly():
        while True:
            terms = {e: rng.randint(-5, 5)
                     for e in rng.sample(range(-4, 5), rng.randrange(1, 4))}
            p = LaurentPoly(terms)
            if not p.is_zero():
                return p

    for _ in range(500):
        p, q = random_poly(), random_poly()
        g = laurent_gcd([p, q])
        assert divides(g, p) and divides(g, q)

    eng = torus_survey["engine"]
    reverify_certificate(eng, torus_survey["golden"])
    for _, cert, _ in torus_survey["runs"]:
        reverify_certificate(eng, cert)
    fib_cert = analyze(fib_engine(), ["t", "e1"], 3.0, 2)
    assert fib_cert.variant == SPECTRAL_EXPONENTIAL
    reverify_certificate(fib_engine(), fib_cert)

    for _ in range(200):
        size = rng.randrange(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        zero = [[0] * size for _ in range(size)]
        assert at_matrix(char_poly(mat), mat) == zero
    verdict("criterion 7: PASS (axioms, tables, gcds, certificates, "
            "Cayley-Hamilton)")


def test_criterion_8_thread_determinism(tmp_path, capsys, torus_survey):
    free2 = tmp_path / "free2.json"
    free2.write_text(json.dumps({"family": "free", "rank": 2}), encoding="utf-8")
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(TORUS_SPEC), encoding="utf-8")
    survey_words = torus_survey["runs"][0][0]
    survey_gens = ",".join(str(w) for w in survey_words)
    jobs = [
        ["growth", "--group", str(free2), "--gens", "x,y", "--radius", "10"],
        ["witness", "--group", str(torus), "--gens", "t,x",
         "--u", "3", "--d", "2", "--json"],
        ["witness", "--group", str(torus), "--gens", survey_gens,
         "--u", "3", "--d", "2", "--json"],
    ]
    for argv in jobs:
        outputs = []
        for threads in ("1", "2", "8"):
            code = cli_main(argv + ["--threads", threads])
            captured = capsys.readouterr()
            assert code == 0
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] == outputs[2]
    verdict("criterion 8: PASS (byte-identical across 1, 2, 8 threads)")
