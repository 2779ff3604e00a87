import random

import pytest

from growthlab.laurent import (
    NOT_FG,
    POSSIBLY_FG,
    LaurentError,
    LaurentPoly,
    RewriteError,
    abelianize,
    alexander_polynomial,
    fg_kernel_obstruction,
    laurent_gcd,
    monic_both_ends,
    rs_rewrite,
    sticking_contradiction,
)

from util import laurent_normalized, laurent_shift


def P(*pairs):
    return LaurentPoly(list(pairs))


# ---------------------------------------------------------------------------
# ring mechanics


def test_constructor_merges_and_drops_zeros():
    assert P((0, 1), (0, 1)) == P((0, 2))
    assert P((2, 5), (2, -5)) == LaurentPoly()
    assert LaurentPoly().is_zero()


def test_of_list_and_term():
    assert LaurentPoly.of_list([1, 0, 3]) == P((0, 1), (2, 3))
    assert LaurentPoly({-2: 4}) == P((-2, 4))
    assert LaurentPoly({0: 1}) == P((0, 1))


def test_degree_is_exponent_span():
    assert P((0, 1), (1, 1)).degree == 1
    assert P((-3, 2), (2, 1)).degree == 5
    assert P((7, 9)).degree == 0
    with pytest.raises(LaurentError):
        LaurentPoly().min_exp


def test_normalized_anchors_bottom_and_sign():
    p = P((3, -2), (5, -1))
    q = laurent_normalized(p)
    assert q.min_exp == 0
    assert q.coeffs[q.max_exp] > 0
    assert q == P((0, 2), (2, 1))
    assert laurent_shift(laurent_shift(p, 3), -3) == p


def test_format_layouts():
    assert P((0, 1), (1, 1)).format() == "1 + t"
    assert P((0, -1), (1, 1)).format() == "-1 + t"
    assert P((0, -2), (1, 1)).format() == "-2 + t"
    assert P((2, 1)).format() == "t^2"
    assert P((1, 3)).format() == "3*t"
    assert LaurentPoly().format() == "0"


# ---------------------------------------------------------------------------
# gcd


def test_gcd_examples():
    g = laurent_gcd([P((0, -1), (1, 1)), P((0, -1), (2, 1))])
    assert g == P((0, -1), (1, 1))
    g = laurent_gcd([P((0, 2), (1, 2)), P((1, 1), (2, 1))])
    assert g == P((0, 1), (1, 1))


def test_gcd_of_coprime_is_unit():
    g = laurent_gcd([P((0, 1), (1, 1)), P((0, -1), (1, 1))])
    assert g == P((0, 1))
    # t+1 and t-1 generate content 2 over Z after combination, but the
    # polynomial gcd itself is 1
    assert laurent_gcd([P((0, 1)), P((0, 5))]) == P((0, 1))


def test_gcd_divides_inputs_random():
    rng = random.Random(42)

    def rand_poly():
        while True:
            p = LaurentPoly([(rng.randrange(-3, 4), rng.randrange(-4, 5))
                             for _ in range(rng.randrange(1, 5))])
            if not p.is_zero():
                return p

    from growthlab.laurent import divides
    for _ in range(500):
        a, b = rand_poly(), rand_poly()
        g = laurent_gcd([a, b])
        assert divides(g, a)
        assert divides(g, b)
        # scaling invariance up to normalization
        assert laurent_gcd([laurent_shift(a, 2), b]) == g


def test_gcd_rejects_all_zero():
    with pytest.raises(LaurentError):
        laurent_gcd([LaurentPoly(), LaurentPoly()])
    with pytest.raises(LaurentError):
        laurent_gcd([])


def test_gcd_ignores_zero_members():
    assert laurent_gcd([LaurentPoly(), P((0, -1), (1, 1))]) == \
        P((0, -1), (1, 1))


# ---------------------------------------------------------------------------
# kernel rewriting


def test_rewrite_klein_relator():
    r = rs_rewrite("t x t^-1 x")
    assert r.format() == "x_1 x_0"
    assert abelianize(r) == P((0, 1), (1, 1))


def test_rewrite_torus_relator():
    r = rs_rewrite("t x t^-1 x^-1")
    assert r.format() == "x_1 x_0^-1"
    assert abelianize(r) == P((0, -1), (1, 1))


def test_rewrite_expands_exponents():
    r = rs_rewrite("t x t^-1 x^-2")
    assert abelianize(r) == P((0, -2), (1, 1))


def test_rewrite_keeps_exponents_as_runs():
    # one run per x-letter: the terms do not grow with the exponent
    r = rs_rewrite("t x^1000000 t^-1 x^-1000000")
    assert len(r.terms) <= 4
    assert abelianize(r) == P((0, -1000000), (1, 1000000))
    assert rs_rewrite("t x^2 t^-1 x^-3").format() == (
        "x_1 x_1 x_0^-1 x_0^-1 x_0^-1")


def test_rewrite_requires_balanced_t():
    with pytest.raises(RewriteError):
        rs_rewrite("t x")
    with pytest.raises(RewriteError):
        rs_rewrite("t^2 x t^-1")


def test_rewrite_rejects_foreign_letters():
    with pytest.raises(RewriteError):
        rs_rewrite("t z t^-1 z^-1")


@pytest.mark.parametrize("text, message", [
    # a foreign letter wins over an unbalanced t, wherever it stands
    ("t x z", "unexpected letter 'z': relators use t and x only"),
    ("z t^3", "unexpected letter 'z': relators use t and x only"),
    ("t^2 x t^-1 y", "unexpected letter 'y': relators use t and x only"),
    ("t^2 x t^-1", "t-exponent sum is 1, not 0"),
    ("t^-4 x", "t-exponent sum is -4, not 0"),
])
def test_rewrite_error_order(text, message):
    with pytest.raises(RewriteError) as info:
        rs_rewrite(text)
    assert str(info.value) == message


def test_rewrite_conjugation_shifts_abelianization():
    rng = random.Random(43)
    letters = ["t", "t^-1", "x", "x^-1", "x^2", "x^-2"]
    for _ in range(200):
        body = " ".join(rng.choice(letters) for _ in range(rng.randrange(1, 7)))
        try:
            base = abelianize(rs_rewrite(body))
        except RewriteError:
            continue
        shifted = abelianize(rs_rewrite("t " + body + " t^-1"))
        assert shifted == laurent_shift(base, 1)


# ---------------------------------------------------------------------------
# Alexander polynomials


def test_alexander_goldens():
    assert alexander_polynomial(["t x t^-1 x"]) == P((0, 1), (1, 1))
    assert alexander_polynomial(["t x t^-1 x^-1"]) == P((0, -1), (1, 1))
    d = alexander_polynomial(["t x t^-1 x^-2"])
    assert d == P((0, -2), (1, 1))
    assert not monic_both_ends(d)
    assert fg_kernel_obstruction(d) == NOT_FG


def test_alexander_multiple_relators():
    d = alexander_polynomial(["t x t^-1 x^-1", "t t x t^-1 t^-1 x^-1"])
    assert d == P((0, -1), (1, 1))


def test_monic_both_ends():
    assert monic_both_ends(P((0, 1), (1, 1)))
    assert monic_both_ends(P((0, -1), (2, 1)))
    assert not monic_both_ends(P((0, 2), (1, 1)))
    assert not monic_both_ends(P((0, 1), (1, 2)))
    assert monic_both_ends(P((0, 1)))
    with pytest.raises(LaurentError):
        monic_both_ends(LaurentPoly())


def test_fg_obstruction():
    assert fg_kernel_obstruction(P((0, 1), (1, 1))) == POSSIBLY_FG
    assert fg_kernel_obstruction(P((0, -2), (1, 1))) == NOT_FG


# ---------------------------------------------------------------------------
# the sticking contradiction


def test_sticking_contradiction_basic():
    v = sticking_contradiction(1, 2)
    assert v.contradiction
    assert v.case == "delta_unit_forced"


def test_sticking_beta_unit_no_contradiction():
    v = sticking_contradiction(1, 1)
    assert not v.contradiction
    assert v.case == "beta_unit"


def test_sticking_exhaustive_coprime():
    from math import gcd
    for alpha in range(-10, 11):
        for beta in range(2, 11):
            if alpha == 0 or gcd(abs(alpha), beta) != 1:
                continue
            assert sticking_contradiction(alpha, beta).contradiction


def test_sticking_rejects_degenerate():
    with pytest.raises(LaurentError):
        sticking_contradiction(0, 2)
    with pytest.raises(LaurentError):
        sticking_contradiction(2, 0)
    with pytest.raises(LaurentError):
        sticking_contradiction(2, 4)
