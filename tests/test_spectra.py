import math
import random
from fractions import Fraction

import pytest

from growthlab._exact import strip_cyclotomic
from growthlab.spectra import (
    EXPONENTIAL,
    VIRTUALLY_NILPOTENT,
    IntPoly,
    SpectraError,
    char_poly,
    classify_abelian_by_cyclic,
    cyclotomic,
    euler_phi,
    fixed_vector_of_power,
    hermite_rows,
    mahler_gap_threshold,
    mat_det,
    mat_identity,
    mat_inv_unimodular,
    mat_mul,
    mat_pow,
    mat_vec,
    matrix_rank,
    max_root_modulus,
    roots_inside,
    smallest_cyclotomic_order,
    spectral_radius,
)

ROT4 = [[0, -1], [1, 0]]
FIB = [[2, 1], [1, 1]]


def rand_matrix(rng, n, lo=-3, hi=3):
    return [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# polynomial parsing and printing


def test_parse_standard_forms():
    assert IntPoly.parse("t^2-3t+1").coeffs == (1, -3, 1)
    assert IntPoly.parse("t^2+1").coeffs == (1, 0, 1)
    assert IntPoly.parse("t-2").coeffs == (-2, 1)
    assert IntPoly.parse("7").coeffs == (7,)
    assert IntPoly.parse("-t^3 + 2*t").coeffs == (0, 2, 0, -1)


def test_parse_rejects_garbage():
    with pytest.raises(SpectraError):
        IntPoly.parse("")
    with pytest.raises(SpectraError):
        IntPoly.parse("t^-1")
    with pytest.raises(SpectraError):
        IntPoly.parse("q^2")


def test_poly_eval_and_format():
    p = IntPoly.parse("t^2-3t+1")
    # evaluation at 1x1 matrices is evaluation at integers
    assert [p.at_matrix([[x]]) for x in (0, 1, 3)] == [[[1]], [[-1]], [[1]]]
    assert p.format() == "1 - 3*t + t^2"
    assert IntPoly.parse("t").format() == "t"


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_char_poly_known_matrices():
    assert char_poly(FIB).coeffs == (1, -3, 1)
    assert char_poly(ROT4).coeffs == (1, 0, 1)
    assert char_poly(mat_identity(2)).coeffs == (1, -2, 1)
    assert char_poly([[5]]).coeffs == (-5, 1)


def test_char_poly_determinant_and_trace_slots():
    rng = random.Random(51)
    for _ in range(100):
        n = rng.randrange(1, 5)
        m = rand_matrix(rng, n)
        p = char_poly(m)
        assert p.coeffs[-1] == 1
        assert p.coeffs[0] == (-1) ** n * mat_det(m)
        tr = sum(m[i][i] for i in range(n))
        assert p.coeffs[-2] == -tr if n >= 1 else True


def test_cayley_hamilton_random():
    rng = random.Random(52)
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = rand_matrix(rng, n)
        p = char_poly(m)
        zero = p.at_matrix(m)
        assert zero == [[0] * n for _ in range(n)]


# ---------------------------------------------------------------------------
# cyclotomic machinery


def test_euler_phi_small_values():
    assert [euler_phi(k) for k in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_t_power_minus_one():
    for n in (1, 2, 3, 4, 6, 8, 12):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, list(cyclotomic(d)))
        expect = [-1] + [0] * (n - 1) + [1]
        assert prod == expect


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_all_roots_of_unity_detection():
    assert strip_cyclotomic(IntPoly.parse("t^2+1").coeffs)[0] == [1]
    assert strip_cyclotomic(IntPoly.parse("t-1").coeffs)[0] == [1]
    assert strip_cyclotomic(IntPoly.parse("t^2+t+1").coeffs)[0] == [1]
    assert strip_cyclotomic(IntPoly.parse("t^2-3t+1").coeffs)[0] != [1]
    assert strip_cyclotomic(IntPoly.parse("t^2-t-1").coeffs)[0] != [1]
    assert strip_cyclotomic(IntPoly.parse("t-2").coeffs)[0] != [1]


def test_random_cyclotomic_products_classify_as_unity():
    rng = random.Random(53)
    for _ in range(50):
        coeffs = [1]
        for _ in range(rng.randrange(1, 4)):
            k = rng.choice([1, 2, 3, 4, 6])
            coeffs = _poly_mul(coeffs, list(cyclotomic(k)))
        assert strip_cyclotomic(coeffs)[0] == [1]


def test_smallest_cyclotomic_order():
    assert smallest_cyclotomic_order(IntPoly.parse("t^2+1")) == 4
    assert smallest_cyclotomic_order(IntPoly.parse("t-1")) == 1
    assert smallest_cyclotomic_order(IntPoly.parse("t^2-3t+1")) is None
    p = IntPoly.of(_poly_mul([1, 1], [1, -3, 1]))  # (t+1)(t^2-3t+1)
    assert smallest_cyclotomic_order(IntPoly.of(list(p.coeffs))) == 2


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_goldens():
    assert abs(spectral_radius(IntPoly.parse("t^2-3t+1"))
               - (3 + math.sqrt(5)) / 2) < 1e-6
    assert abs(spectral_radius(IntPoly.parse("t-2")) - 2.0) < 1e-9
    assert spectral_radius(IntPoly.parse("t^2+1")) == 1.0
    assert spectral_radius(IntPoly.parse("t-1")) == 1.0


def test_spectral_radius_mixed_cyclotomic_factor():
    # (t-1)(t-3): the cyclotomic part must not hide the 3
    p = IntPoly.of(_poly_mul([-1, 1], [-3, 1]))
    assert abs(spectral_radius(p) - 3.0) < 1e-6


def test_max_root_modulus_plain():
    assert abs(max_root_modulus([-2, 1]) - 2.0) < 1e-9
    assert abs(max_root_modulus([1, -3, 1]) - (3 + math.sqrt(5)) / 2) < 1e-9


def test_max_root_modulus_repeated_roots():
    # (t-3)^3: the iteration runs on the square-free part t-3
    assert abs(max_root_modulus([-27, 27, -9, 1]) - 3.0) < 3e-12
    fib3 = IntPoly.of(_poly_mul(_poly_mul([1, -3, 1], [1, -3, 1]), [1, -3, 1]))
    golden = (3 + math.sqrt(5)) / 2
    assert abs(spectral_radius(fib3) - golden) < 1e-12 * golden


def test_max_root_modulus_zero_roots():
    assert max_root_modulus([0, 0, 1]) == 0.0
    assert abs(max_root_modulus([0, 0, -2, 1]) - 2.0) < 1e-12


def test_spectral_radius_requires_monic():
    with pytest.raises(SpectraError):
        spectral_radius(IntPoly.parse("2t-1"))
    with pytest.raises(SpectraError):
        spectral_radius(IntPoly.parse("5"))


# ---------------------------------------------------------------------------
# the gap threshold


def test_threshold_values():
    assert abs(mahler_gap_threshold(1) - (1 + 1 / (30 * math.log(6)))) < 1e-15
    assert abs(mahler_gap_threshold(1) - 1.0186036876) < 1e-9
    assert abs(mahler_gap_threshold(2) - 1.0033535800) < 1e-9


def test_threshold_strictly_decreasing():
    vals = [mahler_gap_threshold(d) for d in range(1, 11)]
    for a, b in zip(vals, vals[1:]):
        assert a > b > 1.0


# ---------------------------------------------------------------------------
# the exact disc test


def _linear(p, q):
    """q z - p, with the root p/q."""
    return [-p, q]


def _quadratic(a, b):
    """z^2 - 2a z + (a^2 + b^2), with the roots a +- bi."""
    return [a * a + b * b, -2 * a, 1]


def test_roots_inside_linear_factors():
    eps = Fraction(1, 10 ** 12)
    for p, q in ((3, 1), (-3, 1), (1, 2), (-7, 3), (5, 4)):
        root = Fraction(abs(p), q)
        assert roots_inside(_linear(p, q), root + eps)
        assert not roots_inside(_linear(p, q), root)
        assert not roots_inside(_linear(p, q), root - eps)
    assert roots_inside(_linear(0, 5), eps)


def test_roots_inside_root_on_the_circle_is_outside():
    assert not roots_inside([-3, 1], 3)
    assert not roots_inside(_quadratic(3, 4), 5)  # |3 +- 4i| = 5
    assert roots_inside(_quadratic(3, 4), Fraction(5000001, 1000000))
    assert not roots_inside(_quadratic(0, 1), 1)  # z^2 + 1
    assert not roots_inside(list(cyclotomic(12)), 1)


def test_roots_inside_quadratics_against_squared_modulus():
    radii = [Fraction(k, 4) for k in range(1, 33)]
    for a in range(-5, 6):
        for b in range(0, 6):
            mod2 = a * a + b * b
            for r in radii:
                assert roots_inside(_quadratic(a, b), r) == (mod2 < r * r), \
                    (a, b, r)


def test_roots_inside_zero_repeated_and_non_monic():
    # zero roots: z^3 and z^2 (z - 2)
    assert roots_inside([0, 0, 0, 1], Fraction(1, 100))
    assert roots_inside([0, 0, -2, 1], Fraction(201, 100))
    assert not roots_inside([0, 0, -2, 1], 2)
    # repeated roots: (2z - 3)^3 and (z^2 - 2z + 2)^2
    cube = _poly_mul(_poly_mul([-3, 2], [-3, 2]), [-3, 2])
    assert not roots_inside(cube, Fraction(3, 2))
    assert roots_inside(cube, Fraction(3, 2) + Fraction(1, 10 ** 9))
    square = _poly_mul(_quadratic(1, 1), _quadratic(1, 1))  # |1 +- i|^2 = 2
    assert not roots_inside(square, Fraction(141421, 100000))
    assert roots_inside(square, Fraction(141422, 100000))
    # non-monic: (2z - 1)(3z - 1) = 6z^2 - 5z + 1
    assert not roots_inside([1, -5, 6], Fraction(1, 2))
    assert roots_inside([1, -5, 6], Fraction(51, 100))
    # degree 0 has no zeros; nonpositive radii and the zero polynomial
    # are rejected
    assert roots_inside([7], Fraction(1, 3))
    with pytest.raises(SpectraError):
        roots_inside([-1, 1], 0)
    with pytest.raises(SpectraError):
        roots_inside([0, 0], 1)


def test_roots_inside_random_products_of_known_factors():
    rng = random.Random(56)
    for _ in range(300):
        coeffs = [rng.choice([-3, -1, 1, 2, 5])]
        mods2 = []  # squared root moduli, exact
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:
                p, q = rng.randrange(-6, 7), rng.randrange(1, 4)
                coeffs = _poly_mul(coeffs, _linear(p, q))
                mods2.append(Fraction(p, q) ** 2)
            else:
                a, b = rng.randrange(-3, 4), rng.randrange(0, 4)
                coeffs = _poly_mul(coeffs, _quadratic(a, b))
                mods2.append(Fraction(a * a + b * b))
        top = max(mods2)
        # the second radius is the largest modulus itself whenever that
        # is rational, which puts a root on the circle
        near_top = Fraction(math.isqrt(top.numerator),
                            math.isqrt(top.denominator))
        for r in (Fraction(rng.randrange(1, 40), rng.randrange(1, 8)),
                  near_top):
            if r > 0:
                assert roots_inside(coeffs, r) == (top < r * r), (coeffs, r)


def test_roots_inside_brackets_max_root_modulus():
    # the desk-check family: monic, degree <= 3, coefficients in [-4, 4]
    for deg in (1, 2, 3):
        for packed in range(9 ** deg):
            rest = packed
            coeffs = []
            for _ in range(deg):
                coeffs.append(rest % 9 - 4)
                rest //= 9
            coeffs.append(1)
            m = max_root_modulus(coeffs)
            if m > 0:
                assert roots_inside(coeffs, m * (1 + 1e-9)), coeffs
                assert not roots_inside(coeffs, m * (1 - 1e-9)), coeffs


def test_mahler_gap_desk_check():
    # no monic polynomial of degree <= 3 with small coefficients sits in
    # the gap (1, threshold(3)] unless all roots are roots of unity
    thr = mahler_gap_threshold(3)
    for deg in (1, 2, 3):
        for packed in range(9 ** deg):
            rest = packed
            coeffs = []
            for _ in range(deg):
                coeffs.append(rest % 9 - 4)
                rest //= 9
            p = IntPoly.of(coeffs + [1])
            r = spectral_radius(p)
            if 1.0 < r <= thr:
                assert strip_cyclotomic(p.coeffs)[0] == [1], p.format()


# ---------------------------------------------------------------------------
# classification


def test_classify_rot4_virtually_nilpotent():
    cls = classify_abelian_by_cyclic(ROT4)
    assert cls.kind == VIRTUALLY_NILPOTENT
    assert cls.char.coeffs == (1, 0, 1)


def test_classify_fib_exponential():
    cls = classify_abelian_by_cyclic(FIB)
    assert cls.kind == EXPONENTIAL
    assert abs(cls.m - (3 + math.sqrt(5)) / 2) < 1e-6
    assert cls.threshold == mahler_gap_threshold(2)


def test_classify_requires_unimodular():
    with pytest.raises(SpectraError):
        classify_abelian_by_cyclic([[2, 0], [0, 1]])


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


@pytest.mark.parametrize("copies", [1, 2, 3, 4])
def test_classify_repeated_eigenvalues(copies):
    cls = classify_abelian_by_cyclic(_block_diag(*[FIB] * copies))
    golden = (3 + math.sqrt(5)) / 2
    assert cls.kind == EXPONENTIAL
    assert abs(cls.m - golden) < 1e-12 * golden


def test_classify_strips_cyclotomic_factors():
    # (t+1)(t^2-3t+1): the radius is that of the non-cyclotomic part
    cls = classify_abelian_by_cyclic(_block_diag([[-1]], FIB))
    assert cls.kind == EXPONENTIAL
    assert abs(cls.m - (3 + math.sqrt(5)) / 2) < 1e-12 * cls.m
    cls = classify_abelian_by_cyclic(_block_diag([[-1]], ROT4))
    assert cls.kind == VIRTUALLY_NILPOTENT and cls.m is None


# ---------------------------------------------------------------------------
# fixed vectors


def test_fixed_vector_rot4():
    assert fixed_vector_of_power(ROT4, 4) == (1, 0)
    assert fixed_vector_of_power(ROT4, 1) is None
    assert fixed_vector_of_power(ROT4, 2) is None


def test_fixed_vector_fib_never_periodic():
    for r in range(1, 13):
        assert fixed_vector_of_power(FIB, r) is None


def test_fixed_vector_identity():
    assert fixed_vector_of_power(mat_identity(3), 1) == (1, 0, 0)


def test_fixed_vector_is_verified_fixed():
    rng = random.Random(54)
    found = 0
    for _ in range(200):
        m = rand_matrix(rng, 2, -1, 1)
        if abs(mat_det(m)) != 1:
            continue
        for r in (1, 2, 3, 4, 6):
            v = fixed_vector_of_power(m, r)
            if v is not None:
                assert tuple(mat_vec(mat_pow(m, r), list(v))) == tuple(v)
                found += 1
    assert found > 10


# ---------------------------------------------------------------------------
# integer linear algebra helpers


def test_mat_pow_and_inverse():
    assert mat_pow(FIB, 0) == mat_identity(2)
    assert mat_pow(FIB, 2) == mat_mul(FIB, FIB)
    inv = mat_inv_unimodular(FIB)
    assert mat_mul(FIB, inv) == mat_identity(2)
    assert mat_pow(FIB, -1) == inv
    with pytest.raises(SpectraError):
        mat_inv_unimodular([[2, 0], [0, 1]])


def test_matrix_rank():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[2, 4], [1, 2]]) == 1
    assert matrix_rank([[0, 0], [0, 0]]) == 0


def test_hermite_rows_canonical():
    rows = hermite_rows([[-1, 1], [-1, -1], [1, 1]])
    assert rows == [[1, 1], [0, 2]]
    assert hermite_rows([[0, 0]]) == []
    assert hermite_rows([[2, 0], [0, 3]]) == [[2, 0], [0, 3]]


def test_hermite_rows_lattice_invariance():
    rng = random.Random(55)
    for _ in range(100):
        base = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(2)]
        h1 = hermite_rows(base)
        # shuffling and adding row combinations keeps the lattice
        noisy = [list(base[1]), list(base[0]),
                 [a + b for a, b in zip(base[0], base[1])]]
        assert hermite_rows(noisy) == h1
