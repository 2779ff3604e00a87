"""Oracle tests for the exact algebra core: the fraction-free
elimination, the Z[t] division and gcd, and the cyclotomic pass, each
on a seeded random family checked against an independent computation."""

import itertools
import math
import random
from fractions import Fraction

from growthlab._exact import (
    eliminate,
    format_terms,
    mat_mul,
    mat_vec,
    poly_divmod,
    strip_cyclotomic,
)
from growthlab.laurent import LaurentPoly, divides, laurent_gcd
from growthlab.spectra import (
    IntPoly,
    cyclotomic,
    fixed_vector_of_power,
    mat_identity,
    mat_pow,
    mat_sub,
)

from util import (
    elementary_product,
    laurent_normalized,
    mat_det,
    mat_inv_unimodular,
    matrix_rank,
    solve,
)


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def fraction_rref(rows, ncols):
    """Textbook reduced row echelon form over Q, pivots in the first
    ncols columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def dependent_rows(rng, nrows, ncols, rank):
    """`rank` random basis rows plus random integer combinations of
    them, shuffled; the rank is `rank` when the basis is independent."""
    basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rank)]
    rows = [list(b) for b in basis]
    for _ in range(nrows - rank):
        coeffs = [rng.randint(-2, 2) for _ in range(rank)]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, basis))
                     for j in range(ncols)])
    rng.shuffle(rows)
    return rows, basis


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# elimination


def test_eliminate_matches_fraction_rref():
    rng = random.Random(61)
    for _ in range(1500):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        if rng.random() < 0.5:
            rows = [[rng.randint(-5, 5) for _ in range(ncols)]
                    for _ in range(nrows)]
        else:
            rows, _ = dependent_rows(rng, nrows, ncols,
                                     rng.randint(0, min(nrows, ncols)))
        pivot_cols = rng.randint(0, ncols)
        got, pivots, d, _ = eliminate(rows, pivot_cols)
        want, want_pivots = fraction_rref(rows, pivot_cols)
        assert pivots == want_pivots
        assert d != 0
        for i, row in enumerate(got):
            if i < len(pivots):
                assert [Fraction(x, d) for x in row] == want[i]
            else:
                assert not any(row[:pivot_cols])


def test_solve_recovers_combinations_and_rejects_outsiders():
    rng = random.Random(62)
    for _ in range(500):
        dim, k = rng.randint(1, 5), rng.randint(1, 4)
        cols = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
        target = [sum(xj * c[i] for xj, c in zip(x, cols)) for i in range(dim)]
        if any(t.denominator != 1 for t in target):
            continue
        target = [int(t) for t in target]
        sol = solve(cols, target)
        assert sol is not None
        assert [sum(s * c[i] for s, c in zip(sol, cols))
                for i in range(dim)] == target
        if matrix_rank(cols) == k:
            assert sol == x
        outsider = [rng.randint(-4, 4) for _ in range(dim)]
        if matrix_rank(cols + [outsider]) > matrix_rank(cols):
            assert solve(cols, outsider) is None


def test_mat_det_matches_leibniz():
    rng = random.Random(63)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        if rng.random() < 0.3:
            rows, _ = dependent_rows(rng, n, n, rng.randint(0, n - 1))
        else:
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        want = leibniz_det(rows)
        singular += want == 0
        assert mat_det(rows) == want
    assert singular >= 100


def test_mat_mul_of_non_square_shapes():
    # r x n times n x m against the entrywise sum, and a matrix times a
    # vector as the product with a one-column matrix
    assert mat_mul([[1, 2, 3], [4, 5, 6]], [[1, 0], [0, 1], [1, -1]]) == \
        [[4, -1], [10, -1]]
    rng = random.Random(70)
    for _ in range(200):
        r, n, m = (rng.randint(1, 5) for _ in range(3))
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
        b = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        assert mat_mul(a, b) == [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(m)]
            for i in range(r)]
        v = [row[0] for row in b]
        assert list(mat_vec(a, v)) == [row[0] for row in mat_mul(a, b)]


def test_mat_inv_unimodular_of_elementary_products():
    rng = random.Random(64)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = elementary_product(rng, n, rng.randint(0, 8))
        inv = mat_inv_unimodular(m)
        assert mat_mul(inv, m) == mat_identity(n)
        assert mat_mul(m, inv) == mat_identity(n)
        assert mat_det(m) == leibniz_det(m) in (1, -1)


def test_matrix_rank_of_constructed_deficient_rows():
    rng = random.Random(65)
    for _ in range(400):
        ncols = rng.randint(1, 6)
        rank = rng.randint(0, min(5, ncols))
        rows, basis = dependent_rows(rng, rank + rng.randint(0, 3), ncols, rank)
        # the basis rows are random, so check their independence apart
        # from the routine under test: some rank x rank minor is nonzero
        true_rank = rank if any(
            leibniz_det([[b[j] for j in cols] for b in basis])
            for cols in itertools.combinations(range(ncols), rank)) else None
        if true_rank is None:
            continue
        assert matrix_rank(rows) == true_rank
        assert matrix_rank(rows + [[0] * ncols]) == true_rank


def test_fixed_vector_of_power_is_fixed_and_primitive():
    rng = random.Random(66)
    rot4 = [[0, -1], [1, 0]]
    rot6 = [[0, -1], [1, 1]]
    found = absent = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        p = elementary_product(rng, n, rng.randint(0, 6))
        if rng.random() < 0.5 and n >= 2:
            # conjugate a rotation block so that some power has fixed vectors
            block = mat_identity(n)
            rot = rng.choice([rot4, rot6])
            for i in range(2):
                for j in range(2):
                    block[i][j] = rot[i][j]
            m = mat_mul(mat_mul(p, block), mat_inv_unimodular(p))
        else:
            m = p
        for r in (1, 2, 3, 4, 6):
            v = fixed_vector_of_power(m, r)
            singular = leibniz_det(mat_sub(mat_pow(m, r), mat_identity(n))) == 0
            if v is None:
                assert not singular
                absent += 1
                continue
            assert singular
            assert mat_vec(mat_pow(m, r), v) == v
            assert math.gcd(*v) == 1
            assert next(c for c in v if c) > 0
            found += 1
    assert found > 100 and absent > 100


# ---------------------------------------------------------------------------
# polynomials

NON_CYCLOTOMIC = [(-2, 1), (1, -3, 1), (-1, -1, 1), (-1, -1, 0, 1), (1, 2),
                  (2, 0, 1), (3, 1)]


def test_cyclotomic_pass_on_chosen_products():
    rng = random.Random(67)
    for _ in range(300):
        orders = [rng.randint(1, 12) for _ in range(rng.randint(0, 3))]
        others = [rng.choice(NON_CYCLOTOMIC) for _ in range(rng.randint(0, 2))]
        rest = [1]
        for f in others:
            rest = poly_mul(rest, list(f))
        coeffs = rest
        for k in orders:
            coeffs = poly_mul(coeffs, list(cyclotomic(k)))
        if len(coeffs) == 1:
            continue
        least = min(orders) if orders else None
        assert strip_cyclotomic(coeffs) == (rest, least)
        assert strip_cyclotomic(IntPoly.of(coeffs).coeffs)[1] == least


IRREDUCIBLE = [(-2, 1), (3, 1), (1, 0, 1), (-1, -1, 1), (1, 2), (-1, -1, 0, 1),
               (1, 1), (-2, 3), (1, 1, 1)]


def test_laurent_gcd_of_known_common_factor():
    rng = random.Random(68)

    def product(factors, shift, scale):
        coeffs = [1]
        for f in factors:
            coeffs = poly_mul(coeffs, list(f))
        return LaurentPoly({e + shift: scale * c for e, c in enumerate(coeffs)})

    for _ in range(300):
        picks = rng.sample(IRREDUCIBLE, rng.randint(0, 6))
        cut = rng.randint(0, len(picks))
        common, rest = picks[:cut], picks[cut:]
        split = rng.randint(0, len(rest))
        ca, cb = rng.randint(1, 6), rng.randint(1, 6)
        p = product(common + rest[:split], rng.randint(-3, 3),
                    ca * rng.choice([-1, 1]))
        q = product(common + rest[split:], rng.randint(-3, 3),
                    cb * rng.choice([-1, 1]))
        want = laurent_normalized(product(common, 0, math.gcd(ca, cb)))
        got = laurent_gcd([p, q])
        assert got == want
        assert divides(got, p) and divides(got, q)


def test_poly_divmod_stops_at_a_leading_coefficient_it_cannot_divide():
    # 2t^2 + 1 = (2t + 1) t + (1 - t); 2 does not divide the next leading
    # coefficient -1, so the division stops with the remainder 1 - t
    assert poly_divmod([1, 0, 2], [1, 2]) == ([0, 1], [1, -1])
    # (2t + 1)(t - 3) divides exactly
    assert poly_divmod([-3, -5, 2], [1, 2]) == ([-3, 1], [])


def test_divides_with_a_zero_polynomial():
    zero, one_plus_t = LaurentPoly(), LaurentPoly.of_list([1, 1])
    assert divides(zero, zero)
    assert not divides(zero, one_plus_t)
    assert divides(one_plus_t, zero)


# ---------------------------------------------------------------------------
# printing


def test_format_terms_goldens():
    assert format_terms([]) == "0"
    assert format_terms([(0, 0), (3, 0)]) == "0"
    assert format_terms([(0, -1), (1, 1)]) == "-1 + t"
    assert format_terms([(1, -1), (2, 1)]) == "-t + t^2"
    assert format_terms([(1, 3), (4, -2)]) == "3*t - 2*t^4"
    assert format_terms([(0, 2), (1, 0), (2, -1)]) == "2 - t^2"
    # the abelianized line of `rewrite` for t^-2 x^3 t^2 x^-1 t x t^-1
    assert format_terms([(-2, 3), (0, -1), (1, 1)]) == "3*t^-2 - 1 + t"
    assert format_terms([(-1, -5)]) == "-5*t^-1"


def test_both_polynomial_types_print_alike():
    rng = random.Random(69)
    for _ in range(300):
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))]
        coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
        assert IntPoly.of(coeffs).format() == LaurentPoly.of_list(coeffs).format()
