"""Spectral classification of integer matrices and polynomials.

An automorphism of Z^n either has every eigenvalue a root of unity (the
matrix is quasi-unipotent and the extension is virtually nilpotent) or
its spectral radius clears a degree-dependent gap above 1, giving
exponential growth.  Both decisions are exact: roots of unity by the
one cyclotomic pass of `_exact.strip_cyclotomic`, the gap by the
Schur-Cohn test `roots_inside` on integer coefficients.  Only the
reported radius `m` is a float, from an Aberth iteration on the
square-free part.

Determinant, rank, unimodular inverse and fixed vectors are read off
the one fraction-free elimination `_exact.eliminate`; `hermite_rows` is
a lattice normal form over Z and keeps its own reduction.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from growthlab import GrowthlabError
from growthlab._exact import (  # cyclotomic, euler_phi: public here too
    cyclotomic,
    eliminate,
    euler_phi,
    format_terms,
    poly_divmod,
    strip_cyclotomic,
    zx_gcd,
)

LOG_BASE = "e"  # base of the logarithm in the gap threshold

VIRTUALLY_NILPOTENT = "VirtuallyNilpotent"
EXPONENTIAL = "Exponential"


class SpectraError(GrowthlabError):
    pass


# ---------------------------------------------------------------------------
# integer polynomials

_TERM_RE = re.compile(r"([+-]?)(\d*)(t(?:\^(\d+))?)?$")


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients low-to-high, leading nonzero."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise SpectraError("leading coefficient must be nonzero")

    @classmethod
    def of(cls, low_to_high) -> "IntPoly":
        xs = list(low_to_high)
        while len(xs) > 1 and xs[-1] == 0:
            xs.pop()
        return cls(tuple(xs))

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        s = text.replace(" ", "").replace("*", "")
        if not s:
            raise SpectraError("empty polynomial")
        tokens = re.findall(r"[+-]?[^+-]+", s)
        if "".join(tokens) != s:
            raise SpectraError(f"cannot parse polynomial {text!r}")
        coeffs: dict = {}
        for tok in tokens:
            m = _TERM_RE.match(tok)
            if not m or (not m.group(2) and not m.group(3)):
                raise SpectraError(f"bad term {tok!r} in {text!r}")
            sign = -1 if m.group(1) == "-" else 1
            c = int(m.group(2)) if m.group(2) else 1
            if m.group(3) is None:
                e = 0
            elif m.group(4) is None:
                e = 1
            else:
                e = int(m.group(4))
            coeffs[e] = coeffs.get(e, 0) + sign * c
        deg = max((e for e, c in coeffs.items() if c), default=0)
        return cls.of([coeffs.get(e, 0) for e in range(deg + 1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def at_matrix(self, m):
        n = len(m)
        acc = mat_scale(mat_identity(n), self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = mat_add(mat_mul(acc, m), mat_scale(mat_identity(n), c))
        return acc

    def format(self) -> str:
        return format_terms(enumerate(self.coeffs))

    def __repr__(self):
        return f"IntPoly({self.format()})"


# ---------------------------------------------------------------------------
# integer matrices

def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_scale(m, c):
    return [[x * c for x in row] for row in m]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for p in range(k):
            c = ai[p]
            if c:
                bp = b[p]
                for j in range(m):
                    oi[j] += c * bp[j]
    return out


def mat_vec(m, v):
    return tuple(sum(c * x for c, x in zip(row, v)) for row in m)


def mat_trace(m):
    return sum(m[i][i] for i in range(len(m)))


def mat_det(m) -> int:
    _, pivots, d, sign = eliminate(m)
    return sign * d if len(pivots) == len(m) else 0


def mat_pow(m, k: int):
    n = len(m)
    if k < 0:
        return mat_pow(mat_inv_unimodular(m), -k)
    acc = mat_identity(n)
    base = [row[:] for row in m]
    while k:
        if k & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        k >>= 1
    return acc


def mat_inv_unimodular(m):
    """Exact inverse of an integer matrix with determinant +-1: the
    right half of the eliminated [M | I], divided by d = +-1."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    rows, pivots, d, sign = eliminate(aug, n)
    det = sign * d if len(pivots) == n else 0
    if abs(det) != 1:
        raise SpectraError(f"matrix determinant {det} is not a unit")
    return [[x * d for x in row[n:]] for row in rows]


def matrix_rank(rows) -> int:
    return len(eliminate(rows)[1])


def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hermite_rows(rows):
    """Row-style Hermite form of the lattice spanned by integer rows:
    unique basis with positive pivots and reduced entries above them."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] == 0:
                continue
            if pivot is None:
                pivot = i
                continue
            a, b = mat[pivot][c], mat[i][c]
            g, u, v = _ext_gcd(a, b)
            row_p = [u * mat[pivot][k] + v * mat[i][k] for k in range(cols)]
            row_i = [(-b // g) * mat[pivot][k] + (a // g) * mat[i][k]
                     for k in range(cols)]
            mat[pivot], mat[i] = row_p, row_i
        if pivot is None or mat[pivot][c] == 0:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [mat[i][k] - q * mat[r][k] for k in range(cols)]
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r] if any(row)]


# ---------------------------------------------------------------------------
# characteristic polynomial and cyclotomic factors

def char_poly(m) -> IntPoly:
    """Monic characteristic polynomial det(t*I - M), exact integers.

    Uses the trace-of-powers recurrence whose divisions are exact."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise SpectraError("matrix must be square")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    nmat = mat_identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, nmat)
        t = mat_trace(mk)
        # the division is exact at every step
        assert t % k == 0
        c = -t // k
        coeffs[n - k] = c
        nmat = mat_add(mk, mat_scale(mat_identity(n), c))
    return IntPoly(tuple(coeffs))


def smallest_cyclotomic_order(p: IntPoly) -> int:
    """Least k whose k-th cyclotomic polynomial divides p, or None.

    A hit at k means p has a primitive k-th root of unity among its
    roots, so the matrix it came from has a fixed vector at power k."""
    return strip_cyclotomic(p.coeffs)[1]


# ---------------------------------------------------------------------------
# root location and spectral radius

def roots_inside(coeffs, r) -> bool:
    """Whether every zero of an integer polynomial (low-to-high) lies in
    the open disc |z| < r, decided exactly for rational r > 0.

    Schur-Cohn (Henrici, Applied and Computational Complex Analysis I,
    section 6.8): with r = P/Q the zeros of q(z) = Q^n p(Pz/Q) are those
    of p divided by r.  While |a_0| < |a_n|, Rouche's theorem shows that
    (a_n q - a_0 q*)/z, with q* the reversed q, has one zero fewer than q
    in the open unit disc and degree one less; |a_0| >= |a_n| means the
    product of the zeros has modulus at least 1.  A zero on the circle
    is a zero of q* too, survives every step and ends in a failed
    comparison, so it counts as outside."""
    r = Fraction(r)
    if r <= 0:
        raise SpectraError("radius must be positive")
    xs = list(coeffs)
    while xs and xs[-1] == 0:
        xs.pop()
    if not xs:
        raise SpectraError("the zero polynomial has no isolated zeros")
    n = len(xs) - 1
    p, q = r.numerator, r.denominator
    xs = [c * p ** k * q ** (n - k) for k, c in enumerate(xs)]
    while len(xs) > 1:
        a0, an = xs[0], xs[-1]
        if abs(a0) >= abs(an):
            return False
        n = len(xs) - 1
        xs = [an * xs[j + 1] - a0 * xs[n - 1 - j] for j in range(n)]
        g = math.gcd(*xs)
        xs = [c // g for c in xs]
    return True


_ABERTH_STEP_TOL = 2.0 ** -40
_ABERTH_MAX_SWEEPS = 200


def _aberth_roots(xs):
    """All roots of an integer polynomial with simple, nonzero roots by
    Aberth-Ehrlich iteration (Aberth 1973).  Each root stops once
    its correction is below _ABERTH_STEP_TOL relative, which the cubic
    convergence at a simple root turns into full working precision.

    The start circle has 1.5 times the geometric mean radius R: a
    polynomial invariant under inversion in a circle has R as that
    circle's radius, and the iteration would keep the inverted pairs
    on it and converge slowly, as it does for the reciprocal
    t^2 - 3t + 1 from the unit circle."""
    n = len(xs) - 1
    cs = [float(c) for c in reversed(xs)]  # high-to-low for Horner
    rad = 1.5 * abs(cs[-1] / cs[0]) ** (1.0 / n)
    zs = [rad * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4))
          for k in range(n)]
    live = list(range(n))
    for _ in range(_ABERTH_MAX_SWEEPS):
        still = []
        for k in live:
            z = zs[k]
            pv, dv = 0j, 0j
            for c in cs:
                dv = dv * z + pv
                pv = pv * z + c
            if pv == 0:
                continue
            s = 0j
            for j in range(n):
                if j != k:
                    s += 1.0 / (z - zs[j])
            w = 1.0 / (dv / pv - s)
            zs[k] = z - w
            if abs(w) > _ABERTH_STEP_TOL * abs(zs[k]):
                still.append(k)
        if not still:
            return zs
        live = still
    raise SpectraError("root iteration did not converge")


# absolute slack of the radius estimate over the Cauchy bound
_CAUCHY_SLACK = 1e-9


def max_root_modulus(coeffs) -> float:
    """Largest root modulus of an integer coefficient list (low-to-high),
    as a float.

    The iteration runs on the square-free part p / gcd(p, p'), whose
    roots are simple: at a repeated root an iteration converges only
    linearly and to a fraction of the working precision."""
    xs = list(coeffs)
    while xs and xs[-1] == 0:
        xs.pop()
    if len(xs) <= 1:
        return 0.0
    cauchy = 1.0 + max(abs(c) for c in xs) / abs(xs[-1])
    xs = xs[next(i for i, c in enumerate(xs) if c):]  # zero roots
    if len(xs) == 1:
        return 0.0
    g = zx_gcd(xs, [k * c for k, c in enumerate(xs)][1:])
    if len(g) > 1:
        xs, rem = poly_divmod(xs, g)
        assert not rem, "gcd(p, p') must divide p"
    r = max(abs(z) for z in _aberth_roots(xs))
    if r > cauchy + _CAUCHY_SLACK:
        raise SpectraError("radius estimate exceeds the Cauchy bound")
    return r


def spectral_radius(p: IntPoly) -> float:
    """Largest root modulus of a monic polynomial.

    Cyclotomic factors are removed exactly first, so polynomials whose
    roots all lie on the unit circle report exactly 1.0."""
    if not p.is_monic():
        raise SpectraError("spectral radius requires a monic polynomial")
    if p.degree < 1:
        raise SpectraError("degree must be at least 1")
    rest, least = strip_cyclotomic(p.coeffs)
    if len(rest) == 1:
        return 1.0
    r = max_root_modulus(rest)
    if least is not None:
        r = max(r, 1.0)
    return r


def mahler_gap_threshold(d: int) -> float:
    """1 + 1/(30 d^2 ln(6d)); natural logarithm (see LOG_BASE)."""
    if d < 1:
        raise SpectraError("degree must be at least 1")
    return 1.0 + 1.0 / (30.0 * d * d * math.log(6.0 * d))


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class SpectralClassification:
    kind: str  # VIRTUALLY_NILPOTENT or EXPONENTIAL
    char: IntPoly
    m: float = None
    threshold: float = None
    log_base: str = LOG_BASE


def classify_char_poly(p: IntPoly) -> SpectralClassification:
    """Classify the automorphism of Z^n with characteristic polynomial p.

    p must be monic with constant term +-1 (the determinant up to sign).
    Cyclotomic factors are stripped once; what is left is either 1
    (every root a root of unity) or must have a root on or beyond the
    Mahler gap, which is decided exactly."""
    n = p.degree
    if n < 1:
        raise SpectraError("polynomial must have degree at least 1")
    if not p.is_monic():
        raise SpectraError("polynomial must be monic")
    det = (-1) ** n * p.coeffs[0]
    if abs(det) != 1:
        raise SpectraError(f"determinant {det} is not a unit")
    thr = mahler_gap_threshold(n)
    rest, _ = strip_cyclotomic(p.coeffs)
    if rest == [1]:
        return SpectralClassification(VIRTUALLY_NILPOTENT, p, threshold=thr)
    if roots_inside(rest, Fraction(thr)):
        raise SpectraError(
            "radius below the degree gap for a non-cyclotomic polynomial")
    return SpectralClassification(EXPONENTIAL, p, m=max_root_modulus(rest),
                                  threshold=thr)


def classify_abelian_by_cyclic(m) -> SpectralClassification:
    """Classify the extension of Z^n by an integer matrix action."""
    return classify_char_poly(char_poly(m))


def fixed_vector_of_power(m, r: int):
    """Primitive integer vector v with M^r v = v, or None."""
    if r < 1:
        raise SpectraError("power must be at least 1")
    n = len(m)
    rows, pivots, d, _ = eliminate(mat_sub(mat_pow(m, r), mat_identity(n)))
    j0 = next((c for c in range(n) if c not in pivots), None)
    if j0 is None:
        return None
    # the null vector with x[j0] = 1 and the other free unknowns 0,
    # scaled by d to clear the denominators
    v = [0] * n
    v[j0] = d
    for row, col in zip(rows, pivots):
        v[col] = -row[j0]
    g = math.gcd(*v)
    if next(c for c in v if c) < 0:
        g = -g
    v = tuple(c // g for c in v)
    if mat_vec(mat_pow(m, r), v) != v:
        raise AssertionError("fixed-vector witness failed re-verification")
    return v
