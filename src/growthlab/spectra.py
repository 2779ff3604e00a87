"""Spectral classification of integer matrices and polynomials.

An automorphism of Z^n either has every eigenvalue a root of unity (the
matrix is quasi-unipotent and the extension is virtually nilpotent) or
its spectral radius clears a degree-dependent gap above 1, giving
exponential growth.  Both decisions are exact: roots of unity by the
one cyclotomic pass of `_exact.strip_cyclotomic`, the gap by the
Schur-Cohn test `roots_inside` on integer coefficients.  Only the
reported radius `m` is a float, from an Aberth iteration on the
square-free part.

Fixed vectors are read off the one fraction-free elimination
`_exact.eliminate`, and matrix powers are the package's one
square-and-multiply loop `binary_power` over its one product `mat_mul`.
`hermite_rows` is a lattice normal form over Z and keeps its own
reduction, Euclid by floor quotients; the printed basis is fixed by the
uniqueness of the Hermite form, not by the steps that reach it.  The
least cyclotomic order of a polynomial is `strip_cyclotomic(coeffs)[1]`.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from collections import namedtuple
from fractions import Fraction

from growthlab import GrowthlabError, binary_power
from growthlab._exact import (  # cyclotomic, euler_phi: public here too
    cyclotomic,
    eliminate,
    euler_phi,
    format_terms,
    mat_mul,
    mat_vec,
    poly_divmod,
    strip_cyclotomic,
    zx_gcd,
)

LOG_BASE = "e"  # base of the logarithm in the gap threshold
# the highest degree a parsed polynomial may have: the cyclotomic pass
# and the root iteration take time growing faster than d^2
MAX_DEGREE = 128

VIRTUALLY_NILPOTENT = "VirtuallyNilpotent"
EXPONENTIAL = "Exponential"


class SpectraError(GrowthlabError):
    pass


# ---------------------------------------------------------------------------
# integer polynomials

_TERM_RE = re.compile(r"([+-]?)(\d*)(t(?:\^(\d+))?)?$")


class IntPoly:
    """Integer polynomial, coefficients low-to-high, leading nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        if not coeffs or coeffs[-1] == 0:
            raise SpectraError("leading coefficient must be nonzero")
        self.coeffs = coeffs

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
            try:
                c = int(m.group(2) or 1)
                e = 0 if m.group(3) is None else int(m.group(4) or 1)
            except ValueError:  # past Python's int-string digit limit
                raise SpectraError("integer literal too long in polynomial") from None
            coeffs[e] = coeffs.get(e, 0) + sign * c
        deg = max((e for e, c in coeffs.items() if c), default=0)
        if deg > MAX_DEGREE:
            raise SpectraError(f"polynomial degree is above the ceiling {MAX_DEGREE}")
        return cls.of([coeffs.get(e, 0) for e in range(deg + 1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def format(self) -> str:
        return format_terms(enumerate(self.coeffs))

    def __repr__(self):
        return f"IntPoly({self.format()})"


# ---------------------------------------------------------------------------
# integer matrices

def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_pow(m, k: int):
    """M^k for k >= 0: ``binary_power`` with ``mat_mul``, so M^1 is M
    itself and M^0 a fresh identity."""
    if k < 0:
        raise SpectraError(f"matrix power needs k >= 0, got {k}")
    return binary_power(m, k, mat_mul, mat_identity(len(m)))


def _floor_reduce(row, by, c):
    """row - q * by for the floor quotient q = row[c] // by[c]."""
    q = row[c] // by[c]
    return [x - q * y for x, y in zip(row, by)] if q else row


def hermite_rows(rows):
    """Row-style Hermite form of the lattice spanned by integer rows:
    the unique basis in echelon form with positive pivots and the
    entries above each pivot in [0, pivot) (Cohen, A Course in
    Computational Algebraic Number Theory, section 2.4.2).

    One column at a time, Euclid with floor quotients: while more than
    one row not yet a pivot is nonzero in the column, the one with the
    least absolute entry reduces the others.  The row left, made
    positive, is the pivot, and floor quotients bring the pivot rows
    above it into [0, pivot)."""
    mat = [list(row) for row in rows if any(row)]
    out = []
    for c in range(len(mat[0]) if mat else 0):
        live = [row for row in mat if row[c]]
        mat = [row for row in mat if not row[c]]
        while len(live) > 1:
            low = min(live, key=lambda row: abs(row[c]))
            live = [row if row is low else _floor_reduce(row, low, c) for row in live]
            mat += [row for row in live if not row[c]]
            live = [row for row in live if row[c]]
        if live:
            pivot = live[0] if live[0][c] > 0 else [-x for x in live[0]]
            out = [_floor_reduce(row, pivot, c) for row in out] + [pivot]
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial

def char_poly(m) -> IntPoly:
    """Monic characteristic polynomial det(t*I - M), exact integers.

    Uses the trace-of-powers recurrence whose divisions are exact:
    N_0 = I, and N_k = M N_(k-1) + c_k I, c_k = -tr(M N_(k-1)) / k, with
    c_k added to the diagonal of the fresh product in place.  M N_0 is M,
    and N_n (zero, by Cayley-Hamilton) is not formed."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise SpectraError("matrix must be square")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [list(row) for row in m]  # M N_(k-1)
    for k in range(1, n + 1):
        t = sum(mk[i][i] for i in range(n))
        # the division is exact at every step
        assert t % k == 0
        c = -t // k
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            mk[i][i] += c
        mk = mat_mul(m, mk)
    return IntPoly(tuple(coeffs))


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
    # a root whose corrections never fall below the step tolerance is
    # kept if Horner's rule cannot tell its value from 0: |p(z)| within
    # the rounding bound u * sum (4i+1) |a_i| |z|^i (Bini, Numer.
    # Algorithms 13, 1996), as in a cluster of close real roots
    for k in live:
        z, pv, bound = zs[k], 0j, 0.0
        for i, c in enumerate(cs):
            pv = pv * z + c
            bound = bound * abs(z) + (4 * (n - i) + 1) * abs(c)
        if abs(pv) > 2.0 ** -53 * bound:
            raise SpectraError("root iteration did not converge")
    return zs


# absolute slack of the radius estimate over the Cauchy bound, and the
# relative slack under the lower bounds, as a logarithm
_CAUCHY_SLACK = 1e-9
_LOWER_LOG_SLACK = math.log1p(-1e-9)


def max_root_modulus(coeffs) -> float:
    """Largest root modulus of an integer coefficient list (low-to-high),
    as a float.

    The iteration runs on the square-free part p / gcd(p, p'), whose
    roots are simple: at a repeated root an iteration converges only
    linearly and to a fraction of the working precision.  The estimate
    must lie within bounds that follow from the coefficients: Cauchy's
    above, and below the two that the square-free part a_0 + ... + a_n
    t^n gives, the geometric mean |a_0/a_n|^(1/n) of its root moduli
    and their mean, at least |a_(n-1)|/(n |a_n|).  The lower bounds are
    compared as logarithms, which take integers of any size.  An
    estimate outside the bounds is an error, never a printed radius."""
    xs = list(coeffs)
    while xs and xs[-1] == 0:
        xs.pop()
    if len(xs) <= 1:
        return 0.0
    try:
        cauchy = 1.0 + max(abs(c) for c in xs) / abs(xs[-1])
    except OverflowError:  # the ratio is past the float range
        raise SpectraError("coefficients too large for the float root "
                           "iteration") from None
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
    n, lead = len(xs) - 1, abs(xs[-1])
    low = (math.log(abs(xs[0])) - math.log(lead)) / n
    if xs[-2]:
        low = max(low, math.log(abs(xs[-2])) - math.log(n * lead))
    if r == 0 or math.log(r) < low + _LOWER_LOG_SLACK:
        raise SpectraError("radius estimate is below the exact lower bound")
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

class SpectralClassification(namedtuple(
        "SpectralClassification", "kind char m threshold log_base",
        defaults=(None, None, LOG_BASE))):
    """kind is VIRTUALLY_NILPOTENT or EXPONENTIAL; char is an IntPoly."""

    __slots__ = ()


# a determinant below this is printed in its error message
_ECHO_LIMIT = 10 ** 30


@functools.lru_cache(maxsize=512)
def classify_char_poly(p: IntPoly) -> SpectralClassification:
    """Classify the automorphism of Z^n with characteristic polynomial p.

    p must be monic with constant term +-1 (the determinant up to sign).
    Cyclotomic factors are stripped once; what is left is either 1
    (every root a root of unity) or must have a root on or beyond the
    Mahler gap, which is decided exactly.

    The answer depends on p alone, and an IntPoly hashes and compares
    by its coefficient tuple, so the classifications are memoized by
    that tuple; conjugate matrices and repeated witness searches share
    an entry.  A polynomial that fails a check raises every time."""
    n = p.degree
    if n < 1:
        raise SpectraError("polynomial must have degree at least 1")
    if not p.is_monic():
        raise SpectraError("polynomial must be monic")
    det = (-1) ** n * p.coeffs[0]
    if abs(det) != 1:
        # a determinant of many digits is not echoed (nor can Python
        # print one past its int-string limit)
        if abs(det) < _ECHO_LIMIT:
            raise SpectraError(f"determinant {det} is not a unit")
        raise SpectraError("determinant is not a unit")
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
    power = mat_pow(m, r)
    rows, pivots, d, _ = eliminate(mat_sub(power, mat_identity(n)))
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
    if mat_vec(power, v) != v:
        raise AssertionError("fixed-vector witness failed re-verification")
    return v
