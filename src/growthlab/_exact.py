"""The exact integer algebra under `spectra`, `laurent` and `witness`.

Four decisions live here and nowhere else:

* `eliminate`: fraction-free Gauss-Jordan elimination over Z (Bareiss,
  Math. Comp. 22, 1968), from which rank, determinant, inverse, null
  vectors and the integer coordinates of a vector in a lattice basis
  are read off.
* `mat_mul` and `mat_vec`: the one integer matrix product.
* `poly_divmod`: division of integer polynomials; the Z[t] gcd, the
  Laurent divisibility test and the cyclotomic polynomials use it.
* `strip_cyclotomic`: one ascending pass over the orders k that divides
  out every cyclotomic factor and reports the least k that divided.

Polynomials are coefficient lists, low-to-high; `format_terms` is the
one printed form of a polynomial in t.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul


# ---------------------------------------------------------------------------
# linear algebra


def eliminate(rows, ncols=None):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Pivots are taken left to right among the first `ncols` columns (all
    by default); the remaining columns are carried along, as for an
    augmented matrix.  Each step replaces every other row i by
    (piv * row_i - f * row_r) // prev, where piv is the new pivot, f the
    entry of row i in the pivot column and prev the previous pivot.
    Every entry then stays a minor of the input (Sylvester's identity),
    so the divisions are exact and no fractions arise.

    Returns (rows, pivots, d, sign): pivot row i equals d times row i of
    the reduced row echelon form, and its pivot sits in column
    pivots[i]; the rows after them vanish on the first `ncols` columns.
    For a square matrix of full rank sign * d is the determinant."""
    a = [list(row) for row in rows]
    width = len(a[0]) if a else 0
    ncols = width if ncols is None else ncols
    pivots = []
    prev, sign = 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pivot_row = a[r]
        piv = pivot_row[col]
        for i, row in enumerate(a):
            f = row[col]
            if i != r and (f or piv != prev):
                a[i] = [(piv * x - f * y) // prev
                        for x, y in zip(row, pivot_row)]
        pivots.append(col)
        prev = piv
    return a, pivots, prev, sign


def mat_mul(a, b):
    """The product of integer matrices, r x n times n x m."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


# ---------------------------------------------------------------------------
# polynomials


def poly_divmod(a, b):
    """Quotient and remainder of a by b in Z[t] (b's leading coefficient
    nonzero), trailing zeros of the remainder removed.

    Stops early with a nonzero partial remainder at the first leading
    coefficient that b's does not divide, so an empty remainder means
    exactly that b divides a in Z[t]."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while a and a[-1] == 0:
        a.pop()
    while len(a) >= len(b):
        f, r = divmod(a[-1], lead)
        if r:
            break
        off = len(a) - len(b)
        q[off] = f
        for j, c in enumerate(b):
            a[off + j] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return q, a


def format_terms(terms) -> str:
    """Print ascending (exponent, coefficient) pairs as a polynomial in
    t, lowest term first ("-2 + t^2", "3*t^-2 - 1 + t"); zero
    coefficients are skipped and no term at all prints "0"."""
    parts = []
    for e, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if mag == 1 else f"{mag}*{tpart}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def primitive(xs):
    """xs without trailing zeros, divided by the gcd of its entries."""
    xs = list(xs)
    while xs and xs[-1] == 0:
        xs.pop()
    if not xs:
        return []
    g = math.gcd(*xs)
    return [c // g for c in xs]


def zx_gcd(a, b):
    """gcd in Z[t] of nonzero coefficient lists, positive leading.

    Primitive Euclid: the remainder of lb^(da - db + 1) * a by b is
    integral (the pseudo-remainder; no scaling when a is already the
    shorter), and only its primitive part is kept.  The signs this
    drops are restored by the positive leading coefficient."""
    g = math.gcd(math.gcd(*a), math.gcd(*b))
    a, b = primitive(a), primitive(b)
    while b:
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        _, rem = poly_divmod([c * scale for c in a], b)
        a, b = b, primitive(rem)
    if a[-1] < 0:
        a = [-c for c in a]
    return [c * g for c in a]


@lru_cache(maxsize=None)
def euler_phi(k: int) -> int:
    out = k
    n = k
    p = 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> tuple:
    """Coefficients (low-to-high) of the k-th cyclotomic polynomial."""
    num = [0] * (k + 1)
    num[0], num[k] = -1, 1
    for d in range(1, k):
        if k % d == 0:
            num, rem = poly_divmod(num, cyclotomic(d))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def _cyclotomic_orders(d: int) -> tuple:
    """Every k with phi(k) <= d, ascending; phi(k) >= sqrt(k/2) bounds
    them by 2d^2."""
    return tuple(k for k in range(1, 2 * d * d + 2) if euler_phi(k) <= d)


def strip_cyclotomic(coeffs):
    """Divide every cyclotomic factor out of an integer polynomial.

    Returns (rest, least_k), least_k the least k whose k-th cyclotomic
    polynomial divides the input, or None.  One ascending pass suffices:
    distinct cyclotomic polynomials are coprime, so the first order that
    divides the partly stripped polynomial is the least order that
    divides the input."""
    xs = list(coeffs)
    least = None
    for k in _cyclotomic_orders(len(xs) - 1):
        phi = cyclotomic(k)
        while len(phi) <= len(xs):
            q, rem = poly_divmod(xs, phi)
            if rem:
                break
            xs = q
            if least is None:
                least = k
    return xs, least
